package main

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"zmail/internal/promtext"
)

func TestZmaildFlagValidation(t *testing.T) {
	if err := run([]string{"-insecure"}); err == nil {
		t.Error("missing -index/-domains accepted")
	}
	if err := run([]string{"-index", "0", "-insecure"}); err == nil {
		t.Error("missing -domains accepted")
	}
	if err := run([]string{"-index", "5", "-domains", "a.example,b.example", "-insecure"}); err == nil {
		t.Error("index beyond domains accepted")
	}
	if err := run([]string{"-index", "0", "-domains", "a.example,b.example"}); err == nil {
		t.Error("missing key material accepted")
	}
	if err := run([]string{
		"-index", "0", "-domains", "a.example,b.example", "-insecure",
		"-compliant", "1",
	}); err == nil {
		t.Error("short -compliant accepted")
	}
	if err := run([]string{
		"-index", "0", "-domains", "a.example,b.example", "-insecure",
		"-policy", "shred",
	}); err == nil {
		t.Error("unknown -policy accepted")
	}
	if err := run([]string{
		"-index", "0", "-domains", "a.example,b.example", "-insecure",
		"-peer", "garbage",
	}); err == nil {
		t.Error("malformed -peer accepted")
	}
	if err := run([]string{
		"-index", "0", "-domains", "a.example,b.example", "-insecure",
		"-listen", "127.0.0.1:0",
		"-user", "alice:10", // wrong arity
	}); err == nil {
		t.Error("malformed -user accepted")
	}
}

// TestZmaildUsageFailures pins that configuration mistakes die before
// any listener binds, with a usage-prefixed message on stderr (the
// process exits non-zero via main).
func TestZmaildUsageFailures(t *testing.T) {
	base := []string{"-index", "0", "-domains", "a.example", "-insecure", "-listen", "127.0.0.1:0"}
	cases := []struct {
		name string
		args []string
	}{
		{"wal and state together", append(base, "-wal", t.TempDir(), "-state", t.TempDir()+"/s.json")},
		{"listen without port", []string{"-index", "0", "-domains", "a.example", "-insecure", "-listen", "nonsense"}},
		{"bank without port", append(base, "-bank", "bankhost")},
		{"metrics without port", append(base, "-metrics", "127.0.0.1")},
		{"missing key material", []string{"-index", "0", "-domains", "a.example"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil {
				t.Fatal("bad invocation accepted")
			}
			if !strings.HasPrefix(err.Error(), "usage:") {
				t.Fatalf("error %q does not carry a usage message", err)
			}
		})
	}
}

// TestZmaildMetricsBootFailure: a well-formed but unbindable metrics
// address is a boot failure (non-zero exit), discovered before the
// daemon enters its serve loop.
func TestZmaildMetricsBootFailure(t *testing.T) {
	err := run([]string{
		"-index", "0", "-domains", "a.example", "-insecure",
		"-listen", "127.0.0.1:0",
		"-metrics", "203.0.113.1:0", // TEST-NET-3: never assigned locally
	})
	if err == nil {
		t.Fatal("unbindable -metrics address accepted")
	}
	if strings.HasPrefix(err.Error(), "usage:") {
		t.Fatalf("bind failure %q misreported as a usage error", err)
	}
}

// TestObsvSmoke boots a full daemon on ephemeral ports, scrapes the
// admin telemetry listener, and sanity-parses the exposition. This is
// the `make obsv` smoke target.
func TestObsvSmoke(t *testing.T) {
	// The peer is never dialed (nothing is sent); it is there so the
	// relay's per-peer series exist.
	d, err := boot([]string{
		"-index", "0", "-domains", "one.example,two.example", "-insecure",
		"-listen", "127.0.0.1:0", "-metrics", "127.0.0.1:0",
		"-user", "alice:1000:50:200", "-peer", "1=127.0.0.1:1",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.admin == nil {
		t.Fatal("boot with -metrics left admin listener nil")
	}

	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + d.admin.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type %q", ct)
	}
	scrape, err := promtext.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("unparseable exposition: %v", err)
	}

	// The engine's collected families are present.
	isp := map[string]string{"isp": "one.example"}
	toPeer := map[string]string{"isp": "one.example", "peer": "two.example"}
	for _, want := range []struct {
		name   string
		labels map[string]string
	}{
		{"zmail_isp_pool_avail", isp},
		{"zmail_isp_submitted_total", isp},
		{"zmail_isp_submit_seconds_count", isp},
		// The relay layer (core.Node.Collect).
		{"zmail_relay_queue_depth", toPeer},
		{"zmail_relay_sessions", toPeer},
		{"zmail_relay_dials_total", isp},
		{"zmail_relay_sent_total", isp},
		{"zmail_relay_retried_total", isp},
		{"zmail_relay_failed_total", isp},
	} {
		if _, ok := scrape.Value(want.name, want.labels); !ok {
			t.Fatalf("exposition missing %s%v", want.name, want.labels)
		}
	}

	resp, err = client.Get("http://" + d.admin.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
}

func TestStringListFlag(t *testing.T) {
	var s stringList
	_ = s.Set("a")
	_ = s.Set("b")
	if len(s) != 2 || s.String() != "a,b" {
		t.Fatalf("stringList = %v / %q", s, s.String())
	}
}
