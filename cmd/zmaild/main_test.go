package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zmail/internal/mail"
	"zmail/internal/promtext"
	"zmail/internal/smtp"
)

func TestZmaildFlagValidation(t *testing.T) {
	if err := run([]string{"-insecure"}, nil); err == nil {
		t.Error("missing -index/-domains accepted")
	}
	if err := run([]string{"-index", "0", "-insecure"}, nil); err == nil {
		t.Error("missing -domains accepted")
	}
	if err := run([]string{"-index", "5", "-domains", "a.example,b.example", "-insecure"}, nil); err == nil {
		t.Error("index beyond domains accepted")
	}
	if err := run([]string{"-index", "0", "-domains", "a.example,b.example"}, nil); err == nil {
		t.Error("missing key material accepted")
	}
	if err := run([]string{
		"-index", "0", "-domains", "a.example,b.example", "-insecure",
		"-compliant", "1",
	}, nil); err == nil {
		t.Error("short -compliant accepted")
	}
	if err := run([]string{
		"-index", "0", "-domains", "a.example,b.example", "-insecure",
		"-policy", "shred",
	}, nil); err == nil {
		t.Error("unknown -policy accepted")
	}
	if err := run([]string{
		"-index", "0", "-domains", "a.example,b.example", "-insecure",
		"-peer", "garbage",
	}, nil); err == nil {
		t.Error("malformed -peer accepted")
	}
	if err := run([]string{
		"-index", "0", "-domains", "a.example,b.example", "-insecure",
		"-listen", "127.0.0.1:0",
		"-user", "alice:10", // wrong arity
	}, nil); err == nil {
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
		{"listen without port", []string{"-index", "0", "-domains", "a.example", "-insecure", "-listen", "nonsense"}},
		{"bank without port", append(base, "-bank", "bankhost")},
		{"metrics without port", append(base, "-metrics", "127.0.0.1")},
		{"missing key material", []string{"-index", "0", "-domains", "a.example"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, nil)
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
// daemon enters its serve loop, and the SMTP port bound before it is
// released.
func TestZmaildMetricsBootFailure(t *testing.T) {
	addr := freeAddr(t)
	err := run([]string{
		"-index", "0", "-domains", "a.example", "-insecure",
		"-listen", addr,
		"-metrics", "203.0.113.1:0", // TEST-NET-3: never assigned locally
	}, nil)
	if err == nil {
		t.Fatal("unbindable -metrics address accepted")
	}
	if strings.HasPrefix(err.Error(), "usage:") {
		t.Fatalf("bind failure %q misreported as a usage error", err)
	}
	mustRebind(t, addr)
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
	}, new(atomic.Int64))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.MetricsAddr() == nil {
		t.Fatal("boot with -metrics bound no admin listener")
	}
	admin := "http://" + d.MetricsAddr().String()

	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(admin + "/metrics")
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
		{"zmail_relay_rcpts_total", isp},
		{"zmail_relay_retried_total", isp},
		{"zmail_relay_failed_total", isp},
	} {
		if _, ok := scrape.Value(want.name, want.labels); !ok {
			t.Fatalf("exposition missing %s%v", want.name, want.labels)
		}
	}

	resp, err = client.Get(admin + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}

	// One ledger page from the same listener.
	resp, err = client.Get(admin + "/users")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "alice balance=50e¢") {
		t.Fatalf("/users = %d %q", resp.StatusCode, body)
	}
}

// TestWALShutdownKeepsAdmittedMail: a clean shutdown commits every
// message the admission queue answered for before the WAL closes, so a
// reboot from the same log carries every debit. With one slow drain
// worker most of the 3,000 submissions are still queued at Close.
func TestWALShutdownKeepsAdmittedMail(t *testing.T) {
	const n = 3000
	args := []string{
		"-index", "0", "-domains", "one.example", "-insecure",
		"-listen", "127.0.0.1:0", "-wal", filepath.Join(t.TempDir(), "wal"),
		"-maildir", t.TempDir(), "-queue-depth", "8192", "-queue-workers", "1",
		"-user", "alice:1000:5000:5000", "-user", "bob:1000:0:5000",
	}
	var delivered atomic.Int64
	d, err := boot(args, &delivered)
	if err != nil {
		t.Fatal(err)
	}
	from := mail.Address{Local: "alice", Domain: "one.example"}
	to := mail.Address{Local: "bob", Domain: "one.example"}
	for i := 0; i < n; i++ {
		if _, err := d.Node().Engine().Submit(mail.NewMessage(from, to, "s", "queued")); err != nil {
			d.Close()
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	d.Close()
	if got := delivered.Load(); got != n {
		t.Fatalf("delivered %d of %d before shutdown returned", got, n)
	}

	// Same -user flags: the recovered ledger wins over them.
	d, err = boot(args, &delivered)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	alice, ok := d.Node().Engine().User("alice")
	if !ok {
		t.Fatal("alice missing after reboot")
	}
	if alice.Sent != n || alice.Balance != 5000-n {
		t.Fatalf("recovered alice sent=%d balance=%d, want sent=%d balance=%d",
			alice.Sent, alice.Balance, n, 5000-n)
	}
	if bob, _ := d.Node().Engine().User("bob"); bob.Balance != n {
		t.Fatalf("recovered bob balance=%d, want %d", bob.Balance, n)
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

// TestWALRestartAnswersRelayFromFirstInstant restarts a daemon from a
// WAL of 10⁵ users on a fixed port while a peer ISP relays paid mail to
// one of them, dialing from before boot begins. The daemon opens SMTP
// only once the replay is done, so the peer is refused a connection
// until then and never meets a 550 for a user the log holds; a 550
// here would leave the peer's sender charged for mail nobody received.
func TestWALRestartAnswersRelayFromFirstInstant(t *testing.T) {
	const users = 100_000
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := ln.Addr().String()
	ln.Close()
	args := []string{
		"-index", "0", "-domains", "one.example,two.example", "-insecure",
		"-listen", port, "-wal", filepath.Join(t.TempDir(), "wal"), "-initavail", "0",
		"-maildir", t.TempDir(),
	}
	seed := append([]string(nil), args...)
	for u := 0; u < users; u++ {
		seed = append(seed, "-user", fmt.Sprintf("u%06d:0:0:10", u))
	}
	var delivered atomic.Int64
	d, err := boot(seed, &delivered)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	from := mail.Address{Local: "p", Domain: "two.example"}
	to := mail.Address{Local: fmt.Sprintf("u%06d", users-1), Domain: "one.example"}
	stop := make(chan struct{})
	type result struct{ accepted, refused int }
	done := make(chan result, 1)
	go func() {
		var r result
		defer func() { done <- r }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c, err := smtp.Dial(port, time.Second)
			if err != nil {
				time.Sleep(100 * time.Microsecond)
				continue
			}
			if err := c.Hello("two.example"); err == nil {
				for err == nil {
					err = c.Send(from, []mail.Address{to}, mail.NewMessage(from, to, "relay", "body"))
					var pe *smtp.ProtocolError
					switch {
					case err == nil:
						r.accepted++
					case errors.As(err, &pe) && pe.Code == 550:
						r.refused++
						err = c.Reset()
					}
					select {
					case <-stop:
						c.Close()
						return
					default:
					}
				}
			}
			c.Close()
		}
	}()

	d, err = boot(args, &delivered)
	if err != nil {
		close(stop)
		<-done
		t.Fatal(err)
	}
	defer d.Close()
	for deadline := time.Now().Add(10 * time.Second); delivered.Load() < 10; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Error("the relaying peer delivered nothing after boot")
			break
		}
	}
	close(stop)
	r := <-done
	if r.refused > 0 {
		t.Fatalf("%d relayed messages for a user in the WAL answered 550 (%d accepted)", r.refused, r.accepted)
	}
	if got := d.Node().Engine().Credit()[1]; got != -delivered.Load() {
		t.Fatalf("credit[peer] = %d after %d paid receipts", got, delivered.Load())
	}
}

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// mustRebind fails the test unless addr can be bound.
func mustRebind(t *testing.T, addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("the daemon still holds %s: %v", addr, err)
	}
	_ = ln.Close()
}

// TestZmaildStopReleasesListener: after stop, run returns and the
// -listen and -metrics ports can be bound again.
func TestZmaildStopReleasesListener(t *testing.T) {
	addr, metrics := freeAddr(t), freeAddr(t)
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-index", "0", "-domains", "one.example", "-insecure", "-listen", addr, "-metrics", metrics}, stop)
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if conn, err := net.Dial("tcp", addr); err == nil {
			_ = conn.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("nothing listens on %s", addr)
		}
	}
	stop <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("run did not return within 2s of stop")
	}
	mustRebind(t, addr)
	mustRebind(t, metrics)
}
