package core

import (
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"zmail/internal/crypto"
	"zmail/internal/isp"
	"zmail/internal/mail"
	"zmail/internal/persist"
)

func adminDaemon(t *testing.T, metricsAddr, walDir string) *ISPDaemon {
	t.Helper()
	d, err := StartISPDaemon(ISPDaemonConfig{
		Node: NodeConfig{
			Engine: isp.Config{
				Index: 0, Domain: "adm.example",
				Directory:    isp.NewDirectory([]string{"adm.example", "peer.example"}, nil),
				MinAvail:     100,
				MaxAvail:     5000,
				InitialAvail: 1000,
				BankSealer:   crypto.Null{}, OwnSealer: crypto.Null{},
			},
			ListenAddr: "127.0.0.1:0",
			Logf:       quietLog,
		},
		WALDir:      walDir,
		Users:       []User{{Name: "alice", Account: 100, Balance: 50, Limit: 20}},
		MetricsAddr: metricsAddr,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return d
}

// adminGet reads one page off d's admin listener, requiring status
// wantCode and a plain-text body.
func adminGet(t *testing.T, d *ISPDaemon, path string, wantCode int) string {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + d.MetricsAddr().String() + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("%s status %d, want %d: %q", path, resp.StatusCode, wantCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("%s Content-Type %q", path, ct)
	}
	return string(body)
}

// TestAdminPages reads each ledger page off the admin listener: every
// one is plain text, and the statement page answers a missing or
// unknown user with an error status.
func TestAdminPages(t *testing.T) {
	d := adminDaemon(t, "127.0.0.1:0", "")
	a := mail.MustParseAddress("alice@adm.example")
	if _, err := d.Node().Engine().SubmitSync(mail.NewMessage(a, a, "self note", "b")); err != nil {
		t.Fatal(err)
	}

	get := func(path string, wantCode int) string { return adminGet(t, d, path, wantCode) }
	if users := get("/users", http.StatusOK); !strings.Contains(users, "alice balance=") ||
		!strings.Contains(users, "sent=1/20") {
		t.Fatalf("/users = %q", users)
	}
	stmt := get("/statement?user=alice", http.StatusOK)
	if !strings.Contains(stmt, "Statement for alice@adm.example") ||
		!strings.Contains(stmt, "sent") || !strings.Contains(stmt, "received") {
		t.Fatalf("/statement = %q", stmt)
	}
	if got := get("/statement", http.StatusBadRequest); !strings.Contains(got, "usage") {
		t.Fatalf("bare /statement = %q", got)
	}
	if got := get("/statement?user=mallory", http.StatusNotFound); !strings.Contains(got, "mallory") {
		t.Fatalf("unknown-user /statement = %q", got)
	}
	if got := get("/credit", http.StatusOK); !strings.Contains(got, "credit=[0 0]") {
		t.Fatalf("/credit = %q", got)
	}
	if got := get("/pool", http.StatusOK); !strings.Contains(got, "avail=950e¢") ||
		!strings.Contains(got, "band=[100e¢, 5000e¢]") {
		t.Fatalf("/pool = %q", got)
	}
}

// TestAdminPagesNeedMetricsAddr: without a metrics address the daemon
// binds no admin listener.
func TestAdminPagesNeedMetricsAddr(t *testing.T) {
	if d := adminDaemon(t, "", ""); d.MetricsAddr() != nil {
		t.Fatalf("admin listener bound at %v without MetricsAddr", d.MetricsAddr())
	}
}

// TestHealthzFailsAfterWALAppendError: /healthz answers 200 until a
// mutation record fails to reach the WAL, then 503 naming the log. A
// user whose name alone outgrows the largest WAL record registers in
// memory but cannot be logged.
func TestHealthzFailsAfterWALAppendError(t *testing.T) {
	d := adminDaemon(t, "127.0.0.1:0", filepath.Join(t.TempDir(), "wal"))
	adminGet(t, d, "/healthz", http.StatusOK)
	huge := strings.Repeat("x", persist.MaxWALRecordSize+1)
	if err := d.Node().Engine().RegisterUser(huge, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if got := adminGet(t, d, "/healthz", http.StatusServiceUnavailable); !strings.Contains(got, "wal append failures: 1") {
		t.Fatalf("/healthz = %q", got)
	}
}
