package core

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"zmail/internal/crypto"
	"zmail/internal/isp"
	"zmail/internal/mail"
)

func adminDaemon(t *testing.T, metricsAddr string) *ISPDaemon {
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
		Users:       []User{{Name: "alice", Account: 100, Balance: 50, Limit: 20}},
		MetricsAddr: metricsAddr,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return d
}

// TestAdminPages reads each ledger page off the admin listener: every
// one is plain text, and the statement page answers a missing or
// unknown user with an error status.
func TestAdminPages(t *testing.T) {
	d := adminDaemon(t, "127.0.0.1:0")
	a := mail.MustParseAddress("alice@adm.example")
	if _, err := d.Node().Engine().SubmitSync(mail.NewMessage(a, a, "self note", "b")); err != nil {
		t.Fatal(err)
	}

	client := &http.Client{Timeout: 5 * time.Second}
	get := func(path string, wantCode int) string {
		t.Helper()
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
	if d := adminDaemon(t, ""); d.MetricsAddr() != nil {
		t.Fatalf("admin listener bound at %v without MetricsAddr", d.MetricsAddr())
	}
}
