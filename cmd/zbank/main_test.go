package main

import (
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"zmail/internal/wire"
)

func TestZbankFlagValidation(t *testing.T) {
	if err := run([]string{"-insecure"}, nil); err == nil {
		t.Error("missing -isps accepted")
	}
	if err := run([]string{"-isps", "2"}, nil); err == nil {
		t.Error("missing key material accepted (neither -key nor -insecure)")
	}
	if err := run([]string{"-isps", "2", "-key", "/nonexistent/bank.key"}, nil); err == nil {
		t.Error("unreadable key file accepted")
	}
	if err := run([]string{"-isps", "2", "-insecure", "-enroll", "garbage"}, nil); err == nil {
		t.Error("malformed -enroll accepted")
	}
	if err := run([]string{"-isps", "2", "-insecure", "-enroll", "x=file.pub"}, nil); err == nil {
		t.Error("non-numeric -enroll index accepted")
	}
}

// TestZbankUsageFailures pins that configuration mistakes die before
// any listener binds, with a usage-prefixed error (non-zero exit via
// main).
func TestZbankUsageFailures(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"listen without port", []string{"-isps", "2", "-insecure", "-listen", "nonsense"}},
		{"metrics without port", []string{"-isps", "2", "-insecure", "-metrics", "127.0.0.1"}},
		{"assign with serve", []string{"-isps", "2", "-insecure", "-assign", "0,1", "-serve", "0"}},
		{"leaf without serve/root", []string{"-isps", "2", "-insecure", "-root", "127.0.0.1:7900"}},
		{"leaf serve out of range", []string{"-isps", "2", "-insecure",
			"-serve", "0,7", "-root", "127.0.0.1:7900"}},
		{"assign with root", []string{"-isps", "2", "-insecure", "-assign", "0,1", "-root", "127.0.0.1:7900"}},
		{"root assign arity", []string{"-isps", "4", "-insecure",
			"-assign", "0,1", "-listen", "127.0.0.1:0"}},
		{"root with wal", []string{"-isps", "2", "-insecure",
			"-assign", "0,1", "-wal", t.TempDir()}},
		{"root with settle", []string{"-isps", "2", "-insecure", "-assign", "0,1", "-settle"}},
		{"leaf with settle", []string{"-isps", "2", "-insecure",
			"-serve", "0", "-root", "127.0.0.1:7900", "-settle"}},
		{"central with leaf flags", []string{"-isps", "2", "-insecure", "-serve", "0"}},
		{"missing key material", []string{"-isps", "2"}},
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

// TestZbankMetricsBootFailure: a well-formed but unbindable metrics
// address is a boot failure, not a usage error, and still exits
// non-zero before the serve loop.
func TestZbankMetricsBootFailure(t *testing.T) {
	err := run([]string{"-isps", "2", "-insecure",
		"-listen", "127.0.0.1:0", "-metrics", "203.0.113.1:0"}, nil)
	if err == nil {
		t.Fatal("unbindable -metrics address accepted")
	}
	if strings.HasPrefix(err.Error(), "usage:") {
		t.Fatalf("bind failure %q misreported as a usage error", err)
	}
	err = run([]string{"-isps", "2", "-insecure", "-assign", "0,1",
		"-listen", "127.0.0.1:0", "-metrics", "203.0.113.1:0"}, nil)
	if err == nil {
		t.Fatal("root: unbindable -metrics address accepted")
	}
	if strings.HasPrefix(err.Error(), "usage:") {
		t.Fatalf("root bind failure %q misreported as a usage error", err)
	}
}

func TestEnrollFlagParsing(t *testing.T) {
	e := enrollFlag{}
	if err := e.Set("0=isp0.pub"); err != nil {
		t.Fatal(err)
	}
	if err := e.Set("3=isp3.pub"); err != nil {
		t.Fatal(err)
	}
	if e[0] != "isp0.pub" || e[3] != "isp3.pub" {
		t.Fatalf("enrollments = %v", e)
	}
	if err := e.Set("noequals"); err == nil {
		t.Error("missing '=' accepted")
	}
	if e.String() == "" {
		t.Error("String() empty")
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

// startRun runs the daemon in the background and returns its stop
// channel and its result once addr accepts connections.
func startRun(t *testing.T, args []string, addr string) (chan<- os.Signal, <-chan error) {
	t.Helper()
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- run(args, stop) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			_ = conn.Close()
			return stop, done
		}
		select {
		case err := <-done:
			t.Fatalf("run exited before listening: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("nothing listens on %s: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stopRun stops the daemon and requires run to return within two
// seconds and to have released addrs.
func stopRun(t *testing.T, stop chan<- os.Signal, done <-chan error, addrs ...string) {
	t.Helper()
	stop <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("run did not return within 2s of stop")
	}
	for _, addr := range addrs {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatalf("the stopped daemon still holds %s: %v", addr, err)
		}
		_ = ln.Close()
	}
}

// TestZbankStopReleasesListener: after stop, run returns and the -listen
// and -metrics ports can be bound again, in central and in root mode.
func TestZbankStopReleasesListener(t *testing.T) {
	for name, mode := range map[string][]string{
		"central": {"-isps", "1"},
		"root":    {"-isps", "2", "-assign", "0,1"},
	} {
		t.Run(name, func(t *testing.T) {
			addr, metrics := freeAddr(t), freeAddr(t)
			stop, done := startRun(t, append(mode, "-insecure", "-listen", addr, "-metrics", metrics), addr)
			stopRun(t, stop, done, addr, metrics)
		})
	}
}

// TestZbankStopDuringStalledAudit: a SIGTERM while an audit round waits
// on an ISP that never answers shuts the bank down at once.
func TestZbankStopDuringStalledAudit(t *testing.T) {
	addr := freeAddr(t)
	stop, done := startRun(t, []string{"-isps", "1", "-insecure", "-listen", addr, "-audit-every", "20ms"}, addr)
	// A silent ISP: it registers and reads the round's request, so the
	// round has started, and never replies.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteEnvelope(conn, &wire.Envelope{Kind: wire.KindHello, From: 0}); err != nil {
		t.Fatal(err)
	}
	if env, err := wire.ReadEnvelope(conn); err != nil || env.Kind != wire.KindRequest {
		t.Fatalf("read the audit request: %v, %v", env, err)
	}
	stopRun(t, stop, done, addr)
}
