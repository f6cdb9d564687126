package main

import (
	"strings"
	"testing"
)

func TestZbankFlagValidation(t *testing.T) {
	if err := run([]string{"-insecure"}); err == nil {
		t.Error("missing -isps accepted")
	}
	if err := run([]string{"-isps", "2"}); err == nil {
		t.Error("missing key material accepted (neither -key nor -insecure)")
	}
	if err := run([]string{"-isps", "2", "-key", "/nonexistent/bank.key"}); err == nil {
		t.Error("unreadable key file accepted")
	}
	if err := run([]string{"-isps", "2", "-insecure", "-enroll", "garbage"}); err == nil {
		t.Error("malformed -enroll accepted")
	}
	if err := run([]string{"-isps", "2", "-insecure", "-enroll", "x=file.pub"}); err == nil {
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

// TestZbankMetricsBootFailure: a well-formed but unbindable metrics
// address is a boot failure, not a usage error, and still exits
// non-zero before the serve loop.
func TestZbankMetricsBootFailure(t *testing.T) {
	err := run([]string{"-isps", "2", "-insecure",
		"-listen", "127.0.0.1:0", "-metrics", "203.0.113.1:0"})
	if err == nil {
		t.Fatal("unbindable -metrics address accepted")
	}
	if strings.HasPrefix(err.Error(), "usage:") {
		t.Fatalf("bind failure %q misreported as a usage error", err)
	}
	err = run([]string{"-isps", "2", "-insecure", "-assign", "0,1",
		"-listen", "127.0.0.1:0", "-metrics", "203.0.113.1:0"})
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
