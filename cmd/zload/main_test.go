package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zmail/internal/load"
)

func TestZloadFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-rate", "0"},
		{"-duration", "0s"},
		{"-targets", "127.0.0.1:1"}, // no -domains/-users
		{"-targets", "127.0.0.1:1", "-domains", "a.test,b.test"}, // arity mismatch
		{"-domains", "a.test"},                                      // external flag without -targets
		{"-isps", "2", "stray-positional"},                          // stray arg
		{"-targets", "127.0.0.1:1", "-domains", "a.test", "-users"}, // missing value
	}
	for _, args := range cases {
		if err := run(args, os.Stdout); err == nil {
			t.Errorf("run(%v) accepted a bad invocation", args)
		}
	}
	err := run([]string{"-targets", "127.0.0.1:1"}, os.Stdout)
	if err == nil || !strings.HasPrefix(err.Error(), "usage:") {
		t.Fatalf("validation error %v does not carry a usage message", err)
	}
}

// TestZloadSelfBoot runs the whole binary path: self-boot a two-ISP,
// two-region federation, drive a short open-loop run, and check the
// JSON report lands with plausible numbers and the server-side scrape.
func TestZloadSelfBoot(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.json")
	err := run([]string{
		"-isps", "2", "-regions", "2", "-users-per-isp", "4",
		"-rate", "100", "-duration", "700ms", "-workers", "4",
		"-zipf-s", "1.3", "-list-frac", "0.2", "-list-size", "3",
		"-seed", "7", "-json", out,
	}, os.Stdout)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep load.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, raw)
	}
	if rep.Sent == 0 || rep.Errors != 0 {
		t.Fatalf("self-boot run: %+v", rep)
	}
	if rep.Server == nil || rep.Server.Endpoints != 5 {
		t.Fatalf("want 5 scraped endpoints (2 ISPs + 2 leaves + root), got %+v", rep.Server)
	}
	if rep.Server.Submitted < float64(rep.Sent) {
		t.Fatalf("server submitted %v < client sent %d", rep.Server.Submitted, rep.Sent)
	}
}
