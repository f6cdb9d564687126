package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestSelfCleanTree is `make lint` end to end: the driver over the
// whole module must exit 0 with no output. This is the gate the
// Makefile and CI wire in; if a lock-order or dropped-error regression
// lands, this test names the file and line. It is the tree's one
// whole-module lint run in tier-1, and it goes through the CLI's flag
// path.
func TestSelfCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow; run without -short")
	}
	var stdout, stderr strings.Builder
	code := run(nil, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("zlint over the tree exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("expected no findings, got:\n%s", stdout.String())
	}
}

// TestPassSubset runs a single pass by name over the lockorder fixture
// corpus, which carries four lockorder findings and no errdrop ones.
func TestPassSubset(t *testing.T) {
	const dir = "../../internal/lint/testdata/lockorder"
	for _, c := range []struct{ pass, expect string }{{"errdrop", "0"}, {"lockorder", "4"}} {
		var stdout, stderr strings.Builder
		if code := run([]string{"-pass", c.pass, "-testdata", dir, "-expect", c.expect}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s-only run exited %d: %s%s", c.pass, code, stdout.String(), stderr.String())
		}
	}
}

// TestUnknownPassIsUsageError pins exit code 2 for bad invocations.
func TestUnknownPassIsUsageError(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-pass", "nosuchpass"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown pass exited %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "nosuchpass") {
		t.Errorf("usage error should name the bad pass, got: %s", stderr.String())
	}
}

// TestVerboseTimings pins the -v per-pass wall-time report; in
// -testdata mode it sums each pass over the fixtures.
func TestVerboseTimings(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-v", "-pass", "errdrop,lockorder", "-testdata", "../../internal/lint/testdata/lockorder"}, &stdout, &stderr); code != 0 {
		t.Fatalf("verbose run exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	for _, name := range []string{"errdrop", "lockorder"} {
		if !strings.Contains(stderr.String(), "zlint: "+name) {
			t.Errorf("-v output missing wall time for %s:\n%s", name, stderr.String())
		}
	}
}

// TestListPasses pins the two pass names: suppression directives and
// CI annotations refer to passes by name.
func TestListPasses(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	names := []string{"lockorder", "errdrop"}
	for _, name := range names {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing pass %s:\n%s", name, stdout.String())
		}
	}
	if got := strings.Count(strings.TrimSpace(stdout.String()), "\n") + 1; got != len(names) {
		t.Errorf("-list shows %d passes, want %d:\n%s", got, len(names), stdout.String())
	}
}

// TestUnknownFormatIsUsageError pins exit code 2 for a bad -format.
func TestUnknownFormatIsUsageError(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-format", "xml"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown format exited %d, want 2", code)
	}
}

// TestTestdataSweep runs the self-test mode over one fixture cluster
// and checks the JSON and github output shapes plus the -expect pin.
func TestTestdataSweep(t *testing.T) {
	const dir = "../../internal/lint/testdata/lockorder"

	// The lockorder cluster carries exactly 4 findings, all in bad;
	// -expect holds it there.
	var stdout, stderr strings.Builder
	if code := run([]string{"-testdata", dir, "-expect", "4", "-format", "json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("lockorder sweep exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 JSON findings, got %d:\n%s", len(lines), stdout.String())
	}
	for _, line := range lines {
		var f struct {
			File string `json:"file"`
			Line int    `json:"line"`
			Pass string `json:"pass"`
			Msg  string `json:"msg"`
		}
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("finding is not one JSON object per line: %v\n%s", err, line)
		}
		if f.Pass != "lockorder" || f.File == "" || f.Line == 0 || f.Msg == "" {
			t.Errorf("JSON finding incomplete: %+v", f)
		}
	}

	// A wrong pin must fail the run.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-testdata", dir, "-expect", "3"}, &stdout, &stderr); code != 1 {
		t.Fatalf("wrong -expect pin exited %d, want 1", code)
	}

	// github format emits workflow-command annotations.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-testdata", dir, "-format", "github"}, &stdout, &stderr); code != 0 {
		t.Fatalf("github-format sweep exited %d", code)
	}
	if !strings.Contains(stdout.String(), "::error file=") || !strings.Contains(stdout.String(), ",line=") {
		t.Errorf("github format should emit ::error annotations, got:\n%s", stdout.String())
	}
}

// TestErrdropGithubAnnotations confirms findings flow through the CI
// annotation path: the errdrop bad corpus under -format github must
// emit one ::error line per finding, titled with the pass name.
func TestErrdropGithubAnnotations(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-testdata", "../../internal/lint/testdata/errdrop/bad", "-format", "github", "-expect", "7"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("errdrop bad sweep exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if n := strings.Count(stdout.String(), "title=zlint errdrop::"); n != 7 {
		t.Errorf("github format should title annotations with the pass, got:\n%s", stdout.String())
	}
}

// TestFixtureGolden pins the whole fixture sweep, not just its count:
// stdout must match testdata/fixtures.golden byte for byte, so a
// finding that moves, changes pass, or rewords its message fails here
// even when the total stays at the Makefile's pinned figure. After an
// intentional analyzer or corpus change, regenerate it from this
// directory with
//
//	go run . -testdata ../../internal/lint/testdata > testdata/fixtures.golden
func TestFixtureGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/fixtures.golden")
	if err != nil {
		t.Fatalf("read golden file: %v", err)
	}
	var stdout, stderr strings.Builder
	if code := run([]string{"-testdata", "../../internal/lint/testdata"}, &stdout, &stderr); code != 0 {
		t.Fatalf("fixture sweep exited %d\nstderr:\n%s", code, stderr.String())
	}
	got := stdout.String()
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("fixture findings diverge from testdata/fixtures.golden at line %d:\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("fixture sweep printed %d lines, testdata/fixtures.golden has %d", len(gotLines), len(wantLines))
}
