package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

func TestIDsOrdered(t *testing.T) {
	ids := IDs()
	if len(ids) != 20 {
		t.Fatalf("experiments = %d, want 20", len(ids))
	}
	if ids[0] != "E1" || ids[9] != "E10" || ids[19] != "E20" {
		t.Fatalf("order = %v", ids)
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("E99", 1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestAllExperimentsPass is the headline integration test: every
// paper-claim experiment must pass, on a seed different from the CLI
// default to guard against seed-tuned results. The rendering must match
// testdata/seed7.golden (`zsim -seed 7`) byte for byte, so output that
// depends on map order or wall time fails here too, not only on the
// seed-1 paths the zsim golden pins. `make golden` regenerates it.
func TestAllExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite is slow (RSA, TCP, model checking)")
	}
	want, err := os.ReadFile("testdata/seed7.golden")
	if err != nil {
		t.Fatalf("read golden file: %v", err)
	}
	results, err := RunAll(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 20 {
		t.Fatalf("ran %d experiments", len(results))
	}
	var b strings.Builder
	passed := 0
	for _, r := range results {
		fmt.Fprintln(&b, r)
		if r.Pass {
			passed++
		} else {
			t.Errorf("%s FAILED:\n%s", r.ID, r)
		}
		if r.Table == nil || !strings.Contains(r.Table.String(), "---") {
			t.Errorf("%s produced no table", r.ID)
		}
		if r.Title == "" {
			t.Errorf("%s has no title", r.ID)
		}
		if Title(r.ID) != r.Title {
			t.Errorf("%s static title %q != result title %q", r.ID, Title(r.ID), r.Title)
		}
	}
	fmt.Fprintf(&b, "%d/%d experiments pass\n", passed, len(results))
	if got := b.String(); got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("seed 7 output diverges from testdata/seed7.golden at line %d:\n got: %q\nwant: %q", i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("seed 7 output has %d lines, testdata/seed7.golden has %d", len(gotLines), len(wantLines))
	}
}

// TestSeedStability: a couple more seeds on the cheap, seed-sensitive
// experiments, to confirm the claims are not one-seed flukes.
func TestSeedStability(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	for _, id := range []string{"E1", "E3", "E4", "E8", "E10", "E17"} {
		for _, seed := range []int64{2, 3, 11} {
			res, err := Run(id, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", id, seed, err)
			}
			if !res.Pass {
				t.Errorf("%s fails at seed %d:\n%s", id, seed, res)
			}
		}
	}
}

func TestResultString(t *testing.T) {
	res, err := Run("E2", 1)
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	if !strings.Contains(s, "E2") || !strings.Contains(s, "PASS") {
		t.Fatalf("render = %q", s)
	}
}
