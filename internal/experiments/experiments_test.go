package experiments

import (
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
// default to guard against seed-tuned results. The suite runs twice and
// the two renderings must be byte-identical, so output that depends on
// map order or wall time fails here too (the golden file only pins
// seed 1).
func TestAllExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite is slow (RSA, TCP, model checking)")
	}
	render := func(results []*Result) string {
		var b strings.Builder
		for _, r := range results {
			b.WriteString(r.String())
		}
		return b.String()
	}
	results, err := RunAll(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 20 {
		t.Fatalf("ran %d experiments", len(results))
	}
	for _, r := range results {
		if !r.Pass {
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
	again, err := RunAll(7)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := render(results), render(again); a != b {
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		t.Fatalf("same seed, different output near byte %d:\n%q\nvs\n%q", i, snippet(a, i), snippet(b, i))
	}
}

// snippet quotes s around byte i.
func snippet(s string, i int) string {
	return s[max(0, i-80):min(len(s), i+80)]
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
