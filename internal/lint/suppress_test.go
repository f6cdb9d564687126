package lint

import (
	"go/token"
	"testing"
)

func supDiag(file string, line int, pass string) Diagnostic {
	return Diagnostic{Pos: token.Position{Filename: file, Line: line}, Pass: pass}
}

// TestCoversCommaForm pins the comma-separated pass list: one
// directive entry silences each named pass on its line and the line
// below, and nothing else.
func TestCoversCommaForm(t *testing.T) {
	set := suppressionSet{byFileLine: map[string][]suppression{
		"a.go": {{
			passes: map[string]bool{"guardflow": true, "moneyflow": true},
			line:   10,
			file:   "a.go",
		}},
	}}

	for _, tc := range []struct {
		d    Diagnostic
		want bool
	}{
		{supDiag("a.go", 10, "guardflow"), true},  // same line
		{supDiag("a.go", 11, "guardflow"), true},  // line below
		{supDiag("a.go", 11, "moneyflow"), true},  // second pass of the comma list
		{supDiag("a.go", 11, "lockorder"), false}, // pass not named
		{supDiag("a.go", 12, "guardflow"), false}, // too far down
		{supDiag("a.go", 9, "guardflow"), false},  // directive covers down, not up
		{supDiag("b.go", 10, "guardflow"), false}, // other file
	} {
		if got := set.covers(tc.d); got != tc.want {
			t.Errorf("covers(%s:%d %s) = %v, want %v", tc.d.Pos.Filename, tc.d.Pos.Line, tc.d.Pass, got, tc.want)
		}
	}
}

// TestSuppressionNamesFlowPasses asserts the directive parser accepts
// the flow-tier pass names (they postdate the directive syntax) and
// still rejects unknown ones in a comma list.
func TestSuppressionNamesFlowPasses(t *testing.T) {
	valid := make(map[string]bool)
	for _, name := range PassNames() {
		valid[name] = true
	}
	for _, name := range []string{"moneyflow", "guardflow"} {
		if !valid[name] {
			t.Errorf("PassNames() must include %q for //zlint:ignore validation", name)
		}
	}

	pkg := loadFixture(t, "zlint/comma")
	set, bad := collectSuppressions(pkg, valid)
	if len(bad) != 0 {
		t.Fatalf("comma fixture directives must parse clean, got %v", bad)
	}
	var sups []suppression
	for _, s := range set.byFileLine {
		sups = append(sups, s...)
	}
	if len(sups) != 1 {
		t.Fatalf("want 1 parsed directive, got %d", len(sups))
	}
	if !sups[0].passes["moneyflow"] || !sups[0].passes["guardflow"] {
		t.Errorf("comma directive must name both passes, got %v", sups[0].passes)
	}
}
