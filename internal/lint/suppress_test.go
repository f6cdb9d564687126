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
			passes: map[string]bool{"lockorder": true, "errdrop": true},
			line:   10,
			file:   "a.go",
		}},
	}}

	for _, tc := range []struct {
		d    Diagnostic
		want bool
	}{
		{supDiag("a.go", 10, "lockorder"), true},  // same line
		{supDiag("a.go", 11, "lockorder"), true},  // line below
		{supDiag("a.go", 11, "errdrop"), true},    // second pass of the comma list
		{supDiag("a.go", 11, "zlint"), false},     // pass not named
		{supDiag("a.go", 12, "lockorder"), false}, // too far down
		{supDiag("a.go", 9, "lockorder"), false},  // directive covers down, not up
		{supDiag("b.go", 10, "lockorder"), false}, // other file
	} {
		if got := set.covers(tc.d); got != tc.want {
			t.Errorf("covers(%s:%d %s) = %v, want %v", tc.d.Pos.Filename, tc.d.Pos.Line, tc.d.Pass, got, tc.want)
		}
	}
}

// TestSuppressionNamesFlowPasses asserts the directive parser accepts
// the passes' names, in a comma list too.
func TestSuppressionNamesFlowPasses(t *testing.T) {
	valid := make(map[string]bool)
	for _, name := range PassNames() {
		valid[name] = true
	}
	for _, name := range []string{"lockorder", "errdrop"} {
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
	if !sups[0].passes["lockorder"] || !sups[0].passes["errdrop"] {
		t.Errorf("comma directive must name both passes, got %v", sups[0].passes)
	}
}
