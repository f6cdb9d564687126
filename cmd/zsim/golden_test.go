package main

import (
	"os"
	"strings"
	"testing"
)

// TestGoldenOutput pins full-suite determinism: a default seeded run
// must reproduce the committed zsim_output.txt byte for byte. Any
// intentional change to an experiment regenerates the file with
// `make golden` (or `go run ./cmd/zsim > zsim_output.txt`).
func TestGoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite")
	}
	want, err := os.ReadFile("../../zsim_output.txt")
	if err != nil {
		t.Fatalf("read golden file: %v", err)
	}
	var out strings.Builder
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	n := len(gotLines)
	if len(wantLines) < n {
		n = len(wantLines)
	}
	for i := 0; i < n; i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("output diverges from zsim_output.txt at line %d:\n got: %q\nwant: %q\n"+
				"(regenerate with `make golden` if the change is intentional)",
				i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("output length differs: got %d lines, golden has %d "+
		"(regenerate with `make golden` if the change is intentional)",
		len(gotLines), len(wantLines))
}
