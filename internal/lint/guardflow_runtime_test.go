package lint

import (
	"os/exec"
	"strings"
	"testing"
)

// TestGuardflowBadShapeRacesAtRuntime is the runtime twin of the
// guardflow static pass: the static pass
// proves the unguarded-counter shape wrong on every schedule; this
// test runs that exact shape (testdata/guardflow/runtime mirrors the
// bad fixture's Deposit/Peek pair) under the race detector and
// requires the detector to catch it on a sampled schedule. A pass
// regression that stops flagging the shape and a fixture drift that
// makes the shape race-free both surface here.
func TestGuardflowBadShapeRacesAtRuntime(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a -race subprocess; run without -short")
	}
	out, err := exec.Command("go", "run", "-race", "./testdata/guardflow/runtime").CombinedOutput()
	text := string(out)
	if strings.Contains(text, "-race is only supported") || strings.Contains(text, "race is not supported") {
		t.Skipf("race detector unavailable on this toolchain: %s", firstLine(text))
	}
	if err == nil {
		t.Fatalf("unguarded-counter program exited clean under -race; the bad-fixture shape must race:\n%s", text)
	}
	if !strings.Contains(text, "WARNING: DATA RACE") {
		t.Fatalf("expected a detected data race, got %v:\n%s", err, text)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
