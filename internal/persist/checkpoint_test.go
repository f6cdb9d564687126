package persist

import (
	"errors"
	"testing"
	"time"

	"zmail/internal/clock"
)

// TestStartCheckpoints drives the schedule on a virtual clock: one
// checkpoint per interval, a failure reaches onErr without stopping
// the schedule, and stop cancels every later run.
func TestStartCheckpoints(t *testing.T) {
	const interval = 5 * time.Minute
	clk := clock.NewVirtual(time.Unix(1_100_000_000, 0))
	boom := errors.New("disk full")
	var runs int
	var fail bool
	var errs []error
	stop := StartCheckpoints(clk, func() error {
		runs++
		if fail {
			return boom
		}
		return nil
	}, interval, func(err error) { errs = append(errs, err) })

	clk.Advance(interval - time.Second)
	if runs != 0 {
		t.Fatalf("%d checkpoints before the first interval elapsed", runs)
	}
	clk.Advance(time.Second)
	if runs != 1 {
		t.Fatalf("%d checkpoints after one interval, want 1", runs)
	}
	clk.Advance(3 * interval)
	if runs != 4 {
		t.Fatalf("%d checkpoints after four intervals, want 4", runs)
	}

	fail = true
	clk.Advance(interval)
	if runs != 5 || len(errs) != 1 || !errors.Is(errs[0], boom) {
		t.Fatalf("failing checkpoint: runs=%d errs=%v, want 5 runs and [%v]", runs, errs, boom)
	}
	fail = false
	clk.Advance(interval)
	if runs != 6 || len(errs) != 1 {
		t.Fatalf("schedule after a failure: runs=%d errs=%v, want 6 runs and one error", runs, errs)
	}

	stop()
	clk.Advance(10 * interval)
	if runs != 6 {
		t.Fatalf("%d checkpoints after stop, want 6", runs)
	}
	if n := clk.PendingTimers(); n != 0 {
		t.Fatalf("%d timers still pending after stop", n)
	}
}
