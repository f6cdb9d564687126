package persist

import (
	"sync"
	"time"

	"zmail/internal/clock"
)

// StartCheckpoints runs checkpoint every interval, on the given clock;
// both daemons (core.StartISPDaemon, core.StartBankDaemon) run it on
// the wall clock. onErr (optional)
// observes checkpoint failures; a failed checkpoint never stops the
// schedule. The returned stop function cancels future checkpoints; it
// does not interrupt one already running.
func StartCheckpoints(clk clock.Clock, checkpoint func() error, interval time.Duration, onErr func(error)) (stop func()) {
	var (
		mu      sync.Mutex
		timer   clock.Timer
		stopped bool
	)
	var arm func()
	arm = func() {
		mu.Lock()
		defer mu.Unlock()
		if stopped {
			return
		}
		timer = clk.AfterFunc(interval, func() {
			if err := checkpoint(); err != nil && onErr != nil {
				onErr(err)
			}
			arm()
		})
	}
	arm()
	return func() {
		mu.Lock()
		defer mu.Unlock()
		stopped = true
		if timer != nil {
			timer.Stop()
		}
	}
}
