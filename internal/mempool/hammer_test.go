package mempool

import (
	"testing"

	"zmail/internal/hammer"
	"zmail/internal/mail"
)

// TestQueueHammer calls every exported read of a Queue while one
// goroutine offers past the depth bound, flushes, and finally stops
// the queue, with two workers committing throughout. Under -race it is
// the check that every read takes q.mu or an atomic.
func TestQueueHammer(t *testing.T) {
	const rounds = 200
	q := Start(Config{Depth: 8, Workers: 2, Batch: 4, StripeOf: func(m *mail.Message) int { return len(m.Body) % 3 }, Commit: func(*mail.Message) {}})
	reads := map[string]func(){
		"Len":   func() { _ = q.Len() },
		"Stats": func() { _ = q.Stats() },
	}
	hammer.Run(t, rounds, func(round int) {
		for i := range 12 {
			q.Offer(msg(byte(i)))
		}
		q.Flush()
		if round == rounds-1 {
			q.Stop()
		}
	}, hammer.Target{V: q, Reads: reads, Writers: []string{"Flush", "Offer", "Stop"}})
	q.Stop()
	if st := q.Stats(); st.Committed == 0 || st.Rejected == 0 {
		t.Fatalf("stats = %+v: the drive must commit and hit the depth bound", st)
	}
}
