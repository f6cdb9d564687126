package mempool

import (
	"sync"
	"sync/atomic"
	"testing"

	"zmail/internal/mail"
)

func msg(n byte) *mail.Message {
	m := &mail.Message{Body: "x"}
	m.SetHeader(mail.HeaderMsgID, string([]byte{'m', n}))
	return m
}

func TestQueueCommitsEverything(t *testing.T) {
	var mu sync.Mutex
	got := make(map[string]bool)
	q := Start(Config{
		Depth:   64,
		Workers: 3,
		Commit: func(m *mail.Message) {
			mu.Lock()
			got[m.ID()] = true
			mu.Unlock()
		},
	})
	for i := 0; i < 50; i++ {
		if !q.Offer(msg(byte(i))) {
			t.Fatalf("offer %d rejected with capacity to spare", i)
		}
	}
	q.Flush()
	mu.Lock()
	n := len(got)
	mu.Unlock()
	if n != 50 {
		t.Fatalf("committed %d messages, want 50", n)
	}
	st := q.Stats()
	if st.Enqueued != 50 || st.Committed != 50 || st.Rejected != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Batches == 0 {
		t.Fatal("no drain batches recorded")
	}
	q.Stop()
}

func TestQueueFullRejects(t *testing.T) {
	release := make(chan struct{})
	q := Start(Config{
		Depth:   2,
		Workers: 1,
		Commit:  func(*mail.Message) { <-release },
	})
	defer func() { close(release); q.Stop() }()
	// With the single worker blocked on the first commit, the buffer
	// holds at most Depth more; further offers must reject.
	rejected := 0
	for i := 0; i < 10; i++ {
		if !q.Offer(msg(byte(i))) {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("no offer rejected with a full depth-2 queue")
	}
	if st := q.Stats(); st.Rejected != int64(rejected) {
		t.Fatalf("stats.Rejected = %d, want %d", st.Rejected, rejected)
	}
}

func TestStopDrainsThenRejects(t *testing.T) {
	var committed atomic.Int64
	q := Start(Config{
		Depth:   32,
		Workers: 2,
		Commit:  func(*mail.Message) { committed.Add(1) },
	})
	for i := 0; i < 20; i++ {
		if !q.Offer(msg(byte(i))) {
			t.Fatalf("offer %d rejected", i)
		}
	}
	q.Stop()
	if got := committed.Load(); got != 20 {
		t.Fatalf("Stop drained %d messages, want 20", got)
	}
	if q.Offer(msg(99)) {
		t.Fatal("Offer accepted after Stop")
	}
	q.Stop() // idempotent
}

func TestSingleWorkerCommitsInOfferOrder(t *testing.T) {
	// A depth-3 ring offered 10 messages two at a time wraps round
	// more than once; one worker must commit them in offer order.
	var order []string
	q := Start(Config{Depth: 3, Workers: 1, Commit: func(m *mail.Message) { order = append(order, m.ID()) }})
	for i := 0; i < 10; i += 2 {
		for j := i; j < i+2; j++ {
			if !q.Offer(msg(byte(j))) {
				t.Fatalf("offer %d rejected", j)
			}
		}
		q.Flush()
	}
	q.Stop()
	for i, id := range order {
		if id != string([]byte{'m', byte(i)}) {
			t.Fatalf("commit order %q, want offer order", order)
		}
	}
	if len(order) != 10 {
		t.Fatalf("committed %d, want 10", len(order))
	}
}
