// Package mempool provides the bounded admission queue that decouples
// SMTP accept latency from ledger commit (ROADMAP "Hot-path batching
// and async settlement").
//
// The queue sits between admission policy and ledger commit: the ISP
// engine admits a message under its per-user policy (balance, daily
// limit — the paper's §5 zombie control), reserves the user's pending
// slot, and offers the message here. Each drain worker pops the oldest
// message and hands it to the engine's commit callback outside the
// queue's own lock, one message per drain cycle.
//
// The queue is deliberately volatile: admitted-but-uncommitted
// messages charge nobody (the debit happens at commit), so a crash
// loses only unacknowledged work and e-penny conservation is
// unaffected. That is why none of this state appears in the engine's
// WAL or snapshots.
//
// The package deliberately knows nothing about the engine: Commit is
// an injected closure, so no ledger code lives in the drain loop.
package mempool

import (
	"sync"
	"sync/atomic"

	"zmail/internal/mail"
)

// Config parameterizes a Queue.
type Config struct {
	// Depth bounds the number of admitted-but-uncommitted messages.
	// Offer rejects (backpressure) once the bound is reached. Default
	// 1024.
	Depth int
	// Workers is the number of drain goroutines. Default 2.
	Workers int
	// Commit commits one admitted message to the ledger. Required. It
	// is always invoked from a drain worker with no queue lock held,
	// one message at a time.
	Commit func(*mail.Message)
}

// Stats is a point-in-time snapshot of queue counters.
type Stats struct {
	Enqueued  int64 // messages accepted by Offer
	Rejected  int64 // messages refused by Offer (queue full or stopped)
	Committed int64 // messages handed to Commit
	Batches   int64 // drain cycles executed: one per committed message
}

// Queue is a bounded FIFO admission queue drained by a fixed pool of
// workers. Create with Start; stop with Stop (which drains first).
type Queue struct {
	cfg Config

	mu   sync.Mutex
	cond *sync.Cond
	// buf is a ring of Depth slots holding, from head, the n messages
	// admitted and not yet popped by a worker, oldest first.
	buf     []*mail.Message
	head, n int
	// inflight counts messages popped by workers whose Commit has not
	// returned yet; Flush waits for n and inflight to both reach zero.
	inflight int
	stopped  bool

	wg sync.WaitGroup

	enqueued  atomic.Int64
	rejected  atomic.Int64
	committed atomic.Int64
}

// Start builds a queue and launches its drain workers.
func Start(cfg Config) *Queue {
	if cfg.Depth <= 0 {
		cfg.Depth = 1024
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Commit == nil {
		panic("mempool: Config.Commit is required")
	}
	q := &Queue{cfg: cfg}
	q.cond = sync.NewCond(&q.mu)
	q.buf = make([]*mail.Message, cfg.Depth)
	q.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go q.worker()
	}
	return q
}

// Offer admits one message into the queue. It returns false — and the
// caller must surface backpressure — when the queue is full or
// stopped; the message is then NOT owned by the queue.
func (q *Queue) Offer(msg *mail.Message) bool {
	q.mu.Lock()
	if q.stopped || q.n == len(q.buf) {
		q.mu.Unlock()
		q.rejected.Add(1)
		return false
	}
	q.buf[(q.head+q.n)%len(q.buf)] = msg
	q.n++
	q.mu.Unlock()
	q.enqueued.Add(1)
	q.cond.Signal()
	return true
}

// worker is one drain goroutine: pop the oldest message, commit it
// outside the lock.
func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		q.mu.Lock()
		for q.n == 0 && !q.stopped {
			q.cond.Wait()
		}
		if q.n == 0 {
			// stopped and drained: exit.
			q.mu.Unlock()
			return
		}
		msg := q.buf[q.head]
		q.buf[q.head] = nil
		q.head = (q.head + 1) % len(q.buf)
		q.n--
		q.inflight++
		q.mu.Unlock()

		q.cfg.Commit(msg)
		q.committed.Add(1)

		q.mu.Lock()
		q.inflight--
		q.mu.Unlock()
		// Wake Flush waiters (and idle workers, harmlessly).
		q.cond.Broadcast()
	}
}

// Flush blocks until every message admitted before the call has been
// committed (queue empty and no commits in flight).
func (q *Queue) Flush() {
	q.mu.Lock()
	for q.n > 0 || q.inflight > 0 {
		q.cond.Wait()
	}
	q.mu.Unlock()
}

// Stop drains the queue — every already-admitted message still
// commits — then joins the workers. Offer rejects from the moment Stop
// begins. Idempotent.
func (q *Queue) Stop() {
	q.mu.Lock()
	q.stopped = true
	q.mu.Unlock()
	q.cond.Broadcast()
	q.wg.Wait()
}

// Len reports the number of admitted messages not yet popped by a
// worker.
func (q *Queue) Len() int {
	q.mu.Lock()
	n := q.n
	q.mu.Unlock()
	return n
}

// Stats snapshots the queue counters.
func (q *Queue) Stats() Stats {
	committed := q.committed.Load()
	return Stats{
		Enqueued:  q.enqueued.Load(),
		Rejected:  q.rejected.Load(),
		Committed: committed,
		Batches:   committed,
	}
}
