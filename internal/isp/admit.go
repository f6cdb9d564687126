package isp

import (
	"errors"
	"fmt"

	"zmail/internal/mail"
	"zmail/internal/mempool"
)

// This file is the asynchronous half of the submit surface: Submit
// runs the per-user admission policy (balance, §5 daily limit) inline
// and hands admitted messages to a bounded mempool queue, so an SMTP
// DATA response costs one stripe lock and an enqueue instead of a full
// ledger commit. Drain workers (internal/mempool) call commitQueued,
// which routes each message through the legacy synchronous path.
//
// The queue is volatile by design: admitted-but-uncommitted messages
// have charged nobody (the e-penny debit happens at commit), so a
// crash loses only unacknowledged work and conservation is unaffected.
// The per-user reservation lives in user.pending, counted against the
// daily limit at admission so a queued burst cannot overshoot the cap.

// ErrQueueFull reports admission backpressure: the bounded queue is at
// depth (or stopped) and the caller should retry later or fail the
// SMTP transaction with a transient error.
var ErrQueueFull = errors.New("isp: admission queue full")

// Admission describes what Submit did with a message.
type Admission int

// Admission outcomes.
const (
	// AdmitQueued: the message passed admission and waits in the queue;
	// a drain worker will commit it.
	AdmitQueued Admission = iota + 1
	// AdmitCommitted: no queue is attached, so the message was committed
	// synchronously before Submit returned.
	AdmitCommitted
)

// String names the outcome.
func (a Admission) String() string {
	switch a {
	case AdmitQueued:
		return "queued"
	case AdmitCommitted:
		return "committed"
	default:
		return fmt.Sprintf("Admission(%d)", int(a))
	}
}

// QueueConfig sizes the admission queue; zero fields select the
// mempool defaults (depth 1024, 2 workers, batches of 32).
type QueueConfig struct {
	// Depth bounds admitted-but-uncommitted messages; Submit returns
	// ErrQueueFull beyond it.
	Depth int
	// Workers is the number of drain goroutines committing to the
	// ledger.
	Workers int
	// Batch is how many messages one worker pulls per drain cycle; each
	// batch is grouped by account stripe before committing.
	Batch int
}

// StartQueue attaches an admission queue and starts its drain workers.
// It is a no-op if a queue is already attached. Callers that attach a
// queue own its shutdown: StopQueue before discarding the engine.
func (e *Engine) StartQueue(qc QueueConfig) {
	q := mempool.Start(mempool.Config{
		Depth:   qc.Depth,
		Workers: qc.Workers,
		Batch:   qc.Batch,
		StripeOf: func(msg *mail.Message) int {
			return int(fnv1a32(msg.From.Local) & e.stripeMask)
		},
		Commit: e.commitQueued,
	})
	if !e.queue.CompareAndSwap(nil, q) {
		q.Stop()
	}
}

// StopQueue detaches the queue, drains every admitted message through
// commit, and joins the workers. No-op without a queue.
func (e *Engine) StopQueue() {
	if q := e.queue.Swap(nil); q != nil {
		q.Stop()
	}
}

// FlushQueue blocks until every message admitted before the call has
// committed. No-op without a queue.
func (e *Engine) FlushQueue() {
	if q := e.queue.Load(); q != nil {
		q.Flush()
	}
}

// QueueDepth reports the number of admitted messages awaiting commit.
func (e *Engine) QueueDepth() int {
	if q := e.queue.Load(); q != nil {
		return q.Len()
	}
	return 0
}

// QueueStats snapshots the queue counters (zero without a queue).
func (e *Engine) QueueStats() mempool.Stats {
	if q := e.queue.Load(); q != nil {
		return q.Stats()
	}
	return mempool.Stats{}
}

// Submit accepts a message from a local user (the SMTP submission
// path), applies the admission policy to its whole envelope, and —
// when a queue is attached — returns as soon as the message is
// admitted, leaving the ledger commit to the drain workers. For a
// message with N recipients the policy mirrors the paid-path checks,
// all or nothing, under one lock of the sender's stripe: the sender
// must exist and hold at least N e-pennies, and a non-ack message must
// fit N more under the daily limit counting messages already queued
// (sent + pending + N ≤ limit), with the first limit rejection of the
// day triggering the §5 zombie warning. An admitted message reserves
// N and is one queue entry. A full queue surfaces as ErrQueueFull
// backpressure.
//
// Without an attached queue Submit runs the same admission check and
// then commits synchronously (AdmitCommitted), so callers need not
// care how the engine was deployed.
//
// Admission is deliberately advisory: the commit path re-checks
// balance and limit authoritatively, so a race between admission and
// commit can only reject at commit (counted in Stats.QueueDropped),
// never over-charge.
func (e *Engine) Submit(msg *mail.Message) (Admission, error) {
	start := e.cfg.Clock.Now()
	if msg.From.Domain != e.cfg.Domain {
		return 0, fmt.Errorf("isp: sender %v is not a %s user", msg.From, e.cfg.Domain)
	}
	n := int64(len(msg.Recipients()))
	isAck := msg.Class() == mail.ClassAck
	var em emitQueue
	s := e.stripeFor(msg.From.Local)
	e.lockStripe(s)
	u, ok := s.users[msg.From.Local]
	if !ok {
		s.mu.Unlock()
		return 0, fmt.Errorf("%w: %q", ErrUnknownUser, msg.From.Local)
	}
	if int64(u.balance) < n {
		s.mu.Unlock()
		e.stats.balanceRejects.Add(1)
		return 0, ErrInsufficientBalance
	}
	if !isAck && u.sent+u.pending+n > u.limit {
		e.stats.limitRejects.Add(1)
		if !u.warnedToday {
			u.warnedToday = true
			e.walWarn(u.name)
			e.stats.zombieWarnings.Add(1)
			e.queueZombieWarning(&em, u.name, u.limit)
		}
		s.mu.Unlock()
		em.run()
		return 0, ErrLimitExceeded
	}
	q := e.queue.Load()
	if q == nil {
		s.mu.Unlock()
		if _, err := e.SubmitSync(msg); err != nil {
			return 0, err
		}
		return AdmitCommitted, nil
	}
	u.pending += n
	s.mu.Unlock()

	if !q.Offer(msg) {
		e.releasePending(msg.From.Local, n)
		e.stats.queueRejected.Add(1)
		return 0, ErrQueueFull
	}
	e.lat.admit.Observe(e.cfg.Clock.Now().Sub(start))
	return AdmitQueued, nil
}

// commitQueued commits one admitted message; it is the queue's drain
// callback, invoked from a worker goroutine with no engine lock held.
// The synchronous path re-checks balance and limit authoritatively; a
// message that passed admission but fails commit (drained balance, a
// racing synchronous sender) is dropped and counted.
func (e *Engine) commitQueued(msg *mail.Message) {
	if _, err := e.SubmitSync(msg); err != nil {
		e.stats.queueDropped.Add(1)
	}
	// Release the reservation only after the commit's own sent += N has
	// landed, so sent+pending never transiently undercounts and a
	// concurrent burst cannot slip past the limit.
	e.releasePending(msg.From.Local, int64(len(msg.Recipients())))
}

// releasePending returns n of a sender's reserved sends.
func (e *Engine) releasePending(name string, n int64) {
	s := e.stripeFor(name)
	e.lockStripe(s)
	if u, ok := s.users[name]; ok {
		u.pending = max(u.pending-n, 0)
	}
	s.mu.Unlock()
}
