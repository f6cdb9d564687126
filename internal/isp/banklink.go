package isp

import (
	"errors"
	"fmt"

	"zmail/internal/money"
	"zmail/internal/trace"
	"zmail/internal/wire"
)

// Errors specific to bank traffic.
var (
	ErrNotConfigured = errors.New("isp: bank sealers not configured")
	ErrStaleReply    = errors.New("isp: bank reply nonce does not match a pending request")
)

// Tick runs the §4.3 pool-maintenance guards: if the pool is below
// MinAvail it orders inventory from the bank, and if it is above
// MaxAvail it sells the excess; both sides travel in one sealed, nonced
// wire.BatchOrder, and the bank answers with a partial-fill
// wire.BatchReply. One order is outstanding at a time. Call it
// periodically (the simulator calls it after every delivery round; the
// daemon on a timer). Tick only touches the cold pool state and never
// blocks the send path.
func (e *Engine) Tick() error {
	var em emitQueue
	err := e.tick(&em)
	em.run()
	return err
}

// tick departs from the paper's literal §4.3 in three ways, each
// recorded in DESIGN decision 15: it refills to the band midpoint, not
// by a fixed quantum; the bank may fill the buy side partially; and one
// order covers both sides, so one exchange is outstanding, not one per
// side.
func (e *Engine) tick(em *emitQueue) error {
	e.mu.Lock()
	defer e.mu.Unlock()

	// Re-arm an order whose request or reply was lost. Escrow is never
	// refunded on re-arm — if the bank burned the original sell and the
	// reply was lost, a refund would mint; the stranded escrow is the
	// loss the chaos auditor (internal/chaos) accounts explicitly.
	if e.cfg.RestockRetry > 0 && !e.canOrder &&
		e.cfg.Clock.Now().Sub(e.ordAt) >= e.cfg.RestockRetry {
		e.canOrder = true
		e.stats.restockRetries.Add(1)
	}
	if !e.canOrder {
		return nil
	}

	mid := e.cfg.MinAvail + (e.cfg.MaxAvail-e.cfg.MinAvail)/2
	var buy, sell money.EPenny
	if e.avail < e.cfg.MinAvail {
		buy = mid - e.avail
	}
	if e.avail > e.cfg.MaxAvail {
		sell = e.avail - mid
	}
	if buy == 0 && sell == 0 {
		return nil
	}
	if e.cfg.BankSealer == nil {
		return ErrNotConfigured
	}
	nonce, err := e.nonces.Next()
	if err != nil {
		return fmt.Errorf("isp: order nonce: %w", err)
	}
	e.walNonce(e.nonces.Counter())
	e.canOrder = false
	e.ordNonce = nonce
	e.ordBuy = buy
	e.ordAt = e.cfg.Clock.Now()
	if sell > 0 {
		// Escrow the sold amount out of the pool at send time (the E14
		// lesson: decrementing on reply lets user buys overdraw the pool
		// during the bank round trip).
		e.avail -= sell
		e.walPoolAdd(-int64(sell))
	}
	body := (&wire.BatchOrder{Buy: int64(buy), Sell: int64(sell), Nonce: uint64(nonce)}).MarshalBinary()
	sealed, err := e.cfg.BankSealer.Seal(body)
	if err != nil {
		if sell > 0 {
			e.avail += sell
			e.walPoolAdd(int64(sell))
		}
		e.canOrder = true
		return fmt.Errorf("isp: seal order: %w", err)
	}
	e.ordTrace = e.tracer.Next()
	e.tracer.Record(e.ordTrace, "order", int64(buy)-int64(sell), "request")
	env := &wire.Envelope{Kind: wire.KindBatchOrder, From: int32(e.cfg.Index), Trace: uint64(e.ordTrace), Payload: sealed}
	em.add(func() { e.cfg.Transport.SendBank(env) })
	return nil
}

// HandleBank processes a control message from the bank: order
// replies (§4.3) and snapshot requests (§4.4). Replies with stale or
// replayed nonces are dropped with ErrStaleReply, exactly as the
// paper's ns≠nr branches skip.
func (e *Engine) HandleBank(env *wire.Envelope) error {
	var em emitQueue
	err := e.handleBank(&em, env)
	em.run()
	return err
}

func (e *Engine) handleBank(em *emitQueue, env *wire.Envelope) error {
	if e.cfg.OwnSealer == nil {
		return ErrNotConfigured
	}
	plain, err := e.cfg.OwnSealer.Open(env.Payload)
	if err != nil {
		return fmt.Errorf("isp: open bank message: %w", err)
	}

	switch env.Kind {
	case wire.KindBatchReply:
		var br wire.BatchReply
		if err := br.UnmarshalBinary(plain); err != nil {
			return err
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.canOrder || br.Nonce != uint64(e.ordNonce) {
			return ErrStaleReply
		}
		e.canOrder = true
		e.lat.bankRTT.Observe(e.cfg.Clock.Now().Sub(e.ordAt))
		fill := money.EPenny(br.BuyFilled)
		// A reply claiming more than the order asked would let a
		// malicious bank mint into this pool; cap acceptance at the
		// outstanding order.
		if fill < 0 || fill > e.ordBuy {
			e.tracer.Record(e.ordTrace, "restock", 0, "badfill")
			return fmt.Errorf("isp: batch fill %d outside order [0,%d]", br.BuyFilled, int64(e.ordBuy))
		}
		if fill > 0 {
			e.avail += fill
			e.walPoolAdd(int64(fill))
		}
		switch {
		case e.ordBuy == 0:
			e.tracer.Record(e.ordTrace, "restock", 0, "sold")
		case fill == e.ordBuy:
			e.tracer.Record(e.ordTrace, "restock", int64(fill), "filled")
		default:
			e.tracer.Record(e.ordTrace, "restock", int64(fill), "partial")
		}
		return nil

	case wire.KindRequest:
		var rq wire.Request
		if err := rq.UnmarshalBinary(plain); err != nil {
			return err
		}
		e.freezeMu.Lock()
		defer e.freezeMu.Unlock()
		e.mu.Lock()
		seq := e.seq
		e.mu.Unlock()
		// Replay protection is monotonic, not exact-match: a request for
		// an older billing period is a replay and is dropped, but a
		// request from the future is adopted — the bank is ahead (it
		// aborted a round this engine missed while down, or this
		// engine's report was lost). Adopting the bank's seq keeps a
		// restarted federation convergent instead of wedging every
		// subsequent round on a sequence mismatch.
		if rq.Seq < seq || e.frozen {
			return ErrStaleReply // replayed snapshot request (§4.4)
		}
		e.beginFreezeLocked(em, rq.Seq, trace.ID(env.Trace))
		return nil

	default:
		return fmt.Errorf("isp: unexpected bank message kind %v", env.Kind)
	}
}

// beginFreezeLocked starts the §4.4 snapshot: stop sending, arm the
// quiet-period timer. Call with freezeMu held for write. tid is the
// bank's round flow ID (zero when locally forced), carried through to
// the report so one trace covers request → freeze → report.
func (e *Engine) beginFreezeLocked(em *emitQueue, seq uint64, tid trace.ID) {
	if e.frozen {
		return
	}
	e.frozen = true
	e.tracer.Record(tid, "snapshot", 0, "freeze")
	em.add(func() {
		e.cfg.Clock.AfterFunc(e.cfg.FreezeDuration, func() { e.finishFreeze(seq, tid) })
	})
}

// finishFreeze runs when the quiet period expires: report the credit
// array and reset it for the new billing period. Holding freezeMu for
// write excludes every sender and receiver, so the report is an exact
// cut of the credit state. Sending stays frozen for a guard interval
// more (see thaw).
func (e *Engine) finishFreeze(seq uint64, tid trace.ID) {
	e.freezeMu.Lock()
	if !e.frozen {
		e.freezeMu.Unlock()
		return
	}
	report := &wire.CreditReport{Seq: seq, Credits: make([]int64, len(e.credit))}
	for i := range e.credit {
		report.Credits[i] = e.credit[i].Swap(0)
	}
	e.stats.snapshotRounds.Add(1)
	e.mu.Lock()
	e.seq = seq + 1 // follow the round actually reported (adopt-forward)
	e.mu.Unlock()
	// Logged under the freeze write lock, which excludes every credit
	// delta: the meta segment's file order is the real zero-vs-delta
	// order.
	e.walCreditZero(seq + 1)
	e.freezeMu.Unlock()

	if e.cfg.BankSealer != nil {
		sealed, err := e.cfg.BankSealer.Seal(report.MarshalBinary())
		if err == nil {
			env := &wire.Envelope{Kind: wire.KindReply, From: int32(e.cfg.Index), Trace: uint64(tid), Payload: sealed}
			e.tracer.Record(tid, "report", 0, "sent")
			e.cfg.Transport.SendBank(env)
		}
		// A seal failure only skips the report; next round retries.
	}

	e.cfg.Clock.AfterFunc(e.cfg.FreezeDuration/thawGuardShare, e.thaw)
}

// thawGuardShare sets how long after its cut an ISP keeps buffering
// paid mail: FreezeDuration/thawGuardShare. Every ISP cuts on its own
// timer, started when the bank's request reached it, so two cuts are a
// request-delivery skew apart. Mail that an ISP charged after its cut
// and that reaches a peer before the peer's cut is booked in different
// billing periods at the two ends, and the bank flags an honest pair.
// The quiet period already has to be long against the network's
// delays; a quarter of it is long against the skew between two
// deliveries of one request.
const thawGuardShare = 4

// thaw ends the freeze a guard interval after the cut and drains the
// buffered outbox.
func (e *Engine) thaw() {
	e.freezeMu.Lock()
	e.frozen = false
	e.mu.Lock()
	outbox := e.outbox
	e.outbox = nil
	e.mu.Unlock()
	e.freezeMu.Unlock()

	// Drain the buffered outbox through the normal submission path.
	// Messages that can no longer be funded are dropped, mirroring what
	// a real MTA queue does when an account is closed mid-queue. The
	// drain repeats submit, which conserves e-pennies per send, so the
	// loop does too.
	for _, msg := range outbox {
		var em emitQueue
		_, _ = e.submit(&em, msg, true)
		em.run()
	}
}

// ForceSnapshot triggers the freeze path without a bank request; used
// by tests and the simulator's direct-drive mode.
func (e *Engine) ForceSnapshot() {
	var em emitQueue
	e.freezeMu.Lock()
	e.mu.Lock()
	seq := e.seq
	e.mu.Unlock()
	e.beginFreezeLocked(&em, seq, e.tracer.Next())
	e.freezeMu.Unlock()
	em.run()
}

// PoolBand reports the configured (min, max) pool thresholds.
func (e *Engine) PoolBand() (money.EPenny, money.EPenny) {
	return e.cfg.MinAvail, e.cfg.MaxAvail
}
