package main

import (
	"fmt"
	"time"

	"zmail/internal/bank"
	"zmail/internal/isp"
	"zmail/internal/mail"
	"zmail/internal/wire"
)

// flagged gathers the ISP pairs audit rounds have flagged so far:
// intra-region pairs at the leaves, cross-region pairs at the root.
func (f *federation) flagged() []bank.Violation {
	out := f.root.Violations()
	for _, bd := range f.banks {
		out = append(out, bd.bank.Violations()...)
	}
	return out
}

// verify is the correctness gate. It runs on the quiesced federation
// (audit ticker stopped, every round verified, queues flushed, windows
// empty) and returns one line per broken invariant.
func (f *federation) verify(w workload, c counts) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	// Every accepted recipient is accounted for: it reached a mailbox
	// (and, for list mail, its ack came back) or it was counted lost.
	if w.list {
		if c.Acked+c.Lost != c.Accepted {
			fail("acked %d + lost %d != accepted %d", c.Acked, c.Lost, c.Accepted)
		}
		if c.Delivered < c.Acked || c.Delivered > c.Accepted {
			fail("delivered %d outside [acked %d, accepted %d]", c.Delivered, c.Acked, c.Accepted)
		}
	} else if c.Delivered+c.Lost != c.Accepted {
		fail("delivered %d + lost %d != accepted %d", c.Delivered, c.Lost, c.Accepted)
	}
	if c.Stray != 0 {
		fail("%d callbacks matched no live transaction", c.Stray)
	}

	// §4: e-pennies are conserved across every ISP ledger and bank.
	if total, want := f.totalEPennies(), f.initialE+f.outstanding(); total != want {
		fail("e-pennies: ledgers hold %d, booted %d + outstanding %d", total, f.initialE, f.outstanding())
	}
	// §4.1: credit_i[j] + credit_j[i] == 0 once nothing is in flight —
	// over all billing periods together. A single audit round may
	// flag a pair without anything being wrong with the ledgers: the
	// ISPs thaw a fraction of a millisecond apart, and mail the first
	// one releases can reach the second before its cut, so one period
	// closes k short and the next k over (see README, finding 4). What
	// may never happen is that the flagged imbalances and the open
	// period fail to cancel: that is an e-penny gone.
	imbalance := map[[2]int]int64{}
	for _, v := range f.flagged() {
		imbalance[[2]int{v.I, v.J}] += v.CreditIJ + v.CreditJI
	}
	for i, a := range f.isps {
		for j := i + 1; j < len(f.isps); j++ {
			open := a.engine().Credit()[j] + f.isps[j].engine().Credit()[i]
			if audited := imbalance[[2]int{i, j}]; open+audited != 0 {
				fail("credit between isp[%d] and isp[%d] is off by %d over all periods (%d audited, %d open)",
					i, j, open+audited, audited, open)
			}
		}
	}
	for r, bd := range f.banks {
		if n := bd.bank.WALErrors(); n != 0 {
			fail("bank[%d]: %d WAL errors", r, n)
		}
		// The pool band keeps mail-only traffic from trading; an order
		// means the run measured something else as well.
		if st := bd.bank.Stats(); st.BuysAccepted+st.BuysDenied+st.Sells != 0 {
			fail("bank[%d] processed %d buys and %d sells", r, st.BuysAccepted+st.BuysDenied, st.Sells)
		}
	}
	for i, d := range f.isps {
		if n := d.engine().WALErrors(); n != 0 {
			fail("isp[%d]: %d WAL errors", i, n)
		}
		// A message the queue admitted (the client has its 250) and the
		// commit then refused is dropped with only this counter moving.
		if st := d.engine().Stats(); st.QueueDropped != 0 || st.QueueRejected != 0 {
			fail("isp[%d]: queue dropped %d admitted messages, rejected %d", i, st.QueueDropped, st.QueueRejected)
		}
	}
	if n := f.log.n.Load(); n != 0 {
		f.log.mu.Lock()
		fail("%d daemon diagnostics, first: %q", n, f.log.first)
		f.log.mu.Unlock()
	}
	return bad
}

// restartISP closes ISP i and boots it again from its WAL, returning
// how long the boot took. The recovered ledger must hold exactly what
// the closed one did.
func (f *federation) restartISP(i int) (time.Duration, error) {
	d := f.isps[i]
	before := d.engine().ExportState().Total()
	if err := d.close(); err != nil {
		return 0, fmt.Errorf("close isp[%d]: %w", i, err)
	}
	start := time.Now()
	if err := f.startISP(d, true); err != nil {
		return 0, fmt.Errorf("recover isp[%d]: %w", i, err)
	}
	took := time.Since(start)
	f.mesh()
	if after := d.engine().ExportState().Total(); after != before {
		return took, fmt.Errorf("isp[%d] held %d e-pennies before close, %d after recovery", i, before, after)
	}
	return took, nil
}

// nullTransport discards everything an engine emits; the stand-alone
// engines of the recovery log and the layer fixtures use it.
type nullTransport struct{}

func (nullTransport) SendMail(int, string, *mail.Message) {}
func (nullTransport) SendBank(*wire.Envelope)             {}
func (nullTransport) DeliverLocal(string, *mail.Message)  {}
func (nullTransport) DeliverAck(string, *mail.Message)    {}

// standaloneEngine builds ISP i's engine with no daemon around it.
func standaloneEngine(cfg fedConfig, i int) (*isp.Engine, error) {
	ec := engineConfig(cfg, i)
	ec.Transport = nullTransport{}
	return isp.New(ec)
}
