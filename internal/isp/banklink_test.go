package isp

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"zmail/internal/crypto"
	"zmail/internal/mail"
	"zmail/internal/wire"
)

func TestUserBuySellEPennies(t *testing.T) {
	e, _, _ := newEngine(t, 0, nil, nil)
	mustRegister(t, e, "alice", 100, 0)

	if err := e.BuyEPennies("alice", 30); err != nil {
		t.Fatal(err)
	}
	a, _ := e.User("alice")
	if a.Account != 70 || a.Balance != 30 {
		t.Fatalf("after buy: %+v", a)
	}
	if e.Avail() != 470 {
		t.Fatalf("pool = %v", e.Avail())
	}

	if err := e.SellEPennies("alice", 10); err != nil {
		t.Fatal(err)
	}
	a, _ = e.User("alice")
	if a.Account != 80 || a.Balance != 20 {
		t.Fatalf("after sell: %+v", a)
	}
	if e.Avail() != 480 {
		t.Fatalf("pool = %v", e.Avail())
	}

	if err := e.BuyEPennies("alice", 1000); !errors.Is(err, ErrInsufficientFunds) {
		t.Fatalf("overdraw buy: %v", err)
	}
	if err := e.SellEPennies("alice", 1000); !errors.Is(err, ErrInsufficientBalance) {
		t.Fatalf("overdraw sell: %v", err)
	}
	if err := e.BuyEPennies("alice", 0); !errors.Is(err, ErrBadAmount) {
		t.Fatalf("zero buy: %v", err)
	}
	if err := e.BuyEPennies("ghost", 1); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("unknown buy: %v", err)
	}
	// Pool exhaustion on user buy.
	mustRegister(t, e, "rich", 10_000, 0)
	if err := e.BuyEPennies("rich", 9_999); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("pool exhaustion: %v", err)
	}
}

func TestDepositWithdraw(t *testing.T) {
	e, _, _ := newEngine(t, 0, nil, nil)
	mustRegister(t, e, "alice", 10, 0)
	if err := e.Deposit("alice", 40); err != nil {
		t.Fatal(err)
	}
	if err := e.Withdraw("alice", 25); err != nil {
		t.Fatal(err)
	}
	a, _ := e.User("alice")
	if a.Account != 25 {
		t.Fatalf("account = %v", a.Account)
	}
	if err := e.Withdraw("alice", 100); !errors.Is(err, ErrInsufficientFunds) {
		t.Fatalf("overdraw: %v", err)
	}
	if err := e.Deposit("alice", -5); !errors.Is(err, ErrBadAmount) {
		t.Fatalf("negative deposit: %v", err)
	}
}

// TestUserTradeConservation: buy/sell between a user and the pool never
// changes account+balance-vs-pool totals.
func TestUserTradeConservation(t *testing.T) {
	f := func(ops []int8) bool {
		e, _, _ := newEngine(t, 0, nil, nil)
		mustRegister(t, e, "u", 200, 100)
		totalE := func() int64 {
			u, _ := e.User("u")
			return int64(u.Balance) + int64(e.Avail())
		}
		account := func() int64 {
			u, _ := e.User("u")
			return int64(u.Account)
		}
		e0 := totalE()
		for _, op := range ops {
			amt := int64(op)
			prevE, prevMoney := totalE(), account()
			var moved int64
			if amt < 0 {
				if e.SellEPennies("u", -amt) == nil {
					moved = amt // balance shrank, account grew
				}
			} else if amt > 0 {
				if e.BuyEPennies("u", amt) == nil {
					moved = amt
				}
			}
			if totalE() != e0 {
				return false // e-pennies created or destroyed
			}
			// Money moves opposite to e-pennies, one-for-one.
			u, _ := e.User("u")
			if account() != prevMoney-moved || int64(u.Balance)+int64(e.Avail()) != prevE {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func batchReply(nonce uint64, fill, burned int64) *wire.Envelope {
	return &wire.Envelope{Kind: wire.KindBatchReply, From: -1,
		Payload: (&wire.BatchReply{Nonce: nonce, BuyFilled: fill, SellBurned: burned}).MarshalBinary()}
}

func TestBatchTickBuysWhenLow(t *testing.T) {
	e, ft, _ := newEngine(t, 0, nil, func(c *Config) { c.InitialAvail = 50 })
	if err := e.Tick(); err != nil {
		t.Fatal(err)
	}
	if len(ft.bank) != 1 || ft.bank[0].Kind != wire.KindBatchOrder {
		t.Fatalf("bank traffic = %+v", ft.bank)
	}
	// No double order while one is outstanding.
	if err := e.Tick(); err != nil {
		t.Fatal(err)
	}
	if len(ft.bank) != 1 {
		t.Fatalf("double order: %d requests", len(ft.bank))
	}
	var ord wire.BatchOrder
	if err := ord.UnmarshalBinary(ft.bank[0].Payload); err != nil {
		t.Fatal(err)
	}
	// Refills to the band midpoint: 550 - 50 = 500.
	if ord.Buy != 500 || ord.Sell != 0 {
		t.Fatalf("order = %+v", ord)
	}
	if err := e.HandleBank(batchReply(ord.Nonce, 500, 0)); err != nil {
		t.Fatal(err)
	}
	if e.Avail() != 550 {
		t.Fatalf("pool after fill = %v, want 550", e.Avail())
	}
	// Nonce replay of the reply is stale.
	reply := batchReply(ord.Nonce, 500, 0)
	if err := e.HandleBank(reply); !errors.Is(err, ErrStaleReply) {
		t.Fatalf("replayed batch reply: %v", err)
	}
	if e.Avail() != 550 {
		t.Fatal("replayed reply changed the pool")
	}
	// Also while the next order is outstanding: only that order's
	// nonce may close it.
	mustRegister(t, e, "whale", 0, 500)
	if err := e.Tick(); err != nil || len(ft.bank) != 2 {
		t.Fatalf("second order: %v, %d requests", err, len(ft.bank))
	}
	if err := e.HandleBank(reply); !errors.Is(err, ErrStaleReply) {
		t.Fatalf("replay during the next order: %v", err)
	}
	if e.Avail() != 50 {
		t.Fatalf("replayed reply minted into the pool during the next order: %v", e.Avail())
	}
}

func TestBatchTickSellsWhenHigh(t *testing.T) {
	e, ft, _ := newEngine(t, 0, nil, func(c *Config) {
		c.InitialAvail = 2000
	})
	if err := e.Tick(); err != nil {
		t.Fatal(err)
	}
	var ord wire.BatchOrder
	if err := ord.UnmarshalBinary(ft.bank[0].Payload); err != nil {
		t.Fatal(err)
	}
	if ord.Buy != 0 || ord.Sell != 1450 {
		t.Fatalf("order = %+v", ord)
	}
	// The sold amount is escrowed out of the pool at send.
	if e.Avail() != 550 {
		t.Fatalf("pool after escrow = %v, want 550", e.Avail())
	}
	reply := batchReply(ord.Nonce, 0, 1450)
	if err := e.HandleBank(reply); err != nil {
		t.Fatal(err)
	}
	if e.Avail() != 550 {
		t.Fatalf("pool after reply = %v, want 550", e.Avail())
	}
	if err := e.HandleBank(reply); !errors.Is(err, ErrStaleReply) {
		t.Fatalf("replayed sell reply: %v", err)
	}
}

// TestBatchPartialFillCredited: the bank fills what the ISP's account
// covers. A fill of 0 is the denied buy: the pool is unchanged and the
// next tick orders again.
func TestBatchPartialFillCredited(t *testing.T) {
	e, ft, _ := newEngine(t, 0, nil, func(c *Config) {
		c.InitialAvail = 50
	})
	order := func(i int) wire.BatchOrder {
		t.Helper()
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
		if len(ft.bank) != i+1 {
			t.Fatalf("order %d not sent: %d requests", i, len(ft.bank))
		}
		var ord wire.BatchOrder
		if err := ord.UnmarshalBinary(ft.bank[i].Payload); err != nil {
			t.Fatal(err)
		}
		return ord
	}
	ord := order(0)
	if err := e.HandleBank(batchReply(ord.Nonce, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if e.Avail() != 50 {
		t.Fatalf("denied buy changed the pool: %v", e.Avail())
	}
	// The bank could only cover 30 of the 500 asked.
	ord = order(1)
	if ord.Buy != 500 {
		t.Fatalf("retry after denial: buy %d, want 500", ord.Buy)
	}
	if err := e.HandleBank(batchReply(ord.Nonce, 30, 0)); err != nil {
		t.Fatal(err)
	}
	if e.Avail() != 80 {
		t.Fatalf("pool after partial fill = %v, want 80", e.Avail())
	}
	// Still below MinAvail: the next tick orders up to the midpoint again.
	if ord = order(2); ord.Buy != 470 {
		t.Fatalf("follow-up buy = %d, want 470", ord.Buy)
	}
}

func TestBatchReplyOverfillRejected(t *testing.T) {
	e, ft, _ := newEngine(t, 0, nil, func(c *Config) {
		c.InitialAvail = 50
	})
	if err := e.Tick(); err != nil {
		t.Fatal(err)
	}
	var ord wire.BatchOrder
	_ = ord.UnmarshalBinary(ft.bank[0].Payload)
	// A malicious bank granting more than asked must not mint into the
	// pool.
	if err := e.HandleBank(batchReply(ord.Nonce, ord.Buy+1, 0)); err == nil {
		t.Fatal("overfill accepted")
	}
	if e.Avail() != 50 {
		t.Fatalf("pool after overfill = %v, want 50", e.Avail())
	}
	if err := e.HandleBank(batchReply(ord.Nonce, -1, 0)); !errors.Is(err, ErrStaleReply) {
		// The overfill re-armed the order slot, so the nonce is stale now.
		t.Fatalf("negative fill after re-arm: %v", err)
	}
}

// TestBatchOrderLostReplyReArms: RestockRetry re-arms the one order
// slot after a lost reply, so the pool band recovers on both sides.
func TestBatchOrderLostReplyReArms(t *testing.T) {
	e, ft, clk := newEngine(t, 0, nil, func(c *Config) {
		c.InitialAvail = 2000
		c.RestockRetry = time.Minute
	})
	mustRegister(t, e, "whale", 0, 900) // funded from the pool: 1100 left
	if err := e.Tick(); err != nil {    // order: sell down to 550, escrowed
		t.Fatal(err)
	}
	if err := e.Tick(); err != nil { // reply lost; within the window: no retry
		t.Fatal(err)
	}
	if len(ft.bank) != 1 {
		t.Fatal("ordered again while the first was pending")
	}
	clk.Advance(time.Minute)
	// Pool sits at the midpoint after escrow: nothing to trade, but the
	// order slot re-arms so the band can recover later.
	if err := e.Tick(); err != nil {
		t.Fatal(err)
	}
	if e.Stats().RestockRetries != 1 {
		t.Fatalf("RestockRetries = %d, want 1", e.Stats().RestockRetries)
	}
	if err := e.SellEPennies("whale", 900); err != nil { // pool 1450 again
		t.Fatal(err)
	}
	if err := e.Tick(); err != nil {
		t.Fatal(err)
	}
	if len(ft.bank) != 2 || ft.bank[1].Kind != wire.KindBatchOrder {
		t.Fatalf("order not re-armed after lost reply: %+v", ft.bank)
	}
	// Escrow semantics survive the retry: both sells left the pool at
	// send time (no refund of the stranded first escrow), so the pool
	// sits at the midpoint again.
	if e.Avail() != 550 {
		t.Fatalf("pool = %v, want 550", e.Avail())
	}
	// The original reply arriving late is stale: its nonce was replaced.
	var first wire.BatchOrder
	_ = first.UnmarshalBinary(ft.bank[0].Payload)
	if err := e.HandleBank(batchReply(first.Nonce, 0, first.Sell)); !errors.Is(err, ErrStaleReply) {
		t.Fatalf("late first reply: %v", err)
	}
}

// TestSellEscrowPreventsOverdraw is the regression test for the §4.3
// bug found by the model checker: user buys during the bank round-trip
// must not overdraw the pool.
func TestSellEscrowPreventsOverdraw(t *testing.T) {
	e, ft, _ := newEngine(t, 0, nil, func(c *Config) { c.InitialAvail = 2000 })
	mustRegister(t, e, "whale", 100_000, 0)
	if err := e.Tick(); err != nil { // escrows down to 550
		t.Fatal(err)
	}
	// A user drains most of the remaining pool mid-flight.
	if err := e.BuyEPennies("whale", 500); err != nil {
		t.Fatal(err)
	}
	var ord wire.BatchOrder
	_ = ord.UnmarshalBinary(ft.bank[0].Payload)
	if err := e.HandleBank(batchReply(ord.Nonce, 0, ord.Sell)); err != nil {
		t.Fatal(err)
	}
	if e.Avail() < 0 {
		t.Fatalf("pool overdrawn: %v", e.Avail())
	}
}

func TestSnapshotFreezeLifecycle(t *testing.T) {
	e, ft, clk := newEngine(t, 0, nil, nil)
	mustRegister(t, e, "alice", 0, 10)

	// Build up some credit first.
	msg := mail.NewMessage(addr("alice@a.example"), addr("x@b.example"), "s", "b")
	if _, err := e.SubmitSync(msg); err != nil {
		t.Fatal(err)
	}

	// Bank requests a snapshot (seq 0).
	req := &wire.Envelope{Kind: wire.KindRequest, From: -1,
		Payload: (&wire.Request{Seq: 0}).MarshalBinary()}
	if err := e.HandleBank(req); err != nil {
		t.Fatal(err)
	}
	if !e.Frozen() {
		t.Fatal("engine not frozen after request")
	}

	// Mail during the freeze is buffered, not rejected.
	m2 := mail.NewMessage(addr("alice@a.example"), addr("y@b.example"), "s2", "b")
	out, err := e.SubmitSync(m2)
	if err != nil || out != SentBuffered {
		t.Fatalf("frozen submit = %v, %v", out, err)
	}
	sentBefore := len(ft.mails)

	// Replayed request during the freeze is ignored.
	if err := e.HandleBank(req); !errors.Is(err, ErrStaleReply) {
		t.Fatalf("replayed request: %v", err)
	}

	// The quiet period expires: the cut. The report goes out, but the
	// engine keeps buffering for the guard interval, so that a peer
	// whose own cut comes a little later does not book our new period's
	// mail in its old one.
	clk.Advance(time.Minute)
	if !e.Frozen() || len(ft.mails) != sentBefore {
		t.Fatalf("engine resumed sending at its cut (frozen=%v, sent %d -> %d)", e.Frozen(), sentBefore, len(ft.mails))
	}
	if got := e.Credit()[1]; got != 0 {
		t.Fatalf("credit after the cut = %d, want 0", got)
	}
	clk.Advance(thawAfter - time.Minute)
	if e.Frozen() {
		t.Fatal("engine still frozen after the guard interval")
	}
	// Credit report went to the bank with the pre-reset credit.
	var report *wire.Envelope
	for _, env := range ft.bank {
		if env.Kind == wire.KindReply {
			report = env
		}
	}
	if report == nil {
		t.Fatal("no credit report sent")
	}
	var cr wire.CreditReport
	if err := cr.UnmarshalBinary(report.Payload); err != nil {
		t.Fatal(err)
	}
	if cr.Seq != 0 || cr.Credits[1] != 1 {
		t.Fatalf("report = %+v", cr)
	}
	// The credit array was reset before the buffered outbox drained, so
	// the buffered paid send lands in the NEW billing period: exactly 1,
	// not 2 (which would mean no reset) and not 0 (which would mean the
	// buffered send went uncharged).
	if got := e.Credit()[1]; got != 1 {
		t.Fatalf("credit after reset+thaw = %d, want 1", got)
	}
	// Buffered mail drained.
	if len(ft.mails) != sentBefore+1 {
		t.Fatalf("outbox not drained: %d -> %d", sentBefore, len(ft.mails))
	}
	if e.Stats().SnapshotRounds != 1 {
		t.Fatalf("rounds = %d", e.Stats().SnapshotRounds)
	}

	// Next round uses seq 1; a replay of seq 0 is rejected.
	if err := e.HandleBank(req); !errors.Is(err, ErrStaleReply) {
		t.Fatalf("old-seq request after round: %v", err)
	}
	req1 := &wire.Envelope{Kind: wire.KindRequest, From: -1,
		Payload: (&wire.Request{Seq: 1}).MarshalBinary()}
	if err := e.HandleBank(req1); err != nil {
		t.Fatal(err)
	}
	if !e.Frozen() {
		t.Fatal("second round did not freeze")
	}
}

// TestSnapshotRequestInThawGuard: a round the bank starts while the
// engine is still in the thaw guard after its previous cut is held and
// begun at the thaw, so the bank gets that round's report too. Replays
// of the finished round and of the held one stay refused.
func TestSnapshotRequestInThawGuard(t *testing.T) {
	e, ft, clk := newEngine(t, 0, nil, nil)
	request := func(seq uint64) error {
		return e.HandleBank(&wire.Envelope{Kind: wire.KindRequest, From: -1,
			Payload: (&wire.Request{Seq: seq}).MarshalBinary()})
	}
	reported := func() []uint64 {
		var seqs []uint64
		for _, env := range ft.bank {
			var cr wire.CreditReport
			if env.Kind == wire.KindReply && cr.UnmarshalBinary(env.Payload) == nil {
				seqs = append(seqs, cr.Seq)
			}
		}
		return seqs
	}
	if err := request(0); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Minute) // round 0's cut
	if !e.Frozen() {
		t.Fatal("no thaw guard after the cut")
	}
	if err := request(1); err != nil {
		t.Fatalf("request for round 1 inside the thaw guard: %v", err)
	}
	for _, seq := range []uint64{0, 1} {
		if err := request(seq); !errors.Is(err, ErrStaleReply) {
			t.Fatalf("replayed request %d in the guard: %v, want ErrStaleReply", seq, err)
		}
	}
	clk.Advance(thawAfter - time.Minute)
	if !e.Frozen() {
		t.Fatal("the thaw did not begin the held round")
	}
	clk.Advance(time.Minute) // round 1's cut
	if got := reported(); !slices.Equal(got, []uint64{0, 1}) {
		t.Fatalf("reports for rounds %v, want [0 1]", got)
	}
	clk.Advance(thawAfter - time.Minute)
	if e.Frozen() {
		t.Fatal("still frozen after round 1's guard")
	}
	if err := request(1); !errors.Is(err, ErrStaleReply) {
		t.Fatalf("replayed request 1 after its round: %v, want ErrStaleReply", err)
	}
}

func TestBufferedMailChargedAtThaw(t *testing.T) {
	e, ft, clk := newEngine(t, 0, nil, nil)
	mustRegister(t, e, "alice", 0, 1)
	e.ForceSnapshot()
	// Two sends buffered; alice can only fund one.
	for i := 0; i < 2; i++ {
		m := mail.NewMessage(addr("alice@a.example"), addr("x@b.example"), "s", "b")
		if out, err := e.SubmitSync(m); err != nil || out != SentBuffered {
			t.Fatalf("buffered submit %d = %v, %v", i, out, err)
		}
	}
	clk.Advance(thawAfter)
	if len(ft.mails) != 1 {
		t.Fatalf("thaw transmitted %d, want 1 (second send unfunded)", len(ft.mails))
	}
	a, _ := e.User("alice")
	if a.Balance != 0 {
		t.Fatalf("balance = %v", a.Balance)
	}
}

func TestAckGenerationForListMail(t *testing.T) {
	e, ft, _ := newEngine(t, 0, nil, nil)
	mustRegister(t, e, "bob", 0, 0) // zero balance: the ack rides the earned e-penny
	listMsg := mail.NewMessage(addr("announce@b.example"), addr("bob@a.example"), "issue 1", "news")
	listMsg.SetClass(mail.ClassList)
	listMsg.SetHeader(mail.HeaderMsgID, "<list-1.b.example>")
	if err := e.ReceiveRemote("b.example", listMsg); err != nil {
		t.Fatal(err)
	}
	// Delivered to bob AND an ack transmitted back to the distributor.
	if len(ft.local) != 1 {
		t.Fatalf("list mail deliveries = %d", len(ft.local))
	}
	if len(ft.mails) != 1 {
		t.Fatalf("acks transmitted = %d", len(ft.mails))
	}
	ack := ft.mails[0].msg
	if ack.Class() != mail.ClassAck || ack.Header(mail.HeaderAckFor) != "<list-1.b.example>" {
		t.Fatalf("ack = %v %q", ack.Class(), ack.Header(mail.HeaderAckFor))
	}
	if ack.To != addr("announce@b.example") {
		t.Fatalf("ack to = %v", ack.To)
	}
	// Net zero for bob: earned 1, spent 1 on the ack.
	b, _ := e.User("bob")
	if b.Balance != 0 {
		t.Fatalf("bob balance = %v, want 0", b.Balance)
	}
	// Acks do not count against the daily limit.
	if b.Sent != 0 {
		t.Fatalf("ack counted against limit: sent = %d", b.Sent)
	}
}

func TestAckDeliveredToSink(t *testing.T) {
	e, ft, _ := newEngine(t, 0, nil, nil)
	mustRegister(t, e, "announce", 0, 5)
	ack := mail.NewMessage(addr("bob@b.example"), addr("announce@a.example"), "Ack: issue", "")
	ack.SetClass(mail.ClassAck)
	if err := e.ReceiveRemote("b.example", ack); err != nil {
		t.Fatal(err)
	}
	if len(ft.acks) != 1 || len(ft.local) != 0 {
		t.Fatalf("ack routing: acks=%d local=%d (acks must not reach the inbox)", len(ft.acks), len(ft.local))
	}
	// The ack still pays: distributor earned the e-penny back.
	d, _ := e.User("announce")
	if d.Balance != 6 {
		t.Fatalf("distributor balance = %v", d.Balance)
	}
}

func TestNoAckForNormalMail(t *testing.T) {
	e, ft, _ := newEngine(t, 0, nil, nil)
	mustRegister(t, e, "bob", 0, 5)
	msg := mail.NewMessage(addr("x@b.example"), addr("bob@a.example"), "hi", "normal")
	if err := e.ReceiveRemote("b.example", msg); err != nil {
		t.Fatal(err)
	}
	if len(ft.mails) != 0 {
		t.Fatal("normal mail generated an ack")
	}
}

func TestHandleBankWithoutSealers(t *testing.T) {
	e, _, _ := newEngine(t, 0, nil, func(c *Config) {
		c.OwnSealer = nil
		c.BankSealer = nil
		c.InitialAvail = 10
	})
	if err := e.Tick(); !errors.Is(err, ErrNotConfigured) {
		t.Fatalf("tick without sealers: %v", err)
	}
	env := &wire.Envelope{Kind: wire.KindBatchReply}
	if err := e.HandleBank(env); !errors.Is(err, ErrNotConfigured) {
		t.Fatalf("handle without sealers: %v", err)
	}
}

func TestHandleBankBadPayload(t *testing.T) {
	e, _, _ := newEngine(t, 0, nil, nil)
	env := &wire.Envelope{Kind: wire.KindBatchReply, Payload: []byte{1}}
	if err := e.HandleBank(env); err == nil {
		t.Fatal("truncated payload accepted")
	}
	env = &wire.Envelope{Kind: wire.Kind(99), Payload: make([]byte, 16)}
	if err := e.HandleBank(env); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestHandleBankSealedWithRealCrypto(t *testing.T) {
	ispBox, err := crypto.GenerateBox(1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, ft, _ := newEngine(t, 0, nil, func(c *Config) {
		c.OwnSealer = ispBox
		c.InitialAvail = 10
	})
	if err := e.Tick(); err != nil {
		t.Fatal(err)
	}
	var ord wire.BatchOrder
	if err := ord.UnmarshalBinary(ft.bank[0].Payload); err != nil { // BankSealer is Null
		t.Fatal(err)
	}
	sealed, err := ispBox.PublicOnly().Seal((&wire.BatchReply{Nonce: ord.Nonce, BuyFilled: ord.Buy}).MarshalBinary())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.HandleBank(&wire.Envelope{Kind: wire.KindBatchReply, Payload: sealed}); err != nil {
		t.Fatal(err)
	}
	if e.Avail() != 550 { // refilled to the band midpoint
		t.Fatalf("pool = %v, want 550", e.Avail())
	}
	// Tampered payload rejected.
	sealed[10] ^= 1
	if err := e.HandleBank(&wire.Envelope{Kind: wire.KindBatchReply, Payload: sealed}); err == nil {
		t.Fatal("tampered sealed payload accepted")
	}
}

func TestTotalEPennies(t *testing.T) {
	e, _, _ := newEngine(t, 0, nil, nil)
	mustRegister(t, e, "a", 0, 100)
	mustRegister(t, e, "b", 0, 50)
	// 500 initial pool: 150 moved to users, total unchanged.
	if got := e.TotalEPennies(); got != 500 {
		t.Fatalf("TotalEPennies = %d, want 500", got)
	}
	msg := mail.NewMessage(addr("a@a.example"), addr("x@b.example"), "s", "b")
	if _, err := e.SubmitSync(msg); err != nil {
		t.Fatal(err)
	}
	// Paid remote send: balance -1, credit +1 → total unchanged.
	if got := e.TotalEPennies(); got != 500 {
		t.Fatalf("TotalEPennies after send = %d", got)
	}
}

func TestZombieWarningDelivered(t *testing.T) {
	e, ft, _ := newEngine(t, 0, nil, func(c *Config) { c.DefaultLimit = 2 })
	mustRegister(t, e, "victim", 0, 100)
	msg := func() *mail.Message {
		return mail.NewMessage(addr("victim@a.example"), addr("x@b.example"), "worm", "payload")
	}
	for i := 0; i < 2; i++ {
		if _, err := e.SubmitSync(msg()); err != nil {
			t.Fatal(err)
		}
	}
	// Limit rejections: the first triggers exactly one warning.
	for i := 0; i < 5; i++ {
		if _, err := e.SubmitSync(msg()); !errors.Is(err, ErrLimitExceeded) {
			t.Fatalf("attempt %d: %v", i, err)
		}
	}
	warnings := 0
	for _, d := range ft.local {
		if d.user == "victim" && d.msg.From.Local == "postmaster" {
			warnings++
			if d.msg.Subject() != "Warning: daily send limit reached" {
				t.Fatalf("warning subject = %q", d.msg.Subject())
			}
		}
	}
	if warnings != 1 {
		t.Fatalf("warnings delivered = %d, want exactly 1 per day", warnings)
	}
	if e.Stats().ZombieWarnings != 1 {
		t.Fatalf("ZombieWarnings = %d", e.Stats().ZombieWarnings)
	}
	// Next day: limit resets, and so does the warning.
	e.EndOfDay()
	for i := 0; i < 3; i++ {
		_, _ = e.SubmitSync(msg())
	}
	if e.Stats().ZombieWarnings != 2 {
		t.Fatalf("ZombieWarnings after second day = %d, want 2", e.Stats().ZombieWarnings)
	}
}
