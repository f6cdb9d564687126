package isp

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"zmail/internal/clock"
	"zmail/internal/crypto"
	"zmail/internal/hammer"
	"zmail/internal/mail"
	"zmail/internal/metrics"
	"zmail/internal/wire"
)

// hammerRounds is how many drive rounds the hammer runs at least.
const hammerRounds = 40

// orderTransport drops mail and keeps the last batch order the engine
// sent the bank; queue workers emit too, so it locks.
type orderTransport struct {
	mu   sync.Mutex
	last *wire.Envelope
}

func (o *orderTransport) SendMail(int, string, *mail.Message) {}
func (o *orderTransport) SendBank(env *wire.Envelope) {
	if env.Kind == wire.KindBatchOrder {
		o.mu.Lock()
		o.last = env
		o.mu.Unlock()
	}
}
func (o *orderTransport) DeliverLocal(string, *mail.Message) {}
func (o *orderTransport) DeliverAck(string, *mail.Message)   {}

// takeOrder returns and forgets the last batch order, if any.
func (o *orderTransport) takeOrder(t *testing.T) (wire.BatchOrder, bool) {
	o.mu.Lock()
	env := o.last
	o.last = nil
	o.mu.Unlock()
	var ord wire.BatchOrder
	if env == nil {
		return ord, false
	}
	if err := ord.UnmarshalBinary(env.Payload); err != nil {
		t.Fatal(err)
	}
	return ord, true
}

// TestEngineHammer calls every exported read of an Engine while one
// goroutine drives all its writers: local, paid, unpaid, queued and
// inbound mail, user trades that push the pool out of its band on both
// sides, ticks and their batch replies, bank-requested and forced
// audit freezes with mail buffered across the thaw, registrations,
// limits, cheat mode, the day reset, the admission queue's life, and
// the WAL's recovery, checkpoint, compaction, close and attach. Under
// -race it is the check that every read takes the guard of what it
// reads.
func TestEngineHammer(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1_100_000_000, 0))
	ot := &orderTransport{}
	cfg := Config{
		Index: 0, Domain: testDomains[0], Directory: NewDirectory(testDomains, []bool{true, true, false}),
		Clock: clk, Transport: ot,
		MinAvail: 1000, MaxAvail: 3000, InitialAvail: 5000, DefaultLimit: 1 << 30,
		FreezeDuration: time.Minute, BankSealer: crypto.Null{}, OwnSealer: crypto.Null{},
	}
	// The hammered engine boots from this WAL inside the drive.
	seedDir := t.TempDir()
	seed, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alice", "bob"} {
		if err := seed.RegisterUser(name, 1<<30, 1000, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.AttachWAL(seedDir); err != nil {
		t.Fatal(err)
	}
	if err := seed.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	reads := map[string]func(){
		"Avail":           func() { _ = e.Avail() },
		"Clock":           func() { _ = e.Clock() },
		"Collect":         func() { e.Collect(reg) },
		"Contention":      func() { _ = e.Contention() },
		"Credit":          func() { _ = e.Credit() },
		"Domain":          func() { _ = e.Domain() },
		"ExportState":     func() { _ = e.ExportState() },
		"FormatStatement": func() { _ = e.FormatStatement("alice") },
		"Frozen":          func() { _ = e.Frozen() },
		"Index":           func() { _ = e.Index() },
		"PoolBand":        func() { _, _ = e.PoolBand() },
		"QueueDepth":      func() { _ = e.QueueDepth() },
		"QueueStats":      func() { _ = e.QueueStats() },
		"Statement":       func() { _, _ = e.Statement("bob") },
		"Stats":           func() { _ = e.Stats() },
		"Stripes":         func() { _ = e.Stripes() },
		"TotalEPennies":   func() { _ = e.TotalEPennies() },
		"User":            func() { _, _ = e.User("alice") },
		"Users":           func() { _ = e.Users() },
		"WALAttached":     func() { _ = e.WALAttached() },
		"WALErrors":       func() { _ = e.WALErrors() },
	}
	writers := []string{"AttachWAL", "BuyEPennies", "Checkpoint", "CloseWAL", "CompactWAL",
		"Deposit", "EndOfDay", "FlushQueue", "ForceSnapshot", "HandleBank", "ReceiveRemote",
		"RecoverWAL", "RegisterUser", "SellEPennies", "SetCheat", "SetLimit", "StartQueue",
		"StopQueue", "Submit", "SubmitSync", "Tick", "Withdraw"}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	send := func(from, to string) *mail.Message {
		return mail.NewMessage(addr(from), addr(to), "s", "b")
	}
	qc := QueueConfig{Depth: 64, Workers: 2}
	var seq uint64
	hammer.Run(t, hammerRounds, func(round int) {
		switch {
		case round == 0:
			must(e.RecoverWAL(seedDir))
			e.StartQueue(qc)
		case round == hammerRounds/2:
			must(e.CloseWAL())
			must(e.AttachWAL(t.TempDir()))
			e.StopQueue()
			e.StartQueue(qc)
		case round%20 == 19:
			must(e.Checkpoint())
			must(e.CompactWAL())
		case round%10 == 9:
			e.EndOfDay()
		}
		must(e.RegisterUser(fmt.Sprintf("n%d", round), 0, 1, 0))
		must(e.SetLimit("bob", 1<<30))
		e.SetCheat(round%4 == 3)

		_, err := e.SubmitSync(send("alice@a.example", "bob@a.example"))
		must(err)
		_, err = e.SubmitSync(send("alice@a.example", "x@b.example"))
		must(err)
		_, err = e.SubmitSync(send("bob@a.example", "y@c.example"))
		must(err)
		_, err = e.Submit(send("bob@a.example", "alice@a.example"))
		must(err)
		e.FlushQueue()
		must(e.ReceiveRemote("b.example", send("x@b.example", "bob@a.example")))

		// Trades push the pool below or above its band; the tick's order
		// and a full fill bring it back.
		if round%2 == 0 {
			must(e.BuyEPennies("alice", 1500))
		} else {
			must(e.SellEPennies("alice", 1500))
		}
		must(e.Deposit("bob", 3))
		must(e.Withdraw("bob", 1))
		must(e.Tick())
		if ord, ok := ot.takeOrder(t); ok {
			must(e.HandleBank(&wire.Envelope{Kind: wire.KindBatchReply, From: -1,
				Payload: (&wire.BatchReply{Nonce: ord.Nonce, BuyFilled: ord.Buy, SellBurned: ord.Sell}).MarshalBinary()}))
		}

		switch round % 5 {
		case 2:
			must(e.HandleBank(&wire.Envelope{Kind: wire.KindRequest, From: -1,
				Payload: (&wire.Request{Seq: seq}).MarshalBinary()}))
			seq++
		case 4:
			e.ForceSnapshot()
			seq++
		default:
			return
		}
		_, err = e.SubmitSync(send("alice@a.example", "x@b.example"))
		must(err) // buffered until the thaw
		clk.Advance(thawAfter)
	}, hammer.Target{V: e, Reads: reads, Writers: writers})
	e.StopQueue()
	must(e.CloseWAL())
	if st := e.Stats(); st.SnapshotRounds == 0 {
		t.Fatal("the drive ran no audit round")
	}
}
