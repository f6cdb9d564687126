package sim

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"zmail/internal/isp"
	"zmail/internal/mail"
)

func TestBasicDelivery(t *testing.T) {
	w, err := NewWorld(Config{NumISPs: 2, UsersPerISP: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, err := w.Send("u0@isp0.example", "u1@isp1.example", "hello", "body")
	if err != nil || out != isp.SentPaid {
		t.Fatalf("Send = %v, %v", out, err)
	}
	w.Run()
	inbox := w.Inbox("u1@isp1.example")
	if len(inbox) != 1 || inbox[0].Body != "body" {
		t.Fatalf("inbox = %v", inbox)
	}
	// Payment moved.
	sender, _ := w.Engine(0).User("u0")
	recipient, _ := w.Engine(1).User("u1")
	if sender.Balance != w.Cfg.InitialBalance-1 || recipient.Balance != w.Cfg.InitialBalance+1 {
		t.Fatalf("balances %v / %v", sender.Balance, recipient.Balance)
	}
}

func TestLocalDelivery(t *testing.T) {
	w, err := NewWorld(Config{NumISPs: 1, UsersPerISP: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Send("u0@isp0.example", "u1@isp0.example", "s", "b"); err != nil {
		t.Fatal(err)
	}
	w.Run()
	if w.InboxCount("u1@isp0.example") != 1 {
		t.Fatal("local delivery failed")
	}
}

func TestSendFromNonCompliantRejected(t *testing.T) {
	w, err := NewWorld(Config{NumISPs: 2, Compliant: []bool{true, false}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Send("u0@isp1.example", "u0@isp0.example", "s", "b"); err == nil {
		t.Fatal("Send from non-compliant ISP accepted")
	}
}

func TestInjectUnpaid(t *testing.T) {
	w, err := NewWorld(Config{NumISPs: 2, UsersPerISP: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.InjectUnpaid("spammer.example", "u0@isp0.example", "offer", "spam"); err != nil {
		t.Fatal(err)
	}
	w.Run()
	if w.InboxCount("u0@isp0.example") != 1 {
		t.Fatal("unpaid mail not delivered under AcceptUnpaid")
	}
	u, _ := w.Engine(0).User("u0")
	if u.Balance != w.Cfg.InitialBalance {
		t.Fatal("unpaid mail changed balance")
	}
}

func TestInjectUnpaidRejectedPolicy(t *testing.T) {
	w, err := NewWorld(Config{NumISPs: 1, UsersPerISP: 1, Policy: isp.RejectUnpaid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.InjectUnpaid("spammer.example", "u0@isp0.example", "offer", "spam"); err != nil {
		t.Fatal(err)
	}
	w.Run()
	if w.InboxCount("u0@isp0.example") != 0 {
		t.Fatal("reject policy delivered unpaid mail")
	}
}

func TestForeignRouting(t *testing.T) {
	w, err := NewWorld(Config{NumISPs: 1, UsersPerISP: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, err := w.Send("u0@isp0.example", "x@outside.example", "s", "b")
	if err != nil || out != isp.SentUnpaid {
		t.Fatalf("foreign send = %v, %v", out, err)
	}
	w.Run()
	if w.ForeignCount() != 1 {
		t.Fatalf("foreign count = %d", w.ForeignCount())
	}
}

// TestConservationProperty: for arbitrary traffic patterns and seeds,
// e-pennies are conserved at quiescence (experiment E1's invariant as a
// property test).
func TestConservationProperty(t *testing.T) {
	f := func(seed int64, burst uint8) bool {
		w, err := NewWorld(Config{NumISPs: 3, UsersPerISP: 3, Seed: seed})
		if err != nil {
			return false
		}
		rng := w.Rand()
		n := 50 + int(burst)
		for k := 0; k < n; k++ {
			from := w.UserAddr(rng.Intn(3), rng.Intn(3))
			to := w.UserAddr(rng.Intn(3), rng.Intn(3))
			_, _ = w.Send(from, to, "s", "b")
		}
		w.Run()
		return w.ConservationHolds()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestSnapshotRoundEndToEnd(t *testing.T) {
	w, err := NewWorld(Config{NumISPs: 3, UsersPerISP: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 60; k++ {
		_, _ = w.Send(w.UserAddr(k%3, k%2), w.UserAddr((k+1)%3, (k+1)%2), "s", "b")
	}
	w.Run()
	if err := w.SnapshotRound(); err != nil {
		t.Fatal(err)
	}
	if got := len(w.Bank.Violations()); got != 0 {
		t.Fatalf("honest federation flagged %d pairs", got)
	}
	// Credit arrays reset after the round.
	for i := 0; i < 3; i++ {
		for _, c := range w.Engine(i).Credit() {
			if c != 0 {
				t.Fatalf("isp[%d] credit not reset: %v", i, w.Engine(i).Credit())
			}
		}
	}
	if !w.ConservationHolds() {
		t.Fatal("conservation broken by snapshot")
	}
}

func TestCheaterFlagged(t *testing.T) {
	w, err := NewWorld(Config{NumISPs: 3, UsersPerISP: 3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	w.Engine(1).SetCheat(true)
	for k := 0; k < 200; k++ {
		rng := w.Rand()
		_, _ = w.Send(w.UserAddr(rng.Intn(3), rng.Intn(3)), w.UserAddr(rng.Intn(3), rng.Intn(3)), "s", "b")
	}
	w.Run()
	if err := w.SnapshotRound(); err != nil {
		t.Fatal(err)
	}
	violations := w.Bank.Violations()
	if len(violations) == 0 {
		t.Fatal("cheater not flagged")
	}
	for _, v := range violations {
		if v.I != 1 && v.J != 1 {
			t.Fatalf("honest pair flagged: %v", v)
		}
	}
}

func TestRestockKeepsPoolsInBand(t *testing.T) {
	w, err := NewWorld(Config{
		NumISPs: 2, UsersPerISP: 2,
		MinAvail: 100, MaxAvail: 1000, InitialAvail: 150,
		InitialBalance: 10, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Users buy aggressively, draining the pool below MinAvail.
	for i := 0; i < 2; i++ {
		_ = w.Engine(i).Deposit("u0", 10_000)
		_ = w.Engine(i).BuyEPennies("u0", 100)
		_ = w.Engine(i).Tick()
	}
	w.Run()
	for i := 0; i < 2; i++ {
		if got := w.Engine(i).Avail(); got < 100 {
			t.Fatalf("isp[%d] pool %v below MinAvail after restock", i, got)
		}
	}
	if w.Bank.Stats().BuysAccepted == 0 {
		t.Fatal("no restock happened")
	}
	if !w.ConservationHolds() {
		t.Fatal("conservation broken by restock")
	}
}

func TestEndOfDayWorld(t *testing.T) {
	w, err := NewWorld(Config{NumISPs: 1, UsersPerISP: 1, DefaultLimit: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		if _, err := w.Send("u0@isp0.example", "u0@isp0.example", "s", "b"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Send("u0@isp0.example", "u0@isp0.example", "s", "b"); err == nil {
		t.Fatal("limit not enforced")
	}
	w.EndOfDay()
	if _, err := w.Send("u0@isp0.example", "u0@isp0.example", "s", "b"); err != nil {
		t.Fatalf("after EndOfDay: %v", err)
	}
}

func TestWorldDeterminism(t *testing.T) {
	run := func() string {
		w, err := NewWorld(Config{NumISPs: 3, UsersPerISP: 3, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		rng := w.Rand()
		for k := 0; k < 300; k++ {
			_, _ = w.Send(w.UserAddr(rng.Intn(3), rng.Intn(3)), w.UserAddr(rng.Intn(3), rng.Intn(3)), "s", "b")
		}
		w.Run()
		var sig string
		for i := 0; i < 3; i++ {
			for _, u := range w.Engine(i).Users() {
				sig += fmt.Sprintf("%s=%d;", u.Name, u.Balance)
			}
		}
		return sig
	}
	if run() != run() {
		t.Fatal("world not deterministic for a fixed seed")
	}
}

func TestMixedComplianceInterop(t *testing.T) {
	w, err := NewWorld(Config{
		NumISPs:     3,
		Compliant:   []bool{true, true, false},
		UsersPerISP: 2,
		Seed:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Compliant → non-compliant: transmitted unpaid, delivered to the
	// non-compliant sink.
	out, err := w.Send("u0@isp0.example", "u0@isp2.example", "s", "b")
	if err != nil || out != isp.SentUnpaid {
		t.Fatalf("to non-compliant = %v, %v", out, err)
	}
	w.Run()
	if w.InboxCount("u0@isp2.example") != 1 {
		t.Fatal("mail to non-compliant ISP lost")
	}
	// Non-compliant → compliant via InjectUnpaid.
	if err := w.InjectUnpaid("isp2.example", "u0@isp0.example", "s", "b"); err != nil {
		t.Fatal(err)
	}
	w.Run()
	if w.InboxCount("u0@isp0.example") != 1 {
		t.Fatal("mail from non-compliant ISP lost")
	}
	u, _ := w.Engine(0).User("u0")
	if u.Balance != w.Cfg.InitialBalance-0 {
		// Sent one unpaid (no charge), received one unpaid (no credit).
		t.Fatalf("balance = %v, want unchanged", u.Balance)
	}
}

func TestFreezeBuffersInWorld(t *testing.T) {
	w, err := NewWorld(Config{NumISPs: 2, UsersPerISP: 1, Seed: 4, FreezeDuration: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Bank.StartSnapshot(); err != nil {
		t.Fatal(err)
	}
	w.RunFor(5 * Latency)
	if !w.Engine(0).Frozen() {
		t.Fatal("engine not frozen")
	}
	out, err := w.Send("u0@isp0.example", "u0@isp1.example", "s", "b")
	if err != nil || out != isp.SentBuffered {
		t.Fatalf("frozen send = %v, %v", out, err)
	}
	w.Run()
	if w.InboxCount("u0@isp1.example") != 1 {
		t.Fatal("buffered mail lost")
	}
}

func TestAckSinkRouting(t *testing.T) {
	w, err := NewWorld(Config{NumISPs: 2, UsersPerISP: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	var acks []*mail.Message
	w.SetAckSink("u0@isp0.example", func(m *mail.Message) { acks = append(acks, m) })
	// u0@isp0 sends a ClassList message; the receiving ISP auto-acks.
	listMsg := mail.NewMessage(
		mail.MustParseAddress("u0@isp0.example"),
		mail.MustParseAddress("u1@isp1.example"),
		"issue", "news")
	listMsg.SetClass(mail.ClassList)
	if _, err := w.Engine(0).SubmitSync(listMsg); err != nil {
		t.Fatal(err)
	}
	w.Run()
	if len(acks) != 1 {
		t.Fatalf("acks routed = %d", len(acks))
	}
	if acks[0].Class() != mail.ClassAck {
		t.Fatalf("ack class = %v", acks[0].Class())
	}
	// The distributor's balance is net unchanged (paid 1, refunded 1).
	u, _ := w.Engine(0).User("u0")
	if u.Balance != w.Cfg.InitialBalance {
		t.Fatalf("distributor balance = %v, want %v", u.Balance, w.Cfg.InitialBalance)
	}
}

func TestRealCryptoWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("RSA keygen is slow")
	}
	w, err := NewWorld(Config{NumISPs: 2, UsersPerISP: 1, Seed: 7, RealCrypto: true,
		InitialAvail: 150, MinAvail: 100, MaxAvail: 1000, InitialBalance: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Send("u0@isp0.example", "u0@isp1.example", "s", "b"); err != nil {
		t.Fatal(err)
	}
	// Force bank traffic through the real sealed boxes.
	_ = w.Engine(0).Deposit("u0", 1000)
	_ = w.Engine(0).BuyEPennies("u0", 100)
	_ = w.Engine(0).Tick()
	w.Run()
	if err := w.SnapshotRound(); err != nil {
		t.Fatal(err)
	}
	if w.Bank.Stats().BuysAccepted == 0 {
		t.Fatal("sealed buy never completed")
	}
	if len(w.Bank.Violations()) != 0 {
		t.Fatal("sealed snapshot flagged honest ISPs")
	}
}
