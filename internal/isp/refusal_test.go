package isp

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"zmail/internal/clock"
	"zmail/internal/crypto"
	"zmail/internal/mail"
	"zmail/internal/wire"
)

// ledger is everything a refusal must leave alone: every user row, the
// pool and every credit cell.
type ledger struct {
	users  []UserInfo
	avail  EPenny
	credit []int64
}

func ledgerOf(e *Engine) ledger {
	return ledger{users: e.Users(), avail: e.Avail(), credit: e.Credit()}
}

func (l ledger) equal(m ledger) bool {
	return slices.Equal(l.users, m.users) && l.avail == m.avail && slices.Equal(l.credit, m.credit)
}

// keySealer stands in for a keypair: Seal tags a payload with the key,
// and Open refuses a payload tagged with another key with
// crypto.ErrBadSeal, as a crypto.Box refuses one sealed to another key.
type keySealer byte

func (k keySealer) Seal(plain []byte) ([]byte, error) { return append([]byte{byte(k)}, plain...), nil }

func (k keySealer) Open(sealed []byte) ([]byte, error) {
	if len(sealed) == 0 || sealed[0] != byte(k) {
		return nil, crypto.ErrBadSeal
	}
	return slices.Clone(sealed[1:]), nil
}

func (k keySealer) PublicOnly() crypto.Sealer { return k }

// seal is Seal for a sealer that cannot fail.
func (k keySealer) seal(plain []byte) []byte {
	out, _ := k.Seal(plain)
	return out
}

// TestRefusalsAreMoneyNeutral drives one engine with random scripts that
// mix every refusal the engine makes — unknown sender or recipient, a
// broke sender, the daily limit, mail for another ISP's user, an ack
// from a non-compliant peer and a malformed one, ack-class submission,
// bad buys, sells, deposits, withdrawals and registrations, stale and
// overfilled bank replies, stale snapshot requests, truncated bank
// replies and requests and ones sealed to another key — with the
// accepted operations they shadow, ticks and audit freezes. After
// every operation the engine holds none of its locks, e-pennies and
// real pennies are conserved at the engine boundary, and after every
// operation that returns an error every user row, the pool and every
// credit cell are as they were. A bank message that fails to open or
// decode must be refused with the sealer's or the decoder's own error.
func TestRefusalsAreMoneyNeutral(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		refusalScript(t, rand.New(rand.NewSource(seed)), 120)
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
}

func refusalScript(t *testing.T, rng *rand.Rand, steps int) {
	ft := &fakeTransport{}
	clk := clock.NewVirtual(time.Unix(1_100_000_000, 0))
	ispKey, bankKey, otherKey := keySealer(1), keySealer(2), keySealer(3)
	e, err := New(Config{
		Index: 0, Domain: testDomains[0], Directory: NewDirectory(testDomains, []bool{true, true, false}),
		Clock: clk, Transport: ft,
		MinAvail: 50, MaxAvail: 1 << 40, InitialAvail: 200, DefaultLimit: 4,
		FreezeDuration: time.Minute, BankSealer: bankKey, OwnSealer: ispKey,
	})
	if err != nil {
		t.Fatal(err)
	}
	users := []string{"alice", "bob", "carol"}
	for i, name := range users {
		if err := e.RegisterUser(name, Penny(100*i), EPenny(20*i), 0); err != nil {
			t.Fatal(err)
		}
	}
	// The engine's e-penny boundary: bank fills mint into the pool and
	// a snapshot's cut moves the period's claims to the bank's books.
	// Its real-penny boundary: users' deposits, withdrawals and the
	// accounts they register with, and the ISP's till, which takes a
	// user's pennies for each e-penny bought and pays them for each
	// sold.
	eInit, rInit := e.TotalEPennies(), int64(300)
	var minted, wiped, paidIn, till int64
	var order *wire.BatchOrder
	var oldReplies []*wire.Envelope
	ghost := "ghost"
	pick := func() string {
		if rng.Intn(6) == 0 {
			return ghost
		}
		return users[rng.Intn(len(users))]
	}
	msg := func(from, to string) *mail.Message {
		return mail.NewMessage(addr(from), addr(to), "s", "b")
	}
	fromBank := func(kind wire.Kind, body []byte) *wire.Envelope {
		return &wire.Envelope{Kind: kind, From: -1, Payload: ispKey.seal(body)}
	}
	for step := range steps {
		before := ledgerOf(e)
		var what string
		var err error
		var thaw bool // the step froze the engine; end the freeze after the checks
		switch rng.Intn(16) {
		case 0:
			from, to := pick(), pick()
			what = fmt.Sprintf("local send %s→%s", from, to)
			_, err = e.SubmitSync(msg(from+"@a.example", to+"@a.example"))
		case 1:
			from := pick()
			m := msg(from+"@a.example", "x@b.example")
			if k := rng.Intn(3); k > 0 {
				m.Rcpts = []mail.Address{m.To}
				for i := range k {
					m.Rcpts = append(m.Rcpts, addr(fmt.Sprintf("x%d@b.example", i)))
				}
			}
			what = fmt.Sprintf("paid send %s→%d at b", from, len(m.Recipients()))
			_, err = e.SubmitSync(m)
		case 2:
			from := pick()
			what = fmt.Sprintf("unpaid send %s→c", from)
			_, err = e.SubmitSync(msg(from+"@a.example", "y@c.example"))
		case 3:
			from, to := pick(), pick()
			m := msg(from+"@a.example", to+"@a.example")
			if rng.Intn(2) == 0 {
				m.SetClass(mail.ClassAck)
			}
			what = fmt.Sprintf("admit %s %s→%s", m.Class(), from, to)
			_, err = e.Submit(m)
		case 4:
			m := msg("x@b.example", pick()+"@a.example")
			if rng.Intn(2) == 0 {
				m.Rcpts = []mail.Address{m.To, addr(pick() + "@a.example")}
			}
			what = fmt.Sprintf("paid receive for %v", m.Recipients())
			err = e.ReceiveRemote("b.example", m)
		case 5:
			what = "receive for another ISP's user"
			err = e.ReceiveRemote("b.example", msg("x@b.example", "z@c.example"))
		case 6:
			ack := coalescedAck("p", "q")
			ack.To = addr(pick() + "@a.example")
			from := "b.example"
			if rng.Intn(2) == 0 {
				from = "c.example"
			} else {
				ack.SetHeader(mail.HeaderAckCount, "3")
			}
			what = "refusable coalesced ack from " + from
			err = e.ReceiveRemote(from, ack)
		case 7:
			u, x := pick(), int64(rng.Intn(400)-20)
			what = fmt.Sprintf("buy %s %d", u, x)
			if err = e.BuyEPennies(u, x); err == nil {
				till += x
			}
		case 8:
			u, x := pick(), int64(rng.Intn(60)-5)
			what = fmt.Sprintf("sell %s %d", u, x)
			if err = e.SellEPennies(u, x); err == nil {
				till -= x
			}
		case 9:
			u, x := pick(), Penny(rng.Intn(300)-20)
			if rng.Intn(2) == 0 {
				what = fmt.Sprintf("deposit %s %d", u, x)
				if err = e.Deposit(u, x); err == nil {
					paidIn += int64(x)
				}
			} else {
				what = fmt.Sprintf("withdraw %s %d", u, x)
				if err = e.Withdraw(u, x); err == nil {
					paidIn -= int64(x)
				}
			}
		case 10:
			name := fmt.Sprintf("u%d", rng.Intn(8))
			if rng.Intn(4) == 0 {
				name = users[0]
			}
			acct, bal := Penny(rng.Intn(50)), EPenny(rng.Intn(300))
			what = fmt.Sprintf("register %s with %d", name, bal)
			if err = e.RegisterUser(name, acct, bal, 0); err == nil {
				paidIn += int64(acct)
				if !slices.Contains(users, name) {
					users = append(users, name)
				}
			}
		case 11:
			what = "tick"
			n := len(ft.bank)
			err = e.Tick()
			if len(ft.bank) > n {
				plain, oerr := bankKey.Open(ft.bank[len(ft.bank)-1].Payload)
				if oerr != nil {
					t.Fatal(oerr)
				}
				order = new(wire.BatchOrder)
				if uerr := order.UnmarshalBinary(plain); uerr != nil {
					t.Fatal(uerr)
				}
			}
		case 12:
			switch {
			case order != nil:
				fill := []int64{0, order.Buy / 2, order.Buy, order.Buy + 1}[rng.Intn(4)] // Buy+1 overfills
				reply := fromBank(wire.KindBatchReply, (&wire.BatchReply{Nonce: order.Nonce, BuyFilled: fill}).MarshalBinary())
				what = fmt.Sprintf("batch reply %d of %d", fill, order.Buy)
				if err = e.HandleBank(reply); err == nil {
					minted += fill
				}
				oldReplies = append(oldReplies, reply)
				order = nil
			case len(oldReplies) > 0:
				what = "replayed batch reply"
				err = e.HandleBank(oldReplies[rng.Intn(len(oldReplies))])
			default:
				what = "snapshot request for seq 0"
				err = e.HandleBank(fromBank(wire.KindRequest, (&wire.Request{Seq: 0}).MarshalBinary()))
				thaw = err == nil
			}
		case 13:
			from := pick()
			what = fmt.Sprintf("freeze, send %s→b, thaw", from)
			e.ForceSnapshot()
			before = ledgerOf(e)
			_, err = e.SubmitSync(msg(from+"@a.example", "x@b.example"))
			thaw = true
		case 14:
			what = "end of day"
			e.EndOfDay()
		case 15:
			// The outstanding order's full reply, or a request for the next
			// round: accepted whole, so only the open or the decode refuses.
			kind, body := wire.KindRequest, (&wire.Request{Seq: e.ExportState().Seq + 1}).MarshalBinary()
			if order != nil && rng.Intn(2) == 0 {
				kind, body = wire.KindBatchReply, (&wire.BatchReply{Nonce: order.Nonce, BuyFilled: order.Buy}).MarshalBinary()
			}
			env, want := fromBank(kind, body[:len(body)-1]), wire.ErrShortMessage
			what = fmt.Sprintf("truncated %v", kind)
			if rng.Intn(2) == 0 {
				env, want = &wire.Envelope{Kind: kind, From: -1, Payload: otherKey.seal(body)}, crypto.ErrBadSeal
				what = fmt.Sprintf("%v sealed to another key", kind)
			}
			if err = e.HandleBank(env); !errors.Is(err, want) {
				t.Fatalf("step %d, %s: %v, want %v", step, what, err, want)
			}
		}
		if held := heldLocks(e); len(held) > 0 {
			t.Fatalf("step %d, %s: returned holding %v", step, what, held)
		}
		after := ledgerOf(e)
		if err != nil && !after.equal(before) {
			t.Fatalf("step %d, %s: refused (%v) but the ledger moved:\n before %+v\n after  %+v", step, what, err, before, after)
		}
		if thaw {
			for _, c := range after.credit {
				wiped += c // the cut moves the period's claims to the bank
			}
			clk.Advance(thawAfter)
			after = ledgerOf(e)
		}
		if got := e.TotalEPennies() + wiped - minted; got != eInit {
			t.Fatalf("step %d, %s: e-pennies not conserved: %d, want %d", step, what, got, eInit)
		}
		var accounts int64
		for _, u := range after.users {
			accounts += int64(u.Account)
		}
		if got := accounts + till - paidIn; got != rInit {
			t.Fatalf("step %d, %s: real pennies not conserved: %d, want %d", step, what, got, rInit)
		}
	}
}
