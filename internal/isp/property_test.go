package isp

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"zmail/internal/clock"
	"zmail/internal/mail"
)

// TestEngineConservationProperty drives one engine with arbitrary
// operation sequences — local and remote submits, inbound paid mail,
// user trades, deposits, freezes with buffered mail, daily resets —
// and checks after every step that e-pennies are conserved at the
// engine boundary:
//
//	pool + Σbalances + Σcredit + Σ(credit wiped by snapshots) == initial
//
// A snapshot reset moves the period's claims to the bank's books; it
// must never destroy value.
func TestEngineConservationProperty(t *testing.T) {
	type op struct {
		Kind byte
		A, B uint8
	}
	f := func(ops []op) bool {
		ft := &fakeTransport{}
		clk := clock.NewVirtual(time.Unix(1_100_000_000, 0))
		e, err := New(Config{
			Index:          0,
			Domain:         testDomains[0],
			Directory:      NewDirectory(testDomains, nil),
			Clock:          clk,
			Transport:      ft,
			MinAvail:       10,
			MaxAvail:       1 << 40, // never auto-sell: no bank flows here
			InitialAvail:   10_000,
			DefaultLimit:   1 << 30,
			FreezeDuration: time.Minute,
		})
		if err != nil {
			return false
		}
		users := []string{"a", "b", "c"}
		for _, u := range users {
			if err := e.RegisterUser(u, 1000, 100, 0); err != nil {
				return false
			}
		}
		const initial = int64(10_000)

		var wipedBySnapshots int64
		check := func() bool {
			return e.TotalEPennies()+wipedBySnapshots == initial
		}
		if !check() {
			return false
		}

		for _, o := range ops {
			u := users[int(o.A)%len(users)]
			v := users[int(o.B)%len(users)]
			switch o.Kind % 8 {
			case 0: // local mail
				msg := mail.NewMessage(addr(u+"@a.example"), addr(v+"@a.example"), "s", "b")
				_, _ = e.SubmitSync(msg)
			case 1: // paid remote mail (credit +1 stays on the books)
				msg := mail.NewMessage(addr(u+"@a.example"), addr("x@b.example"), "s", "b")
				_, _ = e.SubmitSync(msg)
			case 2: // inbound paid mail
				msg := mail.NewMessage(addr("x@c.example"), addr(v+"@a.example"), "s", "b")
				_ = e.ReceiveRemote("c.example", msg)
			case 3: // user buys e-pennies
				_ = e.BuyEPennies(u, int64(o.B)%50+1)
			case 4: // user sells e-pennies
				_ = e.SellEPennies(u, int64(o.B)%50+1)
			case 5: // real-money ops (must not touch e-pennies)
				_ = e.Deposit(u, 10)
				_ = e.Withdraw(v, 5)
			case 6: // freeze, buffer one send, thaw
				pre := e.Credit() // the claims the reset will wipe
				e.ForceSnapshot()
				msg := mail.NewMessage(addr(u+"@a.example"), addr("x@b.example"), "s", "b")
				if out, err := e.SubmitSync(msg); err == nil && out != SentBuffered {
					return false // frozen engine must buffer
				}
				clk.Advance(thawAfter)
				for _, c := range pre {
					wipedBySnapshots += c
				}
			case 7:
				e.EndOfDay()
			}
			if !check() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestGroupedEquivalenceProperty: random envelopes mixing local, peer,
// non-compliant and foreign recipients, in every class, committed once
// as one message each and once as one message per recipient, leave the
// same ledger — per-user balance and sent, credit, stats, and one
// statement line per recipient. Inbound normal and list envelopes from
// a compliant peer, received once whole and once one recipient at a
// time, leave the same ledger too; the acks each side sends back, fed
// into a distributor engine of its own, leave the two distributors the
// same and make the same ack-sink calls. Every grouped engine's WAL
// rebuilds its exported state exactly.
func TestGroupedEquivalenceProperty(t *testing.T) {
	type envelope struct {
		From, Class uint8
		To          []uint8
	}
	pool := []string{"a@a.example", "b@a.example", "c@a.example", "x@b.example", "y@b.example", "z@c.example", "w@foreign.example"}
	senders := []string{"a", "b", "c"}
	classes := []mail.Class{mail.ClassNormal, mail.ClassList, mail.ClassAck}
	distributors := []string{"list", "x", "y"}
	engine := func(index int, users []string) *Engine {
		e, _, _ := newEngine(t, index, []bool{true, true, false}, func(c *Config) {
			c.DefaultLimit = 1 << 30
			c.MaxAvail = 1 << 40
			c.InitialAvail = 100_000
		})
		for _, u := range users {
			mustRegister(t, e, u, 0, 1000)
		}
		return e
	}
	transport := func(e *Engine) *fakeTransport { return e.cfg.Transport.(*fakeTransport) }
	// lines renders a statement without the fields that differ by
	// construction: sequence numbers and Message-Ids.
	lines := func(e *Engine, u string) []string {
		st, _ := e.Statement(u)
		var out []string
		for _, en := range st {
			out = append(out, fmt.Sprint(en.Kind, en.Counterparty, en.EPennies))
		}
		slices.Sort(out)
		return out
	}
	same := func(what string, grouped, single *Engine, users []string) bool {
		if !slices.Equal(grouped.Users(), single.Users()) || !slices.Equal(grouped.Credit(), single.Credit()) {
			t.Logf("%s: users %v / %v, credit %v / %v", what, grouped.Users(), single.Users(), grouped.Credit(), single.Credit())
			return false
		}
		if grouped.Stats() != single.Stats() {
			t.Logf("%s: stats %+v / %+v", what, grouped.Stats(), single.Stats())
			return false
		}
		// The per-recipient engine writes one line per paid recipient, so
		// equal statements are one line per recipient in the grouped one.
		for _, u := range users {
			if !slices.Equal(lines(grouped, u), lines(single, u)) {
				t.Logf("%s: %s's statement %v / %v", what, u, lines(grouped, u), lines(single, u))
				return false
			}
		}
		return true
	}
	// acks feeds the acks e sent its peer into distributor d, and
	// returns the ack-sink calls d made, sorted: a recipient named twice
	// in one transaction gets its second ack after the coalesced one.
	coalesced := 0
	acks := func(e, d *Engine) []string {
		for _, sm := range transport(e).mails {
			if sm.msg.Header(mail.HeaderAckCount) != "" {
				coalesced++
			}
			if sm.toIndex == 1 && sm.msg.Class() == mail.ClassAck {
				if err := d.ReceiveRemote("a.example", sm.msg); err != nil {
					t.Fatalf("distributor refused %v: %v", sm.msg.Rcpts, err)
				}
			}
		}
		var calls []string
		for _, a := range transport(d).acks {
			calls = append(calls, fmt.Sprint(a.user, " ", a.msg.From, " ", a.msg.Subject(), " ", a.msg.Header(mail.HeaderAckFor)))
		}
		slices.Sort(calls)
		return calls
	}
	recovers := func(e *Engine, dir string, index int) bool {
		want := exportJSON(t, e)
		if err := e.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		recovered := engine(index, nil)
		if err := recovered.RecoverWAL(dir); err != nil {
			t.Fatal(err)
		}
		defer recovered.CloseWAL()
		if got := exportJSON(t, recovered); !bytes.Equal(got, want) {
			t.Logf("recovered %s\nwant %s", got, want)
			return false
		}
		return true
	}
	// receive takes inbound envelope i from the compliant peer, to local
	// users, a user possibly named twice: whole at grouped, one
	// recipient at a time at single.
	receive := func(grouped, single *Engine, i int, env envelope) bool {
		from, class := addr("x@b.example"), mail.ClassNormal
		if env.Class%2 == 1 {
			from, class = addr("list@b.example"), mail.ClassList
		}
		var rcpts []mail.Address
		for _, j := range env.To[:min(len(env.To), 6)] {
			rcpts = append(rcpts, addr(senders[int(j)%len(senders)]+"@a.example"))
		}
		if len(rcpts) == 0 {
			return true
		}
		inbound := func(to mail.Address) *mail.Message {
			m := mail.NewMessage(from, to, fmt.Sprint("post ", i), "b")
			m.SetClass(class)
			m.SetHeader(mail.HeaderMsgID, fmt.Sprintf("<post-%d@b.example>", i))
			return m
		}
		m := inbound(rcpts[0])
		if len(rcpts) > 1 {
			m.Rcpts = rcpts
		}
		if err := grouped.ReceiveRemote("b.example", m); err != nil {
			t.Logf("grouped receive: %v", err)
			return false
		}
		for _, to := range rcpts {
			if err := single.ReceiveRemote("b.example", inbound(to)); err != nil {
				t.Logf("single receive: %v", err)
				return false
			}
		}
		return true
	}
	// send submits outbound envelope env: as one message at grouped, as
	// one message per recipient at single.
	send := func(grouped, single *Engine, env envelope) bool {
		from := addr(senders[int(env.From)%len(senders)] + "@a.example")
		class := classes[int(env.Class)%len(classes)]
		var rcpts []mail.Address
		for _, i := range env.To {
			if to := addr(pool[int(i)%len(pool)]); len(rcpts) < 6 && !slices.Contains(rcpts, to) {
				rcpts = append(rcpts, to)
			}
		}
		if len(rcpts) == 0 {
			return true
		}
		m := mail.NewMessage(from, rcpts[0], "s", "b")
		m.SetClass(class)
		if len(rcpts) > 1 {
			m.Rcpts = rcpts
		}
		if _, err := grouped.SubmitSync(m); err != nil {
			t.Logf("grouped submit: %v", err)
			return false
		}
		for _, to := range rcpts {
			one := mail.NewMessage(from, to, "s", "b")
			one.SetClass(class)
			if _, err := single.SubmitSync(one); err != nil {
				t.Logf("single submit: %v", err)
				return false
			}
		}
		return true
	}
	f := func(envs, ins []envelope) bool {
		grouped, single := engine(0, senders), engine(0, senders)
		dir := filepath.Join(t.TempDir(), "wal")
		if err := grouped.AttachWAL(dir); err != nil {
			t.Fatal(err)
		}
		// At most 12 outbound and 12 inbound envelopes of 6 keep every
		// statement inside its ring, which would otherwise drop different
		// lines in the two orders. The two kinds interleave.
		for i := range 12 {
			if i < len(envs) && !send(grouped, single, envs[i]) {
				return false
			}
			if i < len(ins) && !receive(grouped, single, i, ins[i]) {
				return false
			}
		}
		if !same("receiver", grouped, single, senders) {
			return false
		}
		groupedDist, singleDist := engine(1, distributors), engine(1, distributors)
		distDir := filepath.Join(t.TempDir(), "dist")
		if err := groupedDist.AttachWAL(distDir); err != nil {
			t.Fatal(err)
		}
		if g, s := acks(grouped, groupedDist), acks(single, singleDist); !slices.Equal(g, s) {
			t.Logf("ack sink calls %q / %q", g, s)
			return false
		}
		if !same("distributor", groupedDist, singleDist, distributors) {
			return false
		}
		return recovers(grouped, dir, 0) && recovers(groupedDist, distDir, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	if coalesced == 0 {
		t.Error("no run sent a coalesced ack")
	}
}

// TestEngineNeverNegativeProperty: no operation sequence can drive a
// balance, the pool, or an account negative.
func TestEngineNeverNegativeProperty(t *testing.T) {
	type op struct {
		Kind byte
		A, B uint8
	}
	f := func(ops []op) bool {
		ft := &fakeTransport{}
		clk := clock.NewVirtual(time.Unix(1_100_000_000, 0))
		e, err := New(Config{
			Index: 0, Domain: testDomains[0],
			Directory: NewDirectory(testDomains, nil),
			Clock:     clk, Transport: ft,
			MinAvail: 10, MaxAvail: 1 << 40, InitialAvail: 200,
			DefaultLimit: 5,
		})
		if err != nil {
			return false
		}
		_ = e.RegisterUser("a", 20, 10, 3)
		_ = e.RegisterUser("b", 0, 0, 3)
		for _, o := range ops {
			u := "a"
			if o.A%2 == 1 {
				u = "b"
			}
			switch o.Kind % 6 {
			case 0:
				msg := mail.NewMessage(addr(u+"@a.example"), addr("x@b.example"), "s", "b")
				_, _ = e.SubmitSync(msg)
			case 1:
				_ = e.BuyEPennies(u, int64(o.B)+1)
			case 2:
				_ = e.SellEPennies(u, int64(o.B)+1)
			case 3:
				_ = e.Withdraw(u, 7)
			case 4:
				msg := mail.NewMessage(addr("x@b.example"), addr(u+"@a.example"), "s", "b")
				_ = e.ReceiveRemote("b.example", msg)
			case 5:
				e.EndOfDay()
			}
			if e.Avail() < 0 {
				return false
			}
			for _, info := range e.Users() {
				if info.Balance < 0 || info.Account < 0 {
					return false
				}
				if info.Sent > info.Limit {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
