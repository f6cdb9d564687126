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
// statement line per recipient. The grouped engine's WAL rebuilds its
// exported state exactly.
func TestGroupedEquivalenceProperty(t *testing.T) {
	type envelope struct {
		From, Class uint8
		To          []uint8
	}
	pool := []string{"a@a.example", "b@a.example", "c@a.example", "x@b.example", "y@b.example", "z@c.example", "w@foreign.example"}
	senders := []string{"a", "b", "c"}
	classes := []mail.Class{mail.ClassNormal, mail.ClassList, mail.ClassAck}
	engine := func(users bool) *Engine {
		e, _, _ := newEngine(t, 0, []bool{true, true, false}, func(c *Config) {
			c.DefaultLimit = 1 << 30
			c.MaxAvail = 1 << 40
			c.InitialAvail = 100_000
		})
		if users {
			for _, u := range senders {
				mustRegister(t, e, u, 0, 1000)
			}
		}
		return e
	}
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
	f := func(envs []envelope) bool {
		grouped, single := engine(true), engine(true)
		dir := filepath.Join(t.TempDir(), "wal")
		if err := grouped.AttachWAL(dir); err != nil {
			t.Fatal(err)
		}
		// At most 12 envelopes of 6 keep every statement inside its ring,
		// which would otherwise drop different lines in the two orders.
		for _, env := range envs[:min(len(envs), 12)] {
			from := addr(senders[int(env.From)%len(senders)] + "@a.example")
			class := classes[int(env.Class)%len(classes)]
			var rcpts []mail.Address
			for _, i := range env.To {
				if to := addr(pool[int(i)%len(pool)]); len(rcpts) < 6 && !slices.Contains(rcpts, to) {
					rcpts = append(rcpts, to)
				}
			}
			if len(rcpts) == 0 {
				continue
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
		}
		if !slices.Equal(grouped.Users(), single.Users()) || !slices.Equal(grouped.Credit(), single.Credit()) {
			t.Logf("users %v / %v, credit %v / %v", grouped.Users(), single.Users(), grouped.Credit(), single.Credit())
			return false
		}
		if grouped.Stats() != single.Stats() {
			t.Logf("stats %+v / %+v", grouped.Stats(), single.Stats())
			return false
		}
		// The per-recipient engine writes one line per paid recipient, so
		// equal statements are one line per recipient in the grouped one.
		for _, u := range senders {
			if !slices.Equal(lines(grouped, u), lines(single, u)) {
				t.Logf("%s's statement %v / %v", u, lines(grouped, u), lines(single, u))
				return false
			}
		}
		want := exportJSON(t, grouped)
		if err := grouped.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		recovered := engine(false)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
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
