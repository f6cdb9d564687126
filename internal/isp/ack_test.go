package isp

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"zmail/internal/mail"
)

// coalescedAck builds the coalesced ack b.example's ISP sends for a
// list post of announce@a.example that ackers received.
func coalescedAck(ackers ...string) *mail.Message {
	ack := mail.NewMessage(addr(ackers[0]+"@b.example"), addr("announce@a.example"), "Ack: post 1", strings.Join(ackers, "\n"))
	ack.SetClass(mail.ClassAck)
	ack.SetHeader(mail.HeaderAckFor, "<list-1.a.example>")
	ack.SetHeader(mail.HeaderAckCount, fmt.Sprint(len(ackers)))
	ack.SetHeader(mail.HeaderMsgID, "<ack-1.b.example>")
	return ack
}

// TestCoalescedAckCredited: the distributor earns one e-penny per acker
// in one statement line each, the credit against the acking peer falls
// by k, and the ack sink sees each acker's own single ack.
func TestCoalescedAckCredited(t *testing.T) {
	e, ft, _ := newEngine(t, 0, nil, nil)
	mustRegister(t, e, "announce", 0, 5)
	if err := e.ReceiveRemote("b.example", coalescedAck("s1", "s2", "s3")); err != nil {
		t.Fatal(err)
	}
	if d, _ := e.User("announce"); d.Balance != 8 {
		t.Fatalf("distributor balance = %v, want 8", d.Balance)
	}
	if c := e.Credit()[1]; c != -3 {
		t.Fatalf("credit against b = %d, want -3", c)
	}
	if st := e.Stats(); st.ReceivedPaid != 3 || st.AcksReceived != 3 {
		t.Fatalf("stats = %+v, want 3 received and 3 acks", st)
	}
	st, _ := e.Statement("announce")
	var lines []string
	for _, en := range st {
		lines = append(lines, fmt.Sprint(en.Kind, " ", en.Counterparty, " ", en.EPennies))
	}
	if want := []string{"received s1@b.example 1", "received s2@b.example 1", "received s3@b.example 1"}; fmt.Sprint(lines) != fmt.Sprint(want) {
		t.Fatalf("statement %q, want %q", lines, want)
	}
	if len(ft.acks) != 3 {
		t.Fatalf("ack sink got %d calls, want 3", len(ft.acks))
	}
	for i, a := range ft.acks {
		want := addr(fmt.Sprintf("s%d@b.example", i+1))
		// The single ack that acker would have sent, header for header.
		single := mail.NewMessage(want, addr("announce@a.example"), "Ack: post 1", "")
		single.SetClass(mail.ClassAck)
		single.SetHeader(mail.HeaderAckFor, "<list-1.a.example>")
		single.SetHeader(mail.HeaderMsgID, "<ack-1.b.example>")
		m := a.msg
		if a.user != "announce" || m.From != want || m.To != single.To || m.Rcpts != nil || m.Encode() != single.Encode() {
			t.Errorf("ack sink call %d = %s %v %q, want %v's single ack %q", i, a.user, m.From, m.Encode(), want, single.Encode())
		}
	}
}

// TestMalformedCoalescedAckRefused: a coalesced ack is checked whole,
// and one that fails any check is refused with nobody credited.
func TestMalformedCoalescedAckRefused(t *testing.T) {
	names := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprint("s", i)
		}
		return out
	}
	cases := []struct {
		name   string
		from   string // transmitting ISP; b.example when empty
		mutate func(*mail.Message)
	}{
		{"non-compliant peer", "c.example", func(*mail.Message) {}},
		{"foreign sender", "foreign.example", func(*mail.Message) {}},
		{"count not a number", "", func(m *mail.Message) { m.SetHeader(mail.HeaderAckCount, "two") }},
		{"count one", "", func(m *mail.Message) {
			m.SetHeader(mail.HeaderAckCount, "1")
			m.Body = "s1"
		}},
		{"count zero", "", func(m *mail.Message) { m.SetHeader(mail.HeaderAckCount, "0") }},
		{"negative count", "", func(m *mail.Message) { m.SetHeader(mail.HeaderAckCount, "-2") }},
		{"count over 100", "", func(m *mail.Message) {
			m.SetHeader(mail.HeaderAckCount, "101")
			m.Body = strings.Join(names(101), "\n")
		}},
		{"count above the names", "", func(m *mail.Message) { m.SetHeader(mail.HeaderAckCount, "4") }},
		{"count below the names", "", func(m *mail.Message) { m.SetHeader(mail.HeaderAckCount, "2") }},
		{"trailing newline", "", func(m *mail.Message) { m.Body += "\n" }},
		{"empty name", "", func(m *mail.Message) { m.Body = "s1\n\ns3" }},
		{"full address", "", func(m *mail.Message) { m.Body = "s1\ns2@b.example\ns3" }},
		{"space in a name", "", func(m *mail.Message) { m.Body = "s1\ns 2\ns3" }},
		{"control byte", "", func(m *mail.Message) { m.Body = "s1\ns\x002\ns3" }},
		{"duplicate name", "", func(m *mail.Message) { m.Body = "s1\ns2\ns1" }},
		{"two recipients", "", func(m *mail.Message) {
			m.Rcpts = []mail.Address{addr("announce@a.example"), addr("other@a.example")}
		}},
		{"unknown distributor", "", func(m *mail.Message) { m.To = addr("nobody@a.example") }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, ft, _ := newEngine(t, 0, []bool{true, true, false}, nil)
			mustRegister(t, e, "announce", 0, 5)
			mustRegister(t, e, "other", 0, 5)
			total := e.TotalEPennies()
			ack := coalescedAck("s1", "s2", "s3")
			c.mutate(ack)
			from := c.from
			if from == "" {
				from = "b.example"
			}
			if err := e.ReceiveRemote(from, ack); err == nil {
				t.Fatal("accepted")
			}
			for _, u := range []string{"announce", "other"} {
				if d, _ := e.User(u); d.Balance != 5 {
					t.Errorf("%s's balance = %v, want 5", u, d.Balance)
				}
			}
			if c := e.Credit(); c[1] != 0 || c[2] != 0 {
				t.Errorf("credit = %v, want untouched", c)
			}
			if st := e.Stats(); st != (Stats{}) {
				t.Errorf("stats = %+v, want untouched", st)
			}
			if len(ft.acks)+len(ft.local) != 0 || e.TotalEPennies() != total {
				t.Errorf("%d ack-sink calls, %d deliveries, ledger %d of %d", len(ft.acks), len(ft.local), e.TotalEPennies(), total)
			}
		})
	}
}

// TestAckCountHeaderIgnoredOffAcks: the count header marks a coalesced
// ack only on ack-class mail. A local user's normal or list message
// that carries it is charged, relayed and credited as any other, so the
// credit arrays stay antisymmetric; and one received from a foreign
// domain takes the unpaid policy. Each is delivered with its header as
// written.
func TestAckCountHeaderIgnoredOffAcks(t *testing.T) {
	withCount := func(from, to string, class mail.Class) *mail.Message {
		m := mail.NewMessage(addr(from), addr(to), "hello", "s1\ns2\ns3")
		m.SetClass(class)
		m.SetHeader(mail.HeaderAckCount, "3")
		return m
	}
	for _, class := range []mail.Class{mail.ClassNormal, mail.ClassList} {
		t.Run("peer "+class.String(), func(t *testing.T) {
			a, fa, _ := newEngine(t, 0, nil, nil)
			b, fb, _ := newEngine(t, 1, nil, nil)
			fa.onMail = func(sm sentMail) {
				if err := b.ReceiveRemote("a.example", sm.msg); err != nil {
					t.Errorf("b refused %v's message: %v", sm.msg.From, err)
				}
			}
			fb.onMail = func(sm sentMail) {
				if err := a.ReceiveRemote("b.example", sm.msg); err != nil {
					t.Errorf("a refused %v's message: %v", sm.msg.From, err)
				}
			}
			mustRegister(t, a, "alice", 0, 5)
			mustRegister(t, b, "bob", 0, 5)
			if adm, err := a.Submit(withCount("alice@a.example", "bob@b.example", class)); err != nil || adm != AdmitCommitted {
				t.Fatalf("submit = %v, %v", adm, err)
			}
			if len(fb.local) != 1 || fb.local[0].user != "bob" || fb.local[0].msg.Header(mail.HeaderAckCount) != "3" {
				t.Fatalf("b delivered %+v, want alice's message to bob", fb.local)
			}
			wantAlice, wantBob, wantAcks := EPenny(4), EPenny(6), 0
			if class == mail.ClassList {
				// bob's single ack refunds alice the e-penny the post cost.
				wantAlice, wantBob, wantAcks = 5, 5, 1
				if len(fb.mails) != 1 || fb.mails[0].msg.Header(mail.HeaderAckCount) != "" {
					t.Fatalf("b sent %d messages, want one single ack", len(fb.mails))
				}
			}
			if info, _ := a.User("alice"); info.Balance != wantAlice || info.Sent != 1 {
				t.Errorf("alice = %+v, want balance %v after one send", info, wantAlice)
			}
			if info, _ := b.User("bob"); info.Balance != wantBob {
				t.Errorf("bob = %+v, want balance %v", info, wantBob)
			}
			if st := b.Stats(); st.ReceivedPaid != 1 || st.AcksGenerated != int64(wantAcks) {
				t.Errorf("b's stats = %+v", st)
			}
			if len(fa.acks) != wantAcks {
				t.Errorf("a's ack sink got %d calls, want %d", len(fa.acks), wantAcks)
			}
			if ca, cb := a.Credit()[1], b.Credit()[0]; ca+cb != 0 || ca != 1-int64(wantAcks) {
				t.Errorf("credit a→b %d, b→a %d; want antisymmetric", ca, cb)
			}
		})
	}
	t.Run("foreign normal", func(t *testing.T) {
		e, ft, _ := newEngine(t, 0, nil, nil)
		mustRegister(t, e, "alice", 0, 5)
		if err := e.ReceiveRemote("foreign.example", withCount("x@foreign.example", "alice@a.example", mail.ClassNormal)); err != nil {
			t.Fatal(err)
		}
		if len(ft.local) != 1 || ft.local[0].msg.Header(mail.HeaderAckCount) != "3" {
			t.Fatalf("delivered %+v, want alice's message", ft.local)
		}
		if st := e.Stats(); st.ReceivedUnpaid != 1 || st.ReceivedPaid != 0 {
			t.Errorf("stats = %+v, want one unpaid receive", st)
		}
	})
}

// listPost receives a list post from announce@b.example for rcpts, local
// users of a.example, as one transaction.
func listPost(t *testing.T, e *Engine, rcpts ...string) {
	t.Helper()
	post := mail.NewMessage(addr("announce@b.example"), addr(rcpts[0]+"@a.example"), "post 1", "news")
	post.SetClass(mail.ClassList)
	post.SetHeader(mail.HeaderMsgID, "<list-1.b.example>")
	for _, r := range rcpts {
		post.Rcpts = append(post.Rcpts, addr(r+"@a.example"))
	}
	if err := e.ReceiveRemote("b.example", post); err != nil {
		t.Fatal(err)
	}
}

// TestCoalescedAckSent: a list post received for three local users is
// acknowledged by one coalesced ack naming them, relayed once; each
// acker pays its e-penny, and the claim against the distributor's ISP
// rises by three.
func TestCoalescedAckSent(t *testing.T) {
	e, ft, _ := newEngine(t, 0, nil, nil)
	for _, u := range []string{"s1", "s2", "s3"} {
		mustRegister(t, e, u, 0, 0)
	}
	listPost(t, e, "s1", "s2", "s3")
	if len(ft.local) != 3 || len(ft.mails) != 1 {
		t.Fatalf("%d deliveries and %d messages sent, want 3 and one ack", len(ft.local), len(ft.mails))
	}
	ack := ft.mails[0].msg
	if ack.Class() != mail.ClassAck || ack.Header(mail.HeaderAckCount) != "3" || ack.Body != "s1\ns2\ns3" ||
		ack.From != addr("s1@a.example") || ack.To != addr("announce@b.example") ||
		ack.Header(mail.HeaderAckFor) != "<list-1.b.example>" {
		t.Fatalf("ack = %q", ack.Encode())
	}
	for _, u := range []string{"s1", "s2", "s3"} {
		if info, _ := e.User(u); info.Balance != 0 || info.Sent != 0 {
			t.Errorf("%s = %+v, want the earned e-penny spent on the ack", u, info)
		}
	}
	if c := e.Credit()[1]; c != 0 {
		t.Errorf("credit against b = %d, want -3 for the post and +3 for the ack", c)
	}
	if st := e.Stats(); st.AcksGenerated != 3 || st.SentPaid != 3 || st.Submitted != 3 || st.ReceivedPaid != 3 {
		t.Errorf("stats = %+v, want three of each", st)
	}
}

// TestCoalescedAckDropsUnfunded: an acker who cannot pay is dropped
// from the coalesced ack, as a failed single ack is; the ack relayed
// names only the payers, and a lone payer's is the single ack.
func TestCoalescedAckDropsUnfunded(t *testing.T) {
	for _, c := range []struct {
		name     string
		balances map[string]int64
		body     string // of the relayed ack; "" for a single ack
		from     string
	}{
		{"one of three", map[string]int64{"s1": 0, "s2": 1, "s3": 1}, "s2\ns3", "s2"},
		{"two of three", map[string]int64{"s1": 1, "s2": 0, "s3": 0}, "", "s1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, ft, _ := newEngine(t, 0, nil, nil)
			paid := int64(0)
			for u, b := range c.balances {
				mustRegister(t, e, u, 0, b)
				paid += b
			}
			ack := mail.NewMessage(addr("s1@a.example"), addr("announce@b.example"), "Ack: post 1", "s1\ns2\ns3")
			ack.SetClass(mail.ClassAck)
			ack.SetHeader(mail.HeaderAckCount, "3")
			if out, err := e.SubmitSync(ack); err != nil || out != SentPaid {
				t.Fatalf("submit = %v, %v", out, err)
			}
			if len(ft.mails) != 1 {
				t.Fatalf("%d messages sent, want one", len(ft.mails))
			}
			got := ft.mails[0].msg
			wantCount := ""
			if c.body != "" {
				wantCount = fmt.Sprint(strings.Count(c.body, "\n") + 1)
			}
			if got.Body != c.body || got.Header(mail.HeaderAckCount) != wantCount || got.From != addr(c.from+"@a.example") {
				t.Fatalf("relayed ack = %q", got.Encode())
			}
			if cr := e.Credit()[1]; cr != paid {
				t.Errorf("credit against b = %d, want %d", cr, paid)
			}
			if st := e.Stats(); st.BalanceRejects != 3-paid || st.SentPaid != paid || st.Submitted != 3 {
				t.Errorf("stats = %+v", st)
			}
			for u := range c.balances {
				if info, _ := e.User(u); info.Balance != 0 {
					t.Errorf("%s = %+v, want balance 0", u, info)
				}
			}
		})
	}
	t.Run("nobody", func(t *testing.T) {
		e, ft, _ := newEngine(t, 0, nil, nil)
		mustRegister(t, e, "s1", 0, 0)
		mustRegister(t, e, "s2", 0, 0)
		ack := mail.NewMessage(addr("s1@a.example"), addr("announce@b.example"), "Ack: post 1", "s1\ns2")
		ack.SetClass(mail.ClassAck)
		ack.SetHeader(mail.HeaderAckCount, "2")
		if _, err := e.SubmitSync(ack); !errors.Is(err, ErrInsufficientBalance) {
			t.Fatalf("submit err = %v, want ErrInsufficientBalance", err)
		}
		if len(ft.mails) != 0 || e.Credit()[1] != 0 {
			t.Fatalf("%d sent, credit %d; want nothing", len(ft.mails), e.Credit()[1])
		}
	})
}

// TestCoalescedAckBufferedWhole: the ack of a list post received during
// a freeze is buffered as one message and charges nobody; at thaw it is
// charged whole — each acker one e-penny — and relayed once.
func TestCoalescedAckBufferedWhole(t *testing.T) {
	e, ft, clk := newEngine(t, 0, nil, nil)
	for _, u := range []string{"s1", "s2", "s3"} {
		mustRegister(t, e, u, 0, 0)
	}
	e.ForceSnapshot()
	listPost(t, e, "s1", "s2", "s3")
	e.mu.Lock()
	buffered := len(e.outbox)
	e.mu.Unlock()
	if buffered != 1 || len(ft.mails) != 0 {
		t.Fatalf("outbox %d, sent %d; want the one ack held", buffered, len(ft.mails))
	}
	for _, u := range []string{"s1", "s2", "s3"} {
		if info, _ := e.User(u); info.Balance != 1 {
			t.Fatalf("%s charged while frozen: %+v", u, info)
		}
	}
	if st := e.Stats(); st.Buffered != 3 || st.AcksGenerated != 3 {
		t.Fatalf("stats = %+v, want three acks buffered", st)
	}

	clk.Advance(thawAfter)
	for _, u := range []string{"s1", "s2", "s3"} {
		if info, _ := e.User(u); info.Balance != 0 || info.Sent != 0 {
			t.Errorf("%s after thaw = %+v, want the ack paid outside the limit", u, info)
		}
	}
	if len(ft.mails) != 1 || ft.mails[0].msg.Header(mail.HeaderAckCount) != "3" {
		t.Fatalf("%d messages sent at thaw, want one coalesced ack", len(ft.mails))
	}
	if st := e.Stats(); st.SentPaid != 3 || st.Submitted != 6 {
		t.Errorf("stats after thaw = %+v, want three paid acks counted at freeze and thaw", st)
	}
}
