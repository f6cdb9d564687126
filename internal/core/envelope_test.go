package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zmail/internal/mail"
	"zmail/internal/money"
	"zmail/internal/smtp"
)

// sendOverSMTP runs one transaction against node n with a fresh client.
func sendOverSMTP(t *testing.T, n *Node, from mail.Address, rcpts []mail.Address, msg *mail.Message) error {
	t.Helper()
	c, err := smtp.Dial(n.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Hello("client.example"); err != nil {
		t.Fatal(err)
	}
	return c.Send(from, rcpts, msg)
}

// TestSubmissionAllOrNothing: a DATA that answers 550 has charged
// nobody. A sender short of the limit or of e-pennies for all five
// recipients is refused for all five, with the queue on and off.
func TestSubmissionAllOrNothing(t *testing.T) {
	for _, queue := range []bool{false, true} {
		for _, tc := range []struct {
			name     string
			balance  money.EPenny
			limit    int64
			warnings int64
		}{
			{"limit", 100, 3, 1},
			{"balance", 2, 100, 0},
		} {
			t.Run(fmt.Sprintf("%s/queue=%v", tc.name, queue), func(t *testing.T) {
				var diag diagnostics
				n := relayNode(t, 0, "alice", func(c *NodeConfig) {
					c.Logf = diag.logf
					c.Queue = queue
				})
				eng := n.Engine()
				if err := eng.RegisterUser("sender", 0, tc.balance, tc.limit); err != nil {
					t.Fatal(err)
				}
				from := mail.Address{Local: "sender", Domain: relayDomains[0]}
				var rcpts []mail.Address
				for i := 0; i < 5; i++ {
					name := fmt.Sprint("r", i)
					if err := eng.RegisterUser(name, 0, 0, 0); err != nil {
						t.Fatal(err)
					}
					rcpts = append(rcpts, mail.Address{Local: name, Domain: relayDomains[0]})
				}
				total := eng.TotalEPennies()

				err := sendOverSMTP(t, n, from, rcpts, mail.NewMessage(from, rcpts[0], "s", "b"))
				var pe *smtp.ProtocolError
				if !errors.As(err, &pe) || pe.Code != 550 {
					t.Fatalf("send = %v, want a 550", err)
				}
				eng.FlushQueue()
				if u, _ := eng.User("sender"); u.Balance != tc.balance || u.Sent != 0 {
					t.Fatalf("sender after refusal = %+v, want balance %v and sent 0", u, tc.balance)
				}
				for _, r := range rcpts {
					if u, _ := eng.User(r.Local); u.Balance != 0 || len(n.Inbox(r.Local)) != 0 {
						t.Fatalf("%s got mail or e-pennies from a refused transaction: %+v", r.Local, u)
					}
				}
				if got := eng.TotalEPennies(); got != total {
					t.Fatalf("ledger holds %d e-pennies, want %d", got, total)
				}
				if got := eng.Stats().ZombieWarnings; got != tc.warnings || int64(len(n.Inbox("sender"))) != tc.warnings {
					t.Fatalf("%d zombie warnings, %d in the inbox; want %d", got, len(n.Inbox("sender")), tc.warnings)
				}
				if lines := diag.all(); len(lines) != 0 {
					t.Fatalf("diagnostics: %q", lines)
				}
			})
		}
	}
}

// TestListOneTransactionPerPeer: a 16-recipient list post reaches the
// peer as one relayed transaction with 16 RCPTs, and the 16 acks come
// back as one coalesced ack in one transaction: two relayed
// transactions for the round trip, where one per recipient took 17.
// The ack sink still sees every acker, and every e-penny comes back.
func TestListOneTransactionPerPeer(t *testing.T) {
	const subscribers = 16
	var diag diagnostics
	var delivered, acked atomic.Int64
	var mu sync.Mutex
	ackers := map[mail.Address]bool{}
	a := relayNode(t, 0, "list", func(c *NodeConfig) {
		c.Logf = diag.logf
		c.AckSink = func(_ string, ack *mail.Message) {
			mu.Lock()
			ackers[ack.From] = true
			mu.Unlock()
			acked.Add(1)
		}
	})
	b := relayNode(t, 1, "bob", func(c *NodeConfig) {
		c.Logf = diag.logf
		c.Mailbox = func(string, *mail.Message) { delivered.Add(1) }
	})
	a.AddPeer(1, b.Addr().String())
	b.AddPeer(0, a.Addr().String())
	from := mail.Address{Local: "list", Domain: relayDomains[0]}
	var rcpts []mail.Address
	for i := 0; i < subscribers; i++ {
		name := fmt.Sprint("s", i)
		if err := b.Engine().RegisterUser(name, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
		rcpts = append(rcpts, mail.Address{Local: name, Domain: relayDomains[1]})
	}
	msg := mail.NewMessage(from, rcpts[0], "issue 1", "news")
	msg.SetClass(mail.ClassList)
	if err := sendOverSMTP(t, a, from, rcpts, msg); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "every delivery and every ack", func() bool {
		return delivered.Load() == subscribers && acked.Load() == subscribers
	})
	mu.Lock()
	if len(ackers) != subscribers {
		t.Errorf("the ack sink saw %d distinct ackers, want %d", len(ackers), subscribers)
	}
	mu.Unlock()
	for name, want := range map[string]float64{"zmail_relay_sent_total": 1, "zmail_relay_rcpts_total": subscribers} {
		if got := relayStat(a, name); got != want {
			t.Errorf("list side %s = %v, want %v", name, got, want)
		}
	}
	for name, want := range map[string]float64{"zmail_relay_sent_total": 1, "zmail_relay_rcpts_total": 1} {
		if got := relayStat(b, name); got != want {
			t.Errorf("ack side %s = %v, want %v: one coalesced ack", name, got, want)
		}
	}
	if u, _ := a.Engine().User("list"); u.Balance != 100_000 || u.Sent != subscribers {
		t.Errorf("distributor after the round trip = %+v, want every e-penny refunded", u)
	}
	if ca, cb := a.Engine().Credit()[1], b.Engine().Credit()[0]; ca+cb != 0 {
		t.Errorf("credit antisymmetry broken: %d + %d", ca, cb)
	}
	if lines := diag.all(); len(lines) != 0 {
		t.Fatalf("diagnostics: %q", lines)
	}
}

// TestRelaySplitsRefusedTransaction: the peer knows a and b but not c,
// so it refuses the three-recipient transaction whole. The relay then
// sends each recipient on its own: a and b are delivered exactly once,
// and c is one logged failure.
func TestRelaySplitsRefusedTransaction(t *testing.T) {
	var diag diagnostics
	var mu sync.Mutex
	got := map[string]int{}
	a := relayNode(t, 0, "alice", func(c *NodeConfig) { c.Logf = diag.logf })
	b := relayNode(t, 1, "a", func(c *NodeConfig) {
		c.Mailbox = func(user string, _ *mail.Message) {
			mu.Lock()
			got[user]++
			mu.Unlock()
		}
	})
	if err := b.Engine().RegisterUser("b", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	a.AddPeer(1, b.Addr().String())
	rcpts := []mail.Address{
		{Local: "a", Domain: relayDomains[1]},
		{Local: "b", Domain: relayDomains[1]},
		{Local: "c", Domain: relayDomains[1]},
	}
	msg := mail.NewMessage(mail.Address{Local: "alice", Domain: relayDomains[0]}, rcpts[0], "s", "b")
	msg.Rcpts = rcpts
	if _, err := a.Engine().SubmitSync(msg); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the relay to finish with every recipient", func() bool {
		return relayStat(a, "zmail_relay_sent_total")+relayStat(a, "zmail_relay_failed_total") == 3
	})
	_ = a.Close() // joins the sessions: nothing arrives after this
	mu.Lock()
	defer mu.Unlock()
	if got["a"] != 1 || got["b"] != 1 || got["c"] != 0 {
		t.Fatalf("deliveries = %v, want a and b once each, c never", got)
	}
	for name, want := range map[string]float64{
		"zmail_relay_sent_total": 2, "zmail_relay_rcpts_total": 2,
		"zmail_relay_failed_total": 1, "zmail_relay_retried_total": 0,
	} {
		if got := relayStat(a, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := b.Engine().Stats().ReceivedPaid; got != 2 {
		t.Errorf("peer credited %d recipients, want 2", got)
	}
	if lines := diag.all(); len(lines) != 1 {
		t.Fatalf("%d diagnostics, want one for c: %q", len(lines), lines)
	}
}

// TestAckSubmissionRefused: acks are the ISP's to send, and are exempt
// from the §5 daily limit only for that reason. A user at limit 3 who
// submits five ack-class messages over SMTP is refused all five with a
// 550, and so is a forged coalesced ack naming another user: nobody is
// charged, the limit is untouched, and nothing is relayed.
func TestAckSubmissionRefused(t *testing.T) {
	for _, queue := range []bool{false, true} {
		t.Run(fmt.Sprintf("queue=%v", queue), func(t *testing.T) {
			var diag diagnostics
			a := relayNode(t, 0, "alice", func(c *NodeConfig) {
				c.Logf = diag.logf
				c.Queue = queue
			})
			b := relayNode(t, 1, "bob", func(c *NodeConfig) { c.Logf = diag.logf })
			a.AddPeer(1, b.Addr().String())
			eng := a.Engine()
			for _, name := range []string{"sender", "carol"} {
				if err := eng.RegisterUser(name, 0, 100, 3); err != nil {
					t.Fatal(err)
				}
			}
			from := mail.Address{Local: "sender", Domain: relayDomains[0]}
			to := mail.Address{Local: "bob", Domain: relayDomains[1]}
			refused := func(what string, msg *mail.Message) {
				t.Helper()
				err := sendOverSMTP(t, a, from, []mail.Address{to}, msg)
				var pe *smtp.ProtocolError
				if !errors.As(err, &pe) || pe.Code != 550 {
					t.Errorf("%s: send = %v, want a 550", what, err)
				}
			}
			for i := 0; i < 5; i++ {
				ack := mail.NewMessage(from, to, "Ack: post 1", "")
				ack.SetClass(mail.ClassAck)
				refused(fmt.Sprint("ack ", i), ack)
			}
			forged := mail.NewMessage(from, to, "Ack: post 1", "carol\nsender")
			forged.SetClass(mail.ClassAck)
			forged.SetHeader(mail.HeaderAckCount, "2")
			refused("forged coalesced ack", forged)

			eng.FlushQueue()
			for _, name := range []string{"sender", "carol"} {
				if u, _ := eng.User(name); u.Balance != 100 || u.Sent != 0 {
					t.Errorf("%s after the refusals = %+v, want balance 100 and sent 0", name, u)
				}
			}
			if c := eng.Credit()[1]; c != 0 {
				t.Errorf("credit against the peer = %d, want 0", c)
			}
			if st := eng.Stats(); st.SentPaid != 0 || st.Submitted != 0 {
				t.Errorf("stats after the refusals = %+v, want nothing submitted", st)
			}
			if got := relayStat(a, "zmail_relay_sent_total"); got != 0 {
				t.Errorf("relayed %v transactions, want none", got)
			}
			if got := b.Engine().Stats().ReceivedPaid; got != 0 {
				t.Errorf("peer received %d paid messages, want none", got)
			}
		})
	}
}
