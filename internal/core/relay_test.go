package core

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zmail/internal/clock"
	"zmail/internal/crypto"
	"zmail/internal/isp"
	"zmail/internal/mail"
	"zmail/internal/metrics"
	"zmail/internal/smtp"
)

var relayDomains = []string{"alpha.example", "beta.example"}

// diagnostics records what a node logs; the relay tests assert on it
// because a logged line is the only trace a failed relay leaves.
type diagnostics struct {
	mu    sync.Mutex
	lines []string
}

func (d *diagnostics) logf(format string, args ...any) {
	d.mu.Lock()
	d.lines = append(d.lines, fmt.Sprintf(format, args...))
	d.mu.Unlock()
}

func (d *diagnostics) all() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.lines...)
}

// relayNode boots ISP index of a bank-less two-ISP federation with one
// well-funded user and registers its Close as cleanup.
func relayNode(t *testing.T, index int, user string, tweak func(*NodeConfig)) *Node {
	t.Helper()
	cfg := NodeConfig{
		Engine: isp.Config{
			Index: index, Domain: relayDomains[index],
			Directory:    isp.NewDirectory(relayDomains, nil),
			InitialAvail: 1_000_000, FreezeDuration: time.Second,
			BankSealer: crypto.Null{}, OwnSealer: crypto.Null{},
		},
		ListenAddr: "127.0.0.1:0",
	}
	tweak(&cfg)
	node, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	if err := node.Engine().RegisterUser(user, 0, 100_000, 1<<40); err != nil {
		t.Fatal(err)
	}
	return node
}

func relayStat(n *Node, name string) float64 {
	reg := metrics.NewRegistry()
	n.Collect(reg)
	return reg.Gauge(name, "isp", n.engine.Domain()).Value()
}

// countingBackend counts the SMTP sessions one HELO domain opened.
type countingBackend struct {
	inner    smtp.Backend
	helo     string
	sessions *atomic.Int64
}

func (b countingBackend) NewSession(helo string, remote net.Addr) (smtp.Session, error) {
	if helo == b.helo {
		b.sessions.Add(1)
	}
	return b.inner.NewSession(helo, remote)
}

// TestThawDrainsOverCappedSessions is bench finding 2: the thaw after an
// audit freeze releases the whole buffered outbox at once. It must
// arrive over no more than relaySessions connections — with a dial per
// message this opened one socket per buffered message and ran the
// process out of descriptors.
func TestThawDrainsOverCappedSessions(t *testing.T) {
	const buffered = 2000
	var diag diagnostics
	var delivered atomic.Int64
	vclk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	a := relayNode(t, 0, "alice", func(c *NodeConfig) {
		c.Logf = diag.logf
		c.Engine.Clock = vclk
		// No bank here: without a sealer the thaw has no credit report
		// to send, so it logs nothing about the missing link.
		c.Engine.BankSealer = nil
	})
	b := relayNode(t, 1, "bob", func(c *NodeConfig) {
		c.Logf = diag.logf
		c.Mailbox = func(string, *mail.Message) { delivered.Add(1) }
	})
	// A reaches B through a second listener on B's backend, which counts
	// the connections A opens.
	var sessions atomic.Int64
	front := &smtp.Server{Domain: relayDomains[1], Backend: countingBackend{
		inner: (*nodeBackend)(b), helo: relayDomains[0], sessions: &sessions,
	}}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = front.Serve(l) }()
	t.Cleanup(func() { _ = front.Close() })
	a.AddPeer(1, l.Addr().String())

	a.Engine().ForceSnapshot()
	alice := mail.MustParseAddress("alice@alpha.example")
	bob := mail.MustParseAddress("bob@beta.example")
	for i := 0; i < buffered; i++ {
		out, err := a.Engine().SubmitSync(mail.NewMessage(alice, bob, fmt.Sprint("m", i), "b"))
		if err != nil || out != isp.SentBuffered {
			t.Fatalf("submit %d while frozen: %v, %v", i, out, err)
		}
	}
	// Past the quiet period and the guard after the cut: the thaw hands
	// every buffered message to SendMail at once.
	vclk.Advance(2 * time.Second)

	waitFor(t, "every buffered message to reach bob", func() bool { return delivered.Load() == buffered })
	if got := sessions.Load(); got < 1 || got > relaySessions {
		t.Fatalf("alpha opened %d sessions to deliver the thaw, want 1..%d", got, relaySessions)
	}
	if got := relayStat(a, "zmail_relay_sent_total"); got != buffered {
		t.Fatalf("zmail_relay_sent_total = %v, want %d", got, buffered)
	}
	if lines := diag.all(); len(lines) != 0 {
		t.Fatalf("diagnostics: %q", lines)
	}
}

// TestRelayFollowsRestartedPeer: B restarts on another port while A
// holds an idle session to the old one. AddPeer drops that session, and
// the next message goes out on one new connection without a word.
func TestRelayFollowsRestartedPeer(t *testing.T) {
	var diag diagnostics
	var delivered atomic.Int64
	bootB := func() *Node {
		return relayNode(t, 1, "bob", func(c *NodeConfig) {
			c.Logf = diag.logf
			c.Mailbox = func(string, *mail.Message) { delivered.Add(1) }
		})
	}
	a := relayNode(t, 0, "alice", func(c *NodeConfig) { c.Logf = diag.logf })
	b := bootB()
	a.AddPeer(1, b.Addr().String())
	alice := mail.MustParseAddress("alice@alpha.example")
	bob := mail.MustParseAddress("bob@beta.example")
	send := func(want int64) {
		t.Helper()
		if _, err := a.Engine().SubmitSync(mail.NewMessage(alice, bob, "s", "b")); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "delivery", func() bool { return delivered.Load() == want })
	}
	send(1)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b = bootB()
	a.AddPeer(1, b.Addr().String())
	send(2)
	if got := relayStat(a, "zmail_relay_dials_total"); got != 2 {
		t.Fatalf("zmail_relay_dials_total = %v, want one dial per incarnation of the peer", got)
	}
	if lines := diag.all(); len(lines) != 0 {
		t.Fatalf("diagnostics: %q", lines)
	}
}

// fakePeer speaks enough SMTP to take relay mail, and hangs up on cue:
// hangUp[i] says where connection i ends — "group" on reading MAIL,
// without a reply, the way a session gone stale looks to the sender;
// "body" after the end-of-data "." but before the final 250.
type fakePeer struct {
	hangUp []string
	conns  atomic.Int64
	bodies atomic.Int64
}

func (p *fakePeer) serve(l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		i := int(p.conns.Add(1)) - 1
		cue := ""
		if i < len(p.hangUp) {
			cue = p.hangUp[i]
		}
		p.session(conn, cue)
	}
}

func (p *fakePeer) session(conn net.Conn, cue string) {
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(conn)
	say := func(s string) { fmt.Fprintf(conn, "%s\r\n", s) }
	say("220 fake ready")
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		switch verb, _, _ := strings.Cut(strings.TrimSpace(line), " "); verb {
		case "EHLO":
			say("250-fake\r\n250 PIPELINING")
		case "MAIL":
			if cue == "group" {
				return
			}
			say("250 OK")
		case "DATA":
			say("354 go on")
			for line != ".\r\n" {
				if line, err = r.ReadString('\n'); err != nil {
					return
				}
			}
			p.bodies.Add(1)
			if cue == "body" {
				return
			}
			say("250 OK")
		case "QUIT":
			say("221 bye")
			return
		default:
			say("250 OK")
		}
	}
}

// TestRelayRetryRule: a send that dies before end-of-data is repeated
// once on a fresh connection and nobody hears of it; one that dies after
// end-of-data may have been credited, so it is not repeated — a second
// copy would break credit antisymmetry — and is logged.
func TestRelayRetryRule(t *testing.T) {
	for _, tc := range []struct {
		name                        string
		hangUp                      []string
		conns, bodies               int64
		sent, retried, failed, logs int
	}{
		{"before end-of-data", []string{"group"}, 2, 1, 1, 1, 0, 0},
		{"after end-of-data", []string{"body"}, 1, 1, 0, 0, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var diag diagnostics
			peer := &fakePeer{hangUp: tc.hangUp}
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan struct{})
			go func() {
				defer close(served)
				peer.serve(l)
			}()
			a := relayNode(t, 0, "alice", func(c *NodeConfig) {
				c.Logf = diag.logf
				c.Peers = map[int]string{1: l.Addr().String()}
			})
			msg := mail.NewMessage(mail.MustParseAddress("alice@alpha.example"), mail.MustParseAddress("bob@beta.example"), "s", "b")
			if _, err := a.Engine().SubmitSync(msg); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the relay to finish with the message", func() bool {
				return relayStat(a, "zmail_relay_sent_total")+relayStat(a, "zmail_relay_failed_total") == 1
			})
			// Closing the node joins its sessions, closing the listener
			// joins the peer: nothing can arrive after this.
			_ = a.Close()
			_ = l.Close()
			<-served
			if got := peer.conns.Load(); got != tc.conns {
				t.Errorf("peer saw %d connections, want %d", got, tc.conns)
			}
			if got := peer.bodies.Load(); got != tc.bodies {
				t.Errorf("peer took %d message bodies, want %d", got, tc.bodies)
			}
			for name, want := range map[string]int{
				"zmail_relay_sent_total": tc.sent, "zmail_relay_retried_total": tc.retried, "zmail_relay_failed_total": tc.failed,
			} {
				if got := relayStat(a, name); got != float64(want) {
					t.Errorf("%s = %v, want %d", name, got, want)
				}
			}
			if lines := diag.all(); len(lines) != tc.logs {
				t.Errorf("%d diagnostics, want %d: %q", len(lines), tc.logs, lines)
			}
		})
	}
}
