package core

// Stall and stop tests: no lock is held across a dial, a wire write, a
// forward hook or a peer's answer, and Close joins the work it started.
// A stall test fails only by timing out and passes in milliseconds.

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zmail/internal/crypto"
	"zmail/internal/isp"
	"zmail/internal/mail"
	"zmail/internal/wire"
)

// stallTimeout bounds how long an operation that must not wait on a
// stalled peer may take before a test calls it stuck.
const stallTimeout = time.Second

// returnsPromptly fails the test unless fn returns within stallTimeout.
func returnsPromptly(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(stallTimeout):
		t.Fatalf("%s stalled behind a blocked peer", what)
	}
}

// closeJoins requires close to wait for work it started that is stalled
// until release: close must not return before release is called, and
// must return soon after.
func closeJoins(t *testing.T, what string, close func() error, release func()) {
	t.Helper()
	closed := make(chan error, 1)
	go func() { closed <- close() }()
	select {
	case <-closed:
		t.Fatalf("%s returned while work it started was still running", what)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(stallTimeout):
		t.Fatalf("%s never returned after the stalled work did", what)
	}
}

// stallDial makes every bank-link dial announce itself on dialing and
// block until release, then fail. The test must call release before
// anything that waits for the dial.
func stallDial(t *testing.T) (dialing <-chan struct{}, release func()) {
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	release = sync.OnceFunc(func() { close(gate) })
	orig := dial
	dial = func(string) (net.Conn, error) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
		return nil, errors.New("refused")
	}
	t.Cleanup(func() {
		release()
		dial = orig
	})
	return entered, release
}

// bankedConfig configures a node whose bank link dials through dial.
func bankedConfig() NodeConfig {
	return NodeConfig{
		Engine: isp.Config{
			Index: 0, Domain: "stall.example", Directory: isp.NewDirectory([]string{"stall.example"}, nil),
			InitialAvail: 100,
			BankSealer:   crypto.Null{}, OwnSealer: crypto.Null{},
		},
		ListenAddr: "127.0.0.1:0",
		BankAddr:   "bank.invalid:7999",
		Logf:       quietLog,
	}
}

// bankedNode starts a node whose initial bank connect dials through dial.
func bankedNode(t *testing.T) *Node {
	t.Helper()
	n, err := NewNode(bankedConfig())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestBankDialDoesNotHoldNodeLock: while the bank link's dial hangs, the
// node's other operations do not queue behind it.
func TestBankDialDoesNotHoldNodeLock(t *testing.T) {
	dialing, release := stallDial(t)
	n := bankedNode(t)
	<-dialing
	returnsPromptly(t, "Node.Inbox during a bank dial", func() { n.Inbox("alice") })
	release()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}

// signalConn closes writing on its first Write, which then blocks as
// the pipe under it does while nobody reads the other end.
type signalConn struct {
	net.Conn
	once    sync.Once
	writing chan struct{}
}

func (c *signalConn) Write(p []byte) (int, error) {
	c.once.Do(func() { close(c.writing) })
	return c.Conn.Write(p)
}

// registerPipe serves conn as ISP idx's link and returns once the
// server has registered it. The ISP end is closed at cleanup, which
// ends the serving goroutine.
func registerPipe(t *testing.T, s *BankServer, idx int, conn, ispEnd net.Conn) {
	t.Helper()
	go s.serveConn(conn)
	t.Cleanup(func() { _ = ispEnd.Close() })
	if err := wire.WriteEnvelope(ispEnd, &wire.Envelope{Kind: wire.KindHello, From: int32(idx)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "registration", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.conns[idx] == conn
	})
}

// TestBankServerSendDoesNotHoldLock: a bank→ISP write stuck on one
// ISP's connection does not hold up a send to another ISP.
func TestBankServerSendDoesNotHoldLock(t *testing.T) {
	s := NewBankServer(nil, quietLog)
	srv0, isp0 := net.Pipe()
	stuck := &signalConn{Conn: srv0, writing: make(chan struct{})}
	registerPipe(t, s, 0, stuck, isp0) // isp0 is never read
	srv1, isp1 := net.Pipe()
	registerPipe(t, s, 1, srv1, isp1)
	got := make(chan *wire.Envelope, 1)
	go func() {
		if env, err := wire.ReadEnvelope(isp1); err == nil {
			got <- env
		}
	}()

	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		s.Transport().SendISP(0, &wire.Envelope{Kind: wire.KindRequest})
	}()
	<-stuck.writing
	returnsPromptly(t, "SendISP to isp[1] during a stuck write to isp[0]", func() {
		s.Transport().SendISP(1, &wire.Envelope{Kind: wire.KindRequest})
	})
	select {
	case <-got:
	case <-time.After(stallTimeout):
		t.Fatal("isp[1] never received its envelope")
	}
	_ = isp0.Close()
	<-blocked
}

// nopHandler accepts every envelope.
type nopHandler struct{}

func (nopHandler) Handle(*wire.Envelope) error { return nil }

// TestBankServerForwardDoesNotHoldLock: a forward hook stuck on a dead
// root does not hold up the bank's sends to its ISPs.
func TestBankServerForwardDoesNotHoldLock(t *testing.T) {
	s := NewBankServer(nopHandler{}, quietLog)
	forwarding, release := make(chan struct{}), make(chan struct{})
	s.SetForward(func(*wire.Envelope) {
		close(forwarding)
		<-release
	})
	defer close(release)
	srv0, isp0 := net.Pipe()
	registerPipe(t, s, 0, srv0, isp0)
	if err := wire.WriteEnvelope(isp0, &wire.Envelope{Kind: wire.KindReply, From: 0}); err != nil {
		t.Fatal(err)
	}
	<-forwarding
	go func() { _, _ = wire.ReadEnvelope(isp0) }()
	returnsPromptly(t, "SendISP during a stuck forward hook", func() {
		s.Transport().SendISP(0, &wire.Envelope{Kind: wire.KindRequest})
	})
}

// TestRelayDialDoesNotHoldRelayLock: while the relay's dial waits on a
// peer that accepts and never greets, mail for that peer still queues.
func TestRelayDialDoesNotHoldRelayLock(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dialed, done := make(chan struct{}), make(chan struct{})
	var conns []net.Conn
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if conns = append(conns, c); len(conns) == 1 {
				close(dialed)
			}
		}
	}()
	n := relayNode(t, 0, "alice", func(c *NodeConfig) {
		c.Peers = map[int]string{1: ln.Addr().String()}
		c.Logf = quietLog
	})
	send := func() {
		msg := mail.NewMessage(mail.MustParseAddress("alice@alpha.example"), mail.MustParseAddress("bob@beta.example"), "s", "b")
		if _, err := n.Engine().SubmitSync(msg); err != nil {
			t.Error(err)
		}
	}
	t.Cleanup(func() { // before the node's: hang up on every dial, so it can close
		_ = ln.Close()
		<-done
		for _, c := range conns {
			_ = c.Close()
		}
	})
	send()
	<-dialed
	returnsPromptly(t, "a send to a peer being dialed", send)
}

// TestNodeCloseJoinsBankDial: Close does not return while a bank dial
// the node started is still running: the initial connect, or the one a
// bank send makes.
func TestNodeCloseJoinsBankDial(t *testing.T) {
	for name, dialing := range map[string]func(t *testing.T) *Node{
		"initial connect": bankedNode,
		"bank send": func(t *testing.T) *Node {
			n, err := newNode(bankedConfig()) // never started: no initial connect
			if err != nil {
				t.Fatal(err)
			}
			(*nodeTransport)(n).SendBank(&wire.Envelope{Kind: wire.KindBatchOrder})
			return n
		},
	} {
		t.Run(name, func(t *testing.T) {
			entered, release := stallDial(t)
			n := dialing(t)
			<-entered
			closeJoins(t, "Node.Close", n.Close, release)
		})
	}
}

// TestNodeCloseJoinsRelaySessions: Close does not return while a relay
// session is still waiting on the peer's answer to mail it accepted.
func TestNodeCloseJoinsRelaySessions(t *testing.T) {
	receiving, answer := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(answer) })
	defer release()
	var once sync.Once
	b := relayNode(t, 1, "bob", func(c *NodeConfig) {
		c.Logf = quietLog
		c.Mailbox = func(string, *mail.Message) {
			once.Do(func() {
				close(receiving)
				<-answer
			})
		}
	})
	a := relayNode(t, 0, "alice", func(c *NodeConfig) {
		c.Peers = map[int]string{1: b.Addr().String()}
		c.Logf = quietLog
	})
	msg := mail.NewMessage(mail.MustParseAddress("alice@alpha.example"), mail.MustParseAddress("bob@beta.example"), "s", "b")
	if _, err := a.Engine().SubmitSync(msg); err != nil {
		t.Fatal(err)
	}
	<-receiving
	closeJoins(t, "Node.Close", a.Close, release)
}

// stallingHandler holds the first envelope it handles until release.
type stallingHandler struct {
	once              sync.Once
	handling, release chan struct{}
}

func (h *stallingHandler) Handle(*wire.Envelope) error {
	h.once.Do(func() {
		close(h.handling)
		<-h.release
	})
	return nil
}

// TestBankServerCloseJoinsHandlers: Close does not return while a
// connection is still handling an envelope, so a bank daemon closes its
// WAL only after the last order it took is logged.
func TestBankServerCloseJoinsHandlers(t *testing.T) {
	h := &stallingHandler{handling: make(chan struct{}), release: make(chan struct{})}
	srv, err := StartBankHandler(h, "127.0.0.1:0", quietLog)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteEnvelope(conn, &wire.Envelope{Kind: wire.KindBatchOrder, From: 0}); err != nil {
		t.Fatal(err)
	}
	<-h.handling
	closeJoins(t, "BankServer.Close", srv.Close, func() { close(h.release) })
}

// helloFailConn is a dialed link whose first write fails.
type helloFailConn struct {
	net.Conn // nil: only Write and Close are called
	closed   atomic.Bool
}

func (c *helloFailConn) Write([]byte) (int, error) { return 0, errors.New("connection reset") }
func (c *helloFailConn) Close() error              { c.closed.Store(true); return nil }

// TestFailedHelloClosesConn: a bank-protocol link whose hello cannot be
// written is closed, on the ISP's bank link and on a leaf's uplink.
func TestFailedHelloClosesConn(t *testing.T) {
	orig := dial
	t.Cleanup(func() { dial = orig })
	n, err := newNode(bankedConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for name, send := range map[string]func() error{
		"bank link": func() error { _, err := n.bankConn(); return err },
		"uplink":    func() error { return NewUplink("root.invalid:7900", 0, nil).Send(&wire.Envelope{Kind: wire.KindReply}) },
	} {
		conn := &helloFailConn{}
		dial = func(string) (net.Conn, error) { return conn, nil }
		if err := send(); err == nil {
			t.Errorf("%s: a failed hello reported success", name)
		}
		if !conn.closed.Load() {
			t.Errorf("%s: the conn whose hello failed was left open", name)
		}
	}
}

// TestBankServerCloseWithSilentClient: a client that connected and never
// sent an envelope does not hold Close, so a bank daemon's shutdown and
// final checkpoint never wait on an idle peer.
func TestBankServerCloseWithSilentClient(t *testing.T) {
	srv, err := StartBankHandler(&stallingHandler{}, "127.0.0.1:0", quietLog)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Give the accept loop time to take the connection, so Close finds
	// it accepted rather than still in the listen backlog.
	time.Sleep(50 * time.Millisecond)
	returnsPromptly(t, "BankServer.Close with a silent client", func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
	})
}
