// Package core assembles deployable Zmail daemons from the protocol
// engines: a Node is one compliant ISP (isp.Engine + SMTP server for
// submissions and peer relay + one outbound relay per peer, a queue
// drained over a few persistent, pipelined SMTP sessions (relay.go) + a
// persistent TCP link to the bank), and BankServer is a bank behind a
// TCP listener speaking the wire protocol. StartISPDaemon and
// StartBankDaemon (daemon.go) add the WAL, users or enrollments, the
// root uplink and the admin listener, and own the boot and shutdown
// order every deployed daemon runs.
//
// Zmail rides unmodified SMTP (§1.3 of the paper): a Node accepts
// ordinary SMTP transactions. A transaction whose MAIL FROM is a local
// user is a submission and enters the paid path via Engine.Submit; a
// transaction announced by a known peer ISP (HELO domain) is relay
// traffic and enters via Engine.ReceiveRemote. Peer identity is
// authenticated only by the HELO domain here — a deployment would pin
// peer source addresses or use TLS client certificates; the protocol
// layers above are unchanged either way.
package core

import (
	"errors"
	"fmt"
	"log"
	"net"
	"strconv"
	"sync"
	"time"

	"zmail/internal/clock"
	"zmail/internal/isp"
	"zmail/internal/mail"
	"zmail/internal/smtp"
	"zmail/internal/wire"
)

// NodeConfig configures a Node.
type NodeConfig struct {
	// Engine is the configured protocol engine factory input: the
	// isp.Config with Transport left nil (the Node installs itself).
	Engine isp.Config
	// ListenAddr is the SMTP listen address, e.g. ":2525" or
	// "127.0.0.1:0".
	ListenAddr string
	// BankAddr is the bank's TCP address.
	BankAddr string
	// Peers maps federation index → SMTP address for every other
	// compliant ISP.
	Peers map[int]string
	// Mailbox receives locally delivered mail; nil stores messages in
	// an internal per-user inbox readable via Node.Inbox.
	Mailbox func(user string, msg *mail.Message)
	// AckSink receives acknowledgment mail for local distributors.
	AckSink func(user string, msg *mail.Message)
	// TickInterval is the pool-maintenance cadence; zero selects 5s.
	TickInterval time.Duration
	// Queue starts the engine's admission queue, decoupling SMTP DATA
	// latency from ledger commit: submissions are admitted (policy
	// checks, reservation) inline and committed by drain workers.
	Queue bool
	// QueueDepth/QueueWorkers/QueueBatch tune the admission queue when
	// Queue is set; zero values select the mempool defaults.
	QueueDepth, QueueWorkers, QueueBatch int
	// Logf logs diagnostics; nil uses log.Printf.
	Logf func(format string, args ...any)
}

// Node is a running compliant-ISP daemon.
type Node struct {
	cfg    NodeConfig
	engine *isp.Engine
	server *smtp.Server
	addr   net.Addr

	mu      sync.Mutex
	inboxes map[string][]*mail.Message
	relays  map[int]*relay // federation index → outbound relay, which holds the peer's address
	bankTx  net.Conn
	closed  bool

	relayStats relayStats

	tickStop chan struct{}
	wg       sync.WaitGroup
}

// NewNode builds and starts a node: SMTP listener up, bank link
// dialed lazily, tick loop running.
func NewNode(cfg NodeConfig) (*Node, error) {
	n, err := newNode(cfg)
	if err != nil {
		return nil, err
	}
	if err := n.start(); err != nil {
		_ = n.Close()
		return nil, err
	}
	return n, nil
}

// newNode builds a node that holds no socket or goroutine yet: its
// engine can replay a WAL and register users before start opens the
// network. Close releases it at either stage.
func newNode(cfg NodeConfig) (*Node, error) {
	if cfg.ListenAddr == "" {
		return nil, errors.New("core: ListenAddr is required")
	}
	if cfg.TickInterval == 0 {
		cfg.TickInterval = 5 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.Engine.Clock == nil {
		cfg.Engine.Clock = clock.System()
	}
	n := &Node{
		cfg:      cfg,
		inboxes:  make(map[string][]*mail.Message),
		relays:   make(map[int]*relay),
		tickStop: make(chan struct{}),
	}
	for idx, addr := range cfg.Peers {
		n.relays[idx] = newRelay(n, idx, addr)
	}
	cfg.Engine.Transport = (*nodeTransport)(n)
	eng, err := isp.New(cfg.Engine)
	if err != nil {
		return nil, err
	}
	n.engine = eng
	n.server = &smtp.Server{
		Domain:  eng.Domain(),
		Backend: (*nodeBackend)(n),
	}
	return n, nil
}

// start opens the node to the network: the admission queue, the SMTP
// listener, the tick loop and the bank link.
func (n *Node) start() error {
	cfg := n.cfg
	if cfg.Queue {
		n.engine.StartQueue(isp.QueueConfig{
			Depth:   cfg.QueueDepth,
			Workers: cfg.QueueWorkers,
			Batch:   cfg.QueueBatch,
		})
	}
	l, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return fmt.Errorf("core: listen %s: %w", cfg.ListenAddr, err)
	}
	n.addr = l.Addr()

	n.wg.Add(2)
	go func() {
		defer n.wg.Done()
		if err := n.server.Serve(l); err != nil && !errors.Is(err, net.ErrClosed) {
			cfg.Logf("core: smtp server: %v", err)
		}
	}()
	go func() {
		defer n.wg.Done()
		n.tickLoop()
	}()
	if cfg.BankAddr != "" {
		// Register with the bank eagerly so bank-initiated snapshot
		// requests can reach us before our first buy/sell.
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			if _, err := n.bankConn(); err != nil {
				cfg.Logf("core: initial bank connect: %v", err)
			}
		}()
	}
	return nil
}

// Engine exposes the underlying protocol engine.
func (n *Node) Engine() *isp.Engine { return n.engine }

// Addr returns the bound SMTP address.
func (n *Node) Addr() net.Addr { return n.addr }

// Close stops the node in the order mail flows, so that what was
// accepted is not dropped on shutdown: the admission queue (if
// configured) commits what it holds, which may queue relay mail; each
// relay sends what it holds and its sessions say QUIT; only then does
// the SMTP server stop, because a peer answers what we relay to it (list
// acks) over connections to that server. The tick loop and the bank link
// stop in between.
func (n *Node) Close() error {
	n.engine.StopQueue()
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	tx := n.bankTx
	n.bankTx = nil
	relays := n.relayList()
	n.mu.Unlock()
	close(n.tickStop)
	if tx != nil {
		_ = tx.Close()
	}
	for _, r := range relays {
		r.close()
	}
	err := n.server.Close()
	n.wg.Wait()
	return err
}

// Inbox returns messages stored for a local user (when no Mailbox
// callback was configured).
func (n *Node) Inbox(user string) []*mail.Message {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]*mail.Message(nil), n.inboxes[user]...)
}

func (n *Node) tickLoop() {
	t := time.NewTicker(n.cfg.TickInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := n.engine.Tick(); err != nil && !errors.Is(err, isp.ErrNotConfigured) {
				n.cfg.Logf("core: tick: %v", err)
			}
		case <-n.tickStop:
			return
		}
	}
}

// bankConn returns (dialing if needed) the persistent bank link and
// ensures its reader goroutine is running. The dial and hello happen
// outside n.mu — a slow or black-holed bank must not stall every
// other node operation behind the mutex — so two callers may race to
// dial; the loser's connection is closed and the winner's kept.
func (n *Node) bankConn() (net.Conn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, net.ErrClosed
	}
	if n.bankTx != nil {
		conn := n.bankTx
		n.mu.Unlock()
		return conn, nil
	}
	addr := n.cfg.BankAddr
	n.mu.Unlock()
	if addr == "" {
		return nil, errors.New("core: no bank address configured")
	}

	// The hello lets the bank route snapshot requests to this link
	// before we ever buy or sell.
	conn, err := dialHello(addr, int32(n.engine.Index()))
	if err != nil {
		return nil, fmt.Errorf("core: bank link: %w", err)
	}

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		_ = conn.Close()
		return nil, net.ErrClosed
	}
	if n.bankTx != nil {
		// Lost the dial race; use the established link.
		won := n.bankTx
		n.mu.Unlock()
		_ = conn.Close()
		return won, nil
	}
	n.bankTx = conn
	n.wg.Add(1)
	n.mu.Unlock()
	go func() {
		defer n.wg.Done()
		n.bankReadLoop(conn)
	}()
	return conn, nil
}

func (n *Node) bankReadLoop(conn net.Conn) {
	for {
		env, err := wire.ReadEnvelope(conn)
		if err != nil {
			n.mu.Lock()
			if n.bankTx == conn {
				n.bankTx = nil
			}
			closed := n.closed
			n.mu.Unlock()
			if !closed {
				n.cfg.Logf("core: bank link lost: %v", err)
			}
			return
		}
		if err := n.engine.HandleBank(env); err != nil {
			n.cfg.Logf("core: bank message: %v", err)
		}
	}
}

// nodeTransport implements isp.Transport over real sockets.
type nodeTransport Node

var _ isp.Transport = (*nodeTransport)(nil)

// AddPeer registers (or updates) the SMTP address for a federation
// peer. Useful when listener ports are allocated dynamically. Sessions
// idling on a peer's previous address are hung up.
func (n *Node) AddPeer(index int, addr string) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	r := n.relays[index]
	if r == nil {
		n.relays[index] = newRelay(n, index, addr)
	}
	n.mu.Unlock()
	if r != nil {
		r.setAddr(addr)
	}
}

// relayList snapshots the relays; the caller holds n.mu.
func (n *Node) relayList() []*relay {
	out := make([]*relay, 0, len(n.relays))
	for _, r := range n.relays {
		out = append(out, r)
	}
	return out
}

// peerName labels a peer in telemetry: its domain where the directory
// knows the index.
func (n *Node) peerName(index int) string {
	if domains := n.cfg.Engine.Directory.Domains; index >= 0 && index < len(domains) {
		return domains[index]
	}
	return strconv.Itoa(index)
}

// SendMail hands msg to the peer's relay and returns; relay.go sends it.
func (t *nodeTransport) SendMail(toIndex int, toDomain string, msg *mail.Message) {
	n := (*Node)(t)
	n.mu.Lock()
	r := n.relays[toIndex]
	n.mu.Unlock()
	if r == nil {
		n.cfg.Logf("core: no route to isp[%d] (%s); dropping %s", toIndex, toDomain, msg.ID())
		return
	}
	if !r.enqueue(msg) {
		n.cfg.Logf("core: node closed; dropping %s for %s", msg.ID(), toDomain)
	}
}

func (t *nodeTransport) SendBank(env *wire.Envelope) {
	n := (*Node)(t)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		conn, err := n.bankConn()
		if err != nil {
			n.cfg.Logf("core: bank send: %v", err)
			return
		}
		if err := wire.WriteEnvelope(conn, env); err != nil {
			n.cfg.Logf("core: bank write: %v", err)
			_ = conn.Close()
		}
	}()
}

func (t *nodeTransport) DeliverLocal(user string, msg *mail.Message) {
	n := (*Node)(t)
	if n.cfg.Mailbox != nil {
		n.cfg.Mailbox(user, msg)
		return
	}
	n.mu.Lock()
	n.inboxes[user] = append(n.inboxes[user], msg)
	n.mu.Unlock()
}

func (t *nodeTransport) DeliverAck(user string, msg *mail.Message) {
	n := (*Node)(t)
	if n.cfg.AckSink != nil {
		n.cfg.AckSink(user, msg)
	}
}

// nodeBackend implements smtp.Backend: it decides per transaction
// whether this is a local submission or peer relay.
type nodeBackend Node

var _ smtp.Backend = (*nodeBackend)(nil)

func (b *nodeBackend) NewSession(heloDomain string, _ net.Addr) (smtp.Session, error) {
	return &nodeSession{node: (*Node)(b), helo: heloDomain}, nil
}

type nodeSession struct {
	node *Node
	helo string
	from mail.Address
}

func (s *nodeSession) Mail(from mail.Address) error {
	s.from = from
	return nil
}

func (s *nodeSession) Rcpt(to mail.Address) error {
	// Submissions may target anyone; relay must target a local user.
	if s.from.Domain == s.node.engine.Domain() {
		return nil
	}
	if to.Domain != s.node.engine.Domain() {
		return fmt.Errorf("relaying denied for %v", to)
	}
	return nil
}

// Data takes one whole transaction: msg carries every recipient, and
// the engine admits or receives them all or none.
func (s *nodeSession) Data(_ mail.Address, msg *mail.Message) error {
	if s.from.Domain == s.node.engine.Domain() {
		// Local submission. Admission backpressure is temporary by
		// definition — the queue drains — so it surfaces as a 451 the
		// client retries, not a 550 rejection.
		if _, err := s.node.engine.Submit(msg); err != nil {
			if errors.Is(err, isp.ErrQueueFull) {
				return smtp.Transient{Err: err}
			}
			return err
		}
		return nil
	}
	// Peer relay: the transmitting ISP's identity is its HELO domain.
	return s.node.engine.ReceiveRemote(s.helo, msg)
}

func (s *nodeSession) Reset() {}
