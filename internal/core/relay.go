package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"zmail/internal/mail"
	"zmail/internal/metrics"
	"zmail/internal/smtp"
)

const (
	// relaySessions caps the SMTP sessions a node keeps open to one peer,
	// and so the descriptors a burst (an audit thaw releases the whole
	// frozen outbox at once) can take. A pipelined transaction is two
	// round trips of which the peer's receive is most; four sessions keep
	// a peer's cores busy, and more only queue on its ledger stripes.
	relaySessions = 4
	// relayIdle is how long a session waits for mail before it says QUIT.
	// It is well under smtp.Server's five-minute ReadTimeout, so the peer
	// never times a session out first, and long enough that traffic with
	// pauses in it (an audit freeze, a quiet minute) does not redial.
	relayIdle = time.Minute
	// relayTimeout bounds the dial and each command round trip.
	relayTimeout = 30 * time.Second
)

// relay carries this node's mail to one federation peer: a FIFO that
// SendMail appends to, drained by up to relaySessions goroutines that
// each own one persistent smtp.Client. A session goroutine starts when
// mail is queued and every running one is busy, and ends — with QUIT —
// after relayIdle without mail, when the peer's address changes under
// it, or when the node closes and the queue is empty.
//
// enqueue never blocks, whatever the queue holds. The peer's SMTP
// handlers call our SendMail (list acks) while our sessions wait on
// those handlers' replies, and the peer is in the same position towards
// us; a bounded queue that blocked its producers could stop both ends.
//
// What a failed send does depends on which side of the end-of-data "."
// it failed on; see deliver.
type relay struct {
	node  *Node
	index int

	mu      sync.Mutex
	addr    string
	queue   []*mail.Message
	running int // session goroutines alive
	parked  int // of those, waiting in next for mail
	closing bool

	// wake holds a token for a parked session to take: one per enqueue
	// that saw a session parked, and a full set when every session must
	// look up (close, a new address). It is as deep as there can be
	// sessions, so a send that finds it full is already redundant.
	wake chan struct{}
	wg   sync.WaitGroup

	sessions atomic.Int64 // open smtp.Clients
}

// relayStats counts relay work across all of a node's peers.
type relayStats struct {
	dials   atomic.Int64 // sessions opened
	sent    atomic.Int64 // transactions the peer acknowledged
	rcpts   atomic.Int64 // recipients of those transactions
	retried atomic.Int64 // resent on a fresh session after a stale one failed
	failed  atomic.Int64 // given up on, each with a logged diagnostic
}

func newRelay(n *Node, index int, addr string) *relay {
	return &relay{node: n, index: index, addr: addr, wake: make(chan struct{}, relaySessions)}
}

// enqueue queues msg for the peer and returns at once. It reports false,
// and does not take the message, once close has begun.
func (r *relay) enqueue(msg *mail.Message) bool {
	r.mu.Lock()
	if r.closing {
		r.mu.Unlock()
		return false
	}
	r.queue = append(r.queue, msg)
	// Each parked session will take one message; only what is queued
	// beyond that needs another session.
	start := len(r.queue) > r.parked && r.running < relaySessions
	if start {
		r.running++
		r.wg.Add(1)
	}
	wake := r.parked > 0
	r.mu.Unlock()
	if start {
		go r.session()
	}
	if wake {
		r.wakeOne()
	}
	return true
}

func (r *relay) wakeOne() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

func (r *relay) wakeAll() {
	for i := 0; i < relaySessions; i++ {
		r.wakeOne()
	}
}

// setAddr records the peer's SMTP address. When it changes, parked
// sessions — connected to the old one — hang up; a busy session notices
// before its next send.
func (r *relay) setAddr(addr string) {
	r.mu.Lock()
	changed := r.addr != addr
	r.addr = addr
	r.mu.Unlock()
	if changed {
		r.wakeAll()
	}
}

func (r *relay) address() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.addr
}

func (r *relay) depth() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.queue)
}

// close refuses further mail, lets the sessions drain what is queued,
// and returns when the last of them has hung up.
func (r *relay) close() {
	r.mu.Lock()
	r.closing = true
	r.mu.Unlock()
	r.wakeAll()
	r.wg.Wait()
}

// next returns the message at the head of the queue and the address to
// send it to, parking until there is one. ok is false when the calling
// session should end instead: nothing is queued and the relay is
// closing, idle has fired, or connected (the address the session holds a
// connection to, "" for none) is no longer the peer's.
func (r *relay) next(idle *time.Timer, connected string) (msg *mail.Message, addr string, ok bool) {
	idle.Reset(relayIdle)
	expired := false
	r.mu.Lock()
	for len(r.queue) == 0 {
		if r.closing || expired || (connected != "" && connected != r.addr) {
			r.running--
			r.mu.Unlock()
			return nil, "", false
		}
		r.parked++
		r.mu.Unlock()
		select {
		case <-r.wake:
		case <-idle.C:
			expired = true
		}
		r.mu.Lock()
		r.parked--
	}
	msg, r.queue[0] = r.queue[0], nil
	r.queue = r.queue[1:]
	addr = r.addr
	r.mu.Unlock()
	return msg, addr, true
}

// session is one relay goroutine: it sends queued mail over one SMTP
// connection until next tells it to stop.
func (r *relay) session() {
	defer r.wg.Done()
	idle := time.NewTimer(relayIdle)
	defer idle.Stop()
	s := relaySession{relay: r}
	defer s.Close()
	for {
		msg, addr, ok := r.next(idle, s.addr)
		if !ok {
			return
		}
		s.deliver(addr, msg)
	}
}

// relaySession is the SMTP connection a session goroutine owns.
type relaySession struct {
	relay *relay
	c     *smtp.Client // nil when not connected
	addr  string       // where c is connected to
}

// deliver sends msg to the peer at addr, once.
//
// A send that fails before the end-of-data "." left us (smtp.UnsentError)
// has not reached the peer's ledger. On a persistent session that is the
// ordinary way to learn that the peer restarted or timed us out — with
// pipelining it shows at the wait for 354, before any body byte — so the
// session is dropped and the message sent again, silently, on a fresh
// connection to the peer's current address. Once.
//
// A send that fails after end-of-data is ambiguous: the peer may have
// credited the recipient and only its 250 been lost. It is never sent
// again — a duplicate would be charged at the peer a second time but
// here only once, breaking credit_i[j] + credit_j[i] == 0 (§4.1) — and
// is logged, like a refusal and an unreachable peer.
//
// A message for several of the peer's users goes as one transaction
// with one RCPT each. The peer receives a transaction all or nothing,
// so a refusal of one — any reply that is not a 250 — credited nobody:
// such a message is split once into one-recipient transactions, each
// sent by the rules above.
func (s *relaySession) deliver(addr string, msg *mail.Message) {
	n := s.relay.node
	err := s.attempt(addr, msg)
	var unsent *smtp.UnsentError
	if errors.As(err, &unsent) {
		n.relayStats.retried.Add(1)
		addr = s.relay.address()
		err = s.attempt(addr, msg)
	}
	var refused *smtp.ProtocolError
	if len(msg.Rcpts) > 1 && errors.As(err, &refused) {
		for _, to := range msg.Rcpts {
			s.deliver(addr, msg.CopyFor(to))
		}
		return
	}
	if err != nil {
		n.relayStats.failed.Add(1)
		n.cfg.Logf("core: relay to %s: %v", msg.To.Domain, err)
		return
	}
	n.relayStats.sent.Add(1)
	n.relayStats.rcpts.Add(int64(len(msg.Recipients())))
}

// attempt makes one try at sending msg, connecting to addr first if the
// session is not connected there. It leaves the session connected only
// if the connection is still good for another message.
func (s *relaySession) attempt(addr string, msg *mail.Message) error {
	if s.c != nil && s.addr != addr {
		s.Close()
	}
	if s.c == nil {
		if err := s.dial(addr); err != nil {
			return err
		}
	}
	err := s.c.Send(msg.From, msg.Recipients(), msg)
	if err == nil {
		return nil
	}
	var refused *smtp.ProtocolError
	if errors.As(err, &refused) && s.c.Reset() == nil {
		return err // the peer said no to this message, not to the session
	}
	_ = s.c.Close() // err is what deliver acts on; the session is dropped either way
	s.forget()
	return err
}

func (s *relaySession) dial(addr string) error {
	c, err := smtp.Dial(addr, relayTimeout)
	if err != nil {
		return err
	}
	if err := c.Hello(s.relay.node.engine.Domain()); err != nil {
		_ = c.Close() // the refused greeting is the error to report
		return err
	}
	s.c, s.addr = c, addr
	s.relay.sessions.Add(1)
	s.relay.node.relayStats.dials.Add(1)
	return nil
}

// Close says QUIT and hangs up, if the session is connected. The peer
// may have gone first (its idle timeout, its shutdown); that is how idle
// sessions normally end and is not reported.
func (s *relaySession) Close() {
	if s.c != nil {
		_ = s.c.Quit() // a peer that hung up first has ended the session too
		s.forget()
	}
}

func (s *relaySession) forget() {
	s.c, s.addr = nil, ""
	s.relay.sessions.Add(-1)
}

var _ metrics.Collector = (*Node)(nil)

// Collect implements metrics.Collector for the relay layer: per peer,
// the mail queued and the sessions open; per node, sessions dialed,
// transactions sent and their recipients (so rcpts/sent is recipients
// per relayed transaction), resent after a stale session, and given up
// on. The engine's own series come from Engine.Collect.
func (n *Node) Collect(reg *metrics.Registry) {
	isp := n.engine.Domain()
	n.mu.Lock()
	relays := n.relayList()
	n.mu.Unlock()
	for _, r := range relays {
		peer := n.peerName(r.index)
		reg.Gauge("zmail_relay_queue_depth", "isp", isp, "peer", peer).Set(float64(r.depth()))
		reg.Gauge("zmail_relay_sessions", "isp", isp, "peer", peer).Set(float64(r.sessions.Load()))
	}
	st := &n.relayStats
	reg.Gauge("zmail_relay_dials_total", "isp", isp).Set(float64(st.dials.Load()))
	reg.Gauge("zmail_relay_sent_total", "isp", isp).Set(float64(st.sent.Load()))
	reg.Gauge("zmail_relay_rcpts_total", "isp", isp).Set(float64(st.rcpts.Load()))
	reg.Gauge("zmail_relay_retried_total", "isp", isp).Set(float64(st.retried.Load()))
	reg.Gauge("zmail_relay_failed_total", "isp", isp).Set(float64(st.failed.Load()))
}
