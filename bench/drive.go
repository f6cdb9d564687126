package main

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zmail/internal/mail"
	"zmail/internal/smtp"
)

const (
	// window bounds, per connection, the recipients the servers have
	// accepted but not yet delivered (for list mail: not yet acked).
	// Without it a 16-recipient stream outruns the relay and the thaw
	// after an audit opens one socket per buffered message.
	window = 64
	// ringSize is the per-connection count of transaction slots; it only
	// has to exceed the window by a wide margin.
	ringSize = 4096
)

// lostAfter is how long a recipient may stay undelivered before it is
// counted lost and its window slot reclaimed. Only a test shortens it.
var lostAfter = 5 * time.Second

var epoch = time.Now()

func sinceEpoch() time.Duration { return time.Since(epoch) }

// span is one timed boundary crossing. Times are nanoseconds since
// epoch; spans of one message share its id, and parent names the span
// that caused this one (0 for a root).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Boundaries the generator can see from outside the daemons.
const (
	spanMsg     = "msg"     // Client.Send start -> last delivery or ack
	spanSubmit  = "submit"  // Client.Send start -> final 250
	spanDeliver = "deliver" // Client.Send start -> Mailbox callback
	spanAck     = "ack"     // Client.Send start -> AckSink callback
	spanAudit   = "audit.round"
)

// msgID gives the message sent as (conn, seq) an id spans can share.
func msgID(conn int, seq int64) int64 { return int64(conn)<<48 | seq }

// buf is an append-only buffer several goroutines fill without a lock:
// add claims an index, writes, then publishes through done, which
// values waits on before reading.
type buf[T any] struct {
	next, done atomic.Int64
	v          []T
}

func newBuf[T any](n int) *buf[T] { return &buf[T]{v: make([]T, n)} }

func (b *buf[T]) add(x T) {
	i := b.next.Add(1) - 1
	if int(i) < len(b.v) {
		b.v[i] = x
	}
	b.done.Add(1)
}

// values returns what was recorded and how many samples did not fit.
func (b *buf[T]) values() ([]T, int64) {
	n := b.next.Load()
	for b.done.Load() < n {
		time.Sleep(time.Millisecond)
	}
	if int(n) > len(b.v) {
		return b.v, n - int64(len(b.v))
	}
	return b.v[:n], 0
}

// slot tracks one in-flight transaction. The sender owns it until the
// DATA is written; after that the delivery callbacks do.
type slot struct {
	seq     atomic.Int64
	sendAt  atomic.Int64
	pending atomic.Int32 // window tokens this transaction still holds
}

// counts is the failure accounting of one run, in recipients.
type counts struct {
	Attempted int64 `json:"attempted"`
	Accepted  int64 `json:"accepted"` // covered by a final 250
	Rejected  int64 `json:"rejected_5xx"`
	Deferred  int64 `json:"deferred_451"`
	Transport int64 `json:"transport_errors"`
	Lost      int64 `json:"lost"`      // accepted, not delivered within lostAfter
	Delivered int64 `json:"delivered"` // Mailbox callbacks
	Acked     int64 `json:"acked"`     // AckSink callbacks
	Stray     int64 `json:"stray"`     // callbacks that matched no live transaction
	Txns      int64 `json:"transactions"`
	Bytes     int64 `json:"bytes"` // encoded message bytes accepted
}

func (c *counts) add(o counts) {
	c.Attempted += o.Attempted
	c.Accepted += o.Accepted
	c.Rejected += o.Rejected
	c.Deferred += o.Deferred
	c.Transport += o.Transport
	c.Lost += o.Lost
	c.Delivered += o.Delivered
	c.Acked += o.Acked
	c.Stray += o.Stray
	c.Txns += o.Txns
	c.Bytes += o.Bytes
}

func (c counts) failed() int64 { return c.Rejected + c.Deferred + c.Transport + c.Lost }

// latencies are the raw samples of one boundary, nanoseconds, one
// buffer per connection so the callbacks of two connections never
// touch the same counter.
type sample struct{ start, lat int64 }

// conn is one client goroutine's state: a persistent SMTP session per
// ISP, the window semaphore, and the slot ring the callbacks index.
type conn struct {
	id      int
	clients []*smtp.Client
	tokens  chan struct{}
	ring    [ringSize]slot

	submit, deliver, ack *buf[sample]
	spans                *buf[span] // filled only while tracing

	// Written by the delivery callbacks.
	delivered, acked, stray, lost atomic.Int64

	// Owned by the sender goroutine.
	c       counts
	nextSeq int64
}

// loadgen is the closed-loop generator: one goroutine per connection,
// each sending its own pre-generated stream and waiting for every 250.
type loadgen struct {
	w     workload
	b     *builder
	ch    []*choices
	conns []*conn
	addrs []string

	tracing atomic.Bool
}

// newLoadgen sizes every sample buffer for samples events per
// connection; spanCap is 0 for an untraced run.
func newLoadgen(w workload, b *builder, ch []*choices, samples, spanCap int) *loadgen {
	g := &loadgen{w: w, b: b, ch: ch}
	for i := range ch {
		c := &conn{
			id:      i,
			tokens:  make(chan struct{}, window),
			submit:  newBuf[sample](samples),
			deliver: newBuf[sample](samples),
			ack:     newBuf[sample](0),
			spans:   newBuf[span](spanCap),
		}
		if w.list {
			c.ack = newBuf[sample](samples)
		}
		for t := 0; t < window; t++ {
			c.tokens <- struct{}{}
		}
		for s := range c.ring {
			c.ring[s].seq.Store(-1)
		}
		g.conns = append(g.conns, c)
	}
	return g
}

// dial opens every connection's session to every ISP.
func (g *loadgen) dial(addrs []string) error {
	g.addrs = addrs
	for _, c := range g.conns {
		for _, addr := range addrs {
			cl, err := dialClient(addr)
			if err != nil {
				return err
			}
			c.clients = append(c.clients, cl)
		}
	}
	return nil
}

func dialClient(addr string) (*smtp.Client, error) {
	cl, err := smtp.Dial(addr, 30*time.Second)
	if err != nil {
		return nil, err
	}
	if err := cl.Hello("client.zmail.test"); err != nil {
		_ = cl.Close()
		return nil, err
	}
	return cl, nil
}

func (g *loadgen) hangUp() {
	for _, c := range g.conns {
		for _, cl := range c.clients {
			_ = cl.Quit()
		}
		c.clients = nil
	}
}

// parseSubject reads "b<conn>.<seq>".
func parseSubject(s string) (conn int, seq int64, ok bool) {
	s, found := strings.CutPrefix(s, subjectPrefix)
	if !found {
		return 0, 0, false
	}
	cs, qs, found := strings.Cut(s, ".")
	if !found {
		return 0, 0, false
	}
	c, err := strconv.Atoi(cs)
	if err != nil {
		return 0, 0, false
	}
	q, err := strconv.ParseInt(qs, 10, 64)
	if err != nil || q < 0 {
		return 0, 0, false
	}
	return c, q, true
}

// onDeliver is the Mailbox callback of every ISP.
func (g *loadgen) onDeliver(_ string, msg *mail.Message) {
	g.event(msg.Subject(), spanDeliver)
}

// onAck is the AckSink callback; the ack's Subject is "Ack: <subject>".
func (g *loadgen) onAck(_ string, msg *mail.Message) {
	subject, _ := strings.CutPrefix(msg.Subject(), "Ack: ")
	g.event(subject, spanAck)
}

// event records one delivery or ack and, when it completes a recipient
// (the delivery of ordinary mail, the ack of list mail), returns that
// recipient's window token.
func (g *loadgen) event(subject string, kind string) {
	now := int64(sinceEpoch())
	ci, seq, ok := parseSubject(subject)
	if !ok || ci < 0 || ci >= len(g.conns) {
		return // not benchmark mail (a postmaster warning, say)
	}
	c := g.conns[ci]
	s := &c.ring[seq%ringSize]
	if s.seq.Load() != seq {
		c.stray.Add(1)
		return
	}
	sendAt := s.sendAt.Load()
	if kind == spanDeliver {
		c.deliver.add(sample{sendAt, now - sendAt})
		c.delivered.Add(1)
	} else {
		c.ack.add(sample{sendAt, now - sendAt})
		c.acked.Add(1)
	}
	if g.tracing.Load() {
		c.spans.add(span{Name: kind, ID: msgID(ci, seq), Parent: spanMsg, Start: sendAt, End: now})
	}
	if g.w.list && kind == spanDeliver {
		return // the recipient is complete when its ack comes back
	}
	if s.pending.Add(-1) < 0 {
		// The sender already wrote this recipient off as lost.
		s.pending.Add(1)
		c.stray.Add(1)
		return
	}
	c.tokens <- struct{}{}
}

// reclaim writes off what transaction slot s still waits for.
func (c *conn) reclaim(s *slot) {
	for n := s.pending.Swap(0); n > 0; n-- {
		c.lost.Add(1)
		c.tokens <- struct{}{}
	}
}

// sweep reclaims every slot whose transaction was sent before cutoff.
func (c *conn) sweep(cutoff int64) {
	for i := range c.ring {
		s := &c.ring[i]
		if s.seq.Load() >= 0 && s.pending.Load() > 0 && s.sendAt.Load() < cutoff {
			c.reclaim(s)
		}
	}
}

// acquire takes n window tokens. Whenever it has waited lostAfter for
// one it writes off the recipients that have been undelivered that long.
func (c *conn) acquire(n int) {
	for n > 0 {
		select {
		case <-c.tokens:
			n--
			continue
		default:
		}
		timer := time.NewTimer(lostAfter)
		select {
		case <-c.tokens:
			n--
			timer.Stop()
		case <-timer.C:
			c.sweep(int64(sinceEpoch() - lostAfter))
		}
	}
}

// settle waits until every recipient this connection has sent is
// delivered, or until lostAfter after lastSend, when it writes off the
// rest. Window tokens still missing after that are an error only a bug
// in the accounting can cause.
func (c *conn) settle(lastSend time.Duration) error {
	timer := time.NewTimer(lastSend + lostAfter - sinceEpoch())
	defer timer.Stop()
	swept := false
	held := 0
	for held < window {
		select {
		case <-c.tokens:
			held++
		case <-timer.C:
			if swept {
				return fmt.Errorf("conn %d: %d window tokens missing after settle", c.id, window-held)
			}
			swept = true
			c.sweep(int64(sinceEpoch()))
			timer.Reset(time.Second)
		}
	}
	for ; held > 0; held-- {
		c.tokens <- struct{}{}
	}
	return nil
}

// driveLimits ends a drive at a deadline or after a fixed number of
// transactions per connection, whichever is set.
type driveLimits struct {
	until   time.Duration // since epoch; 0 = no deadline
	maxTxns int           // per connection; 0 = unlimited
	conns   int           // connections used; 0 = all
	// sequential makes a connection wait for every delivery (and ack)
	// of a transaction before sending the next: the unloaded latency.
	sequential bool
}

// drive runs the closed loops until lim, waits for the deliveries to
// finish, and returns the accounting of everything the generator has
// sent so far; a later drive continues each connection's stream.
func (g *loadgen) drive(lim driveLimits) (counts, error) {
	conns := g.conns
	if lim.conns > 0 {
		conns = conns[:lim.conns]
	}
	var wg sync.WaitGroup
	errs := make([]error, len(conns))
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = g.run(c, lim)
		}()
	}
	wg.Wait()
	var total counts
	for _, c := range g.conns {
		c.c.Delivered, c.c.Acked = c.delivered.Load(), c.acked.Load()
		c.c.Stray, c.c.Lost = c.stray.Load(), c.lost.Load()
		total.add(c.c)
	}
	return total, errors.Join(errs...)
}

func (g *loadgen) run(c *conn, lim driveLimits) (err error) {
	var t txn
	ch := g.ch[c.id]
	last := sinceEpoch()
	defer func() {
		if serr := c.settle(last); err == nil {
			err = serr
		}
	}()
	var msgBytes int64
	for n := 0; lim.maxTxns == 0 || n < lim.maxTxns; n++ {
		if lim.until > 0 && sinceEpoch() >= lim.until {
			break
		}
		seq := c.nextSeq
		c.nextSeq++
		g.b.build(&t, ch, int(seq), subjectFor(c.id, seq))
		if msgBytes == 0 {
			// Every message of a workload has the same size up to the
			// digits of its sequence number.
			msgBytes = int64(len(t.msg.Encode()))
		}
		nr := len(t.rcpts)
		c.acquire(nr)

		s := &c.ring[seq%ringSize]
		c.reclaim(s) // a transaction ringSize sends old that never finished
		s.pending.Store(int32(nr))
		start := sinceEpoch()
		s.sendAt.Store(int64(start))
		s.seq.Store(seq)

		serr := c.clients[t.isp].Send(t.from, t.rcpts, t.msg)
		end := sinceEpoch()
		last = end
		c.c.Txns++
		c.c.Attempted += int64(nr)
		if serr == nil {
			c.c.Accepted += int64(nr)
			c.c.Bytes += msgBytes
			c.submit.add(sample{int64(start), int64(end - start)})
			if g.tracing.Load() {
				c.spans.add(span{Name: spanSubmit, ID: msgID(c.id, seq), Parent: spanMsg, Start: int64(start), End: int64(end)})
			}
			if lim.sequential {
				if err := c.settle(end); err != nil {
					return err
				}
			}
			continue
		}
		// Refused or broken: nothing will be delivered, so the slot's
		// tokens come straight back.
		for k := s.pending.Swap(0); k > 0; k-- {
			c.tokens <- struct{}{}
		}
		var perr *smtp.ProtocolError
		switch {
		case errors.As(serr, &perr) && perr.Code == 451:
			c.c.Deferred += int64(nr)
		case errors.As(serr, &perr):
			c.c.Rejected += int64(nr)
		default:
			c.c.Transport += int64(nr)
		}
		if perr != nil && c.clients[t.isp].Reset() == nil {
			continue
		}
		_ = c.clients[t.isp].Close()
		cl, derr := dialClient(g.addrs[t.isp])
		if derr != nil {
			return fmt.Errorf("conn %d: redial after %v: %w", c.id, serr, derr)
		}
		c.clients[t.isp] = cl
	}
	return nil
}
