package core

import (
	"fmt"
	"net"
	"sync"
	"time"

	"zmail/internal/wire"
)

// Uplink is a persistent one-way wire-protocol client: a leaf bank's
// link to the root of the distributed hierarchy. It dials lazily,
// announces itself with a hello envelope, and redials on the next Send
// after a write failure, so a root restart costs at most the envelopes
// written while the link was down (an audit round whose reports are
// lost is simply never verified at the root; the next round is).
type Uplink struct {
	addr string
	from int32 // announced in the hello; a region index for leaf banks
	logf func(format string, args ...any)

	mu     sync.Mutex
	conn   net.Conn
	closed bool
}

// NewUplink prepares (without dialing) an uplink to addr. from
// identifies this endpoint in the hello envelope; logf may be nil.
func NewUplink(addr string, from int, logf func(string, ...any)) *Uplink {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Uplink{addr: addr, from: int32(from), logf: logf}
}

// Send writes one envelope, dialing (or redialing) first if needed.
func (u *Uplink) Send(env *wire.Envelope) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		return net.ErrClosed
	}
	if u.conn == nil {
		conn, err := dialHello(u.addr, u.from)
		if err != nil {
			return fmt.Errorf("core: uplink: %w", err)
		}
		u.conn = conn
	}
	if err := wire.WriteEnvelope(u.conn, env); err != nil {
		_ = u.conn.Close()
		u.conn = nil
		return fmt.Errorf("core: uplink write: %w", err)
	}
	return nil
}

// Forward adapts Send to the BankServer forward-hook signature,
// logging instead of returning failures (the hook runs on a read
// goroutine with nobody to hand an error to).
func (u *Uplink) Forward(env *wire.Envelope) {
	if err := u.Send(env); err != nil {
		u.logf("core: uplink forward %v: %v", env.Kind, err)
	}
}

// Close shuts the uplink; subsequent Sends fail fast.
func (u *Uplink) Close() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.closed = true
	if u.conn != nil {
		err := u.conn.Close()
		u.conn = nil
		return err
	}
	return nil
}

// dial opens a bank-protocol link; core's tests replace it to stall or
// fake one.
var dial = func(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 10*time.Second)
}

// dialHello opens a bank-protocol link — an ISP's to its bank, a leaf
// bank's to the root — and announces from in a hello envelope, so the
// far end can route to the link before anything else crosses it. A
// conn whose hello fails is closed.
func dialHello(addr string, from int32) (net.Conn, error) {
	conn, err := dial(addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	if err := wire.WriteEnvelope(conn, &wire.Envelope{Kind: wire.KindHello, From: from}); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("hello to %s: %w", addr, err)
	}
	return conn, nil
}
