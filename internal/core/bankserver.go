package core

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"

	"zmail/internal/bank"
	"zmail/internal/wire"
)

// BankHandler consumes inbound bank-link envelopes. bank.Bank (a
// central or leaf bank) and bank.Root (the top of the distributed
// two-level hierarchy) both satisfy it, so the same TCP server fronts
// every level of the bank tree.
type BankHandler interface {
	Handle(env *wire.Envelope) error
}

// BankServer exposes a BankHandler over TCP with the wire framing.
// Each compliant ISP (or, for a root server, each leaf bank) keeps one
// persistent connection; the server learns which connection belongs to
// which ISP from the From field of the first envelope it receives on
// it, and routes bank→ISP traffic back over the same connection.
type BankServer struct {
	bank BankHandler
	logf func(format string, args ...any)

	mu      sync.Mutex
	conns   map[int]net.Conn      // ISP index → connection
	live    map[net.Conn]struct{} // every accepted connection, registered or not
	forward func(env *wire.Envelope)
	ln      net.Listener
	closed  bool
	wg      sync.WaitGroup
}

// NewBankServer wraps a configured bank-level handler. For a
// bank.Bank, set its Transport to the value returned by
// (*BankServer).Transport before constructing the bank, or use
// StartBank for the one-step path.
func NewBankServer(b BankHandler, logf func(string, ...any)) *BankServer {
	if logf == nil {
		logf = log.Printf
	}
	return &BankServer{bank: b, logf: logf, conns: make(map[int]net.Conn), live: make(map[net.Conn]struct{})}
}

// SetForward installs a hook that receives a copy of every credit
// report the server successfully handled. A leaf bank in the two-level
// hierarchy forwards these to the root (typically via an Uplink), which
// verifies the cross-region pairs the leaf cannot see. The hook runs on
// the connection's read goroutine; keep it quick or hand off.
func (s *BankServer) SetForward(fn func(env *wire.Envelope)) {
	s.mu.Lock()
	s.forward = fn
	s.mu.Unlock()
}

// StartBank builds a bank whose transport routes through a new
// BankServer, starts listening on addr, and returns both. Enrollment
// (bank.Enroll) remains the caller's job.
func StartBank(cfg bank.Config, addr string, logf func(string, ...any)) (*bank.Bank, *BankServer, error) {
	srv := NewBankServer(nil, logf)
	cfg.Transport = srv.Transport()
	b, err := bank.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	srv.bank = b
	if err := srv.Listen(addr); err != nil {
		return nil, nil, err
	}
	return b, srv, nil
}

// StartBankHandler starts a BankServer for an already-constructed
// handler (a leaf bank wired through NewBankServer's Transport, or a
// root aggregator, which sends nothing and needs no transport).
func StartBankHandler(h BankHandler, addr string, logf func(string, ...any)) (*BankServer, error) {
	srv := NewBankServer(h, logf)
	if err := srv.Listen(addr); err != nil {
		return nil, err
	}
	return srv, nil
}

// Transport returns a bank.Transport that writes to the connection
// registered for each ISP.
func (s *BankServer) Transport() bank.Transport { return (*bankServerTransport)(s) }

type bankServerTransport BankServer

var _ bank.Transport = (*bankServerTransport)(nil)

func (t *bankServerTransport) SendISP(index int, env *wire.Envelope) {
	s := (*BankServer)(t)
	s.mu.Lock()
	conn := s.conns[index]
	s.mu.Unlock()
	if conn == nil {
		s.logf("bankserver: no connection for isp[%d]; dropping %v", index, env.Kind)
		return
	}
	if err := wire.WriteEnvelope(conn, env); err != nil {
		s.logf("bankserver: write to isp[%d]: %v", index, err)
	}
}

// Listen binds addr and starts accepting ISP connections.
func (s *BankServer) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("bankserver: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				_ = conn.Close()
				continue
			}
			s.live[conn] = struct{}{}
			s.wg.Add(1)
			s.mu.Unlock()
			go func() {
				defer s.wg.Done()
				s.serveConn(conn)
			}()
		}
	}()
	return nil
}

// Addr returns the bound address.
func (s *BankServer) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops the listener and every accepted connection, including
// one whose client has not sent an envelope yet, then waits for their
// handlers.
func (s *BankServer) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for c := range s.live {
		_ = c.Close()
	}
	s.conns = make(map[int]net.Conn)
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	if errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}

func (s *BankServer) serveConn(conn net.Conn) {
	defer conn.Close()
	registered := -1
	for {
		env, err := wire.ReadEnvelope(conn)
		if err != nil {
			break
		}
		idx := int(env.From)
		if registered != idx {
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				break // Close already closed conn
			}
			if old := s.conns[idx]; old != nil && old != conn {
				_ = old.Close()
			}
			s.conns[idx] = conn
			s.mu.Unlock()
			registered = idx
		}
		if env.Kind == wire.KindHello {
			continue // registration only
		}
		if err := s.bank.Handle(env); err != nil {
			s.logf("bankserver: handle %v from isp[%d]: %v", env.Kind, idx, err)
			continue
		}
		if env.Kind == wire.KindReply {
			s.mu.Lock()
			fn := s.forward
			s.mu.Unlock()
			if fn != nil {
				fn(env)
			}
		}
	}
	s.mu.Lock()
	delete(s.live, conn)
	if registered >= 0 && s.conns[registered] == conn {
		delete(s.conns, registered)
	}
	s.mu.Unlock()
}
