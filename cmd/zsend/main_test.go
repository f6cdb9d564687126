package main

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"zmail/internal/mail"
	"zmail/internal/smtp"
)

// sink collects transactions for the test server.
type sink struct {
	mu   sync.Mutex
	msgs []*mail.Message
}

func (s *sink) NewSession(string, net.Addr) (smtp.Session, error) { return &sinkSession{s: s}, nil }

type sinkSession struct{ s *sink }

func (ss *sinkSession) Mail(mail.Address) error { return nil }
func (ss *sinkSession) Rcpt(mail.Address) error { return nil }
func (ss *sinkSession) Data(_ mail.Address, m *mail.Message) error {
	ss.s.mu.Lock()
	defer ss.s.mu.Unlock()
	ss.s.msgs = append(ss.s.msgs, m)
	return nil
}
func (ss *sinkSession) Reset() {}

func TestZsendDeliversWithFlags(t *testing.T) {
	s := &sink{}
	srv := &smtp.Server{Domain: "test.example", Backend: s}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()

	err = run([]string{
		"-server", l.Addr().String(),
		"-from", "alice@alpha.example",
		"-to", "bob@test.example,carol@test.example",
		"-subject", "cli test",
		"-body", "sent by zsend",
		"-class", "list",
		"-timeout", time.Second.String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// One transaction carries both recipients.
	if len(s.msgs) != 1 || len(s.msgs[0].Recipients()) != 2 {
		t.Fatalf("%d transactions, want 1 with 2 recipients", len(s.msgs))
	}
	m := s.msgs[0]
	if m.Subject() != "cli test" || m.Body != "sent by zsend" || m.Class() != mail.ClassList {
		t.Fatalf("message = %q %q %v", m.Subject(), m.Body, m.Class())
	}
}

func TestZsendFlagValidation(t *testing.T) {
	if err := run([]string{"-to", "x@y.example"}); err == nil {
		t.Error("missing -from accepted")
	}
	if err := run([]string{"-from", "x@y.example"}); err == nil {
		t.Error("missing -to accepted")
	}
	if err := run([]string{"-from", "not-an-address", "-to", "x@y.example", "-body", "b"}); err == nil {
		t.Error("bad -from accepted")
	}
	if err := run([]string{"-from", "x@y.example", "-to", "bad", "-body", "b"}); err == nil {
		t.Error("bad -to accepted")
	}
	for _, class := range []string{"ack", "bulk"} {
		err := run([]string{"-server", "127.0.0.1:1", "-from", "x@y.example", "-to", "z@y.example", "-body", "b", "-class", class})
		if err == nil || !strings.Contains(err.Error(), "-class") {
			t.Errorf("-class %s: err = %v, want the flag refused", class, err)
		}
	}
}

func TestZsendServerDown(t *testing.T) {
	err := run([]string{
		"-server", "127.0.0.1:1", // nothing listens here
		"-from", "a@b.example", "-to", "c@d.example",
		"-body", "x", "-timeout", "100ms",
	})
	if err == nil {
		t.Fatal("unreachable server accepted")
	}
}
