package smtp

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"zmail/internal/mail"
)

// recordingBackend stores every completed transaction.
type recordingBackend struct {
	mu       sync.Mutex
	sessions int
	msgs     []received
	// rejectRcpt makes Rcpt fail for this local part.
	rejectRcpt string
	// rejectFrom makes Mail fail for this sender domain.
	rejectFrom string
	// transientData makes Data fail with a Transient error for this
	// recipient local part; rejectData fails it hard.
	transientData string
	rejectData    string
	// transactions counts Data calls; msgs holds one entry per
	// recipient of each.
	transactions int
}

type received struct {
	helo string
	from mail.Address
	to   mail.Address
	msg  *mail.Message
}

func (b *recordingBackend) NewSession(helo string, _ net.Addr) (Session, error) {
	b.mu.Lock()
	b.sessions++
	b.mu.Unlock()
	return &recordingSession{backend: b, helo: helo}, nil
}

func (b *recordingBackend) received() []received {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]received(nil), b.msgs...)
}

type recordingSession struct {
	backend *recordingBackend
	helo    string
	from    mail.Address
	resets  int
}

func (s *recordingSession) Mail(from mail.Address) error {
	if s.backend.rejectFrom != "" && from.Domain == s.backend.rejectFrom {
		return errors.New("sender rejected")
	}
	s.from = from
	return nil
}

func (s *recordingSession) Rcpt(to mail.Address) error {
	if to.Local == s.backend.rejectRcpt {
		return errors.New("no such user")
	}
	return nil
}

// Data fails the whole transaction hard if any recipient is rejectData,
// else transiently if any is transientData.
func (s *recordingSession) Data(to mail.Address, msg *mail.Message) error {
	if to != msg.To {
		return errors.New("to is not msg.To")
	}
	var err error
	for _, r := range msg.Recipients() {
		switch r.Local {
		case s.backend.rejectData:
			return errors.New("mailbox gone")
		case s.backend.transientData:
			err = Transient{Err: errors.New("admission queue full")}
		}
	}
	if err != nil {
		return err
	}
	s.backend.mu.Lock()
	defer s.backend.mu.Unlock()
	s.backend.transactions++
	for _, r := range msg.Recipients() {
		s.backend.msgs = append(s.backend.msgs, received{helo: s.helo, from: s.from, to: r, msg: msg})
	}
	return nil
}

func (s *recordingSession) Reset() { s.resets++ }

// startServer runs a Server on a loopback listener and returns its
// address plus a cleanup-registered shutdown.
func startServer(t *testing.T, backend Backend) string {
	t.Helper()
	srv := &Server{Domain: "test.example", Backend: backend, ReadTimeout: 5 * time.Second}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })
	return l.Addr().String()
}

func TestSendMailEndToEnd(t *testing.T) {
	backend := &recordingBackend{}
	addr := startServer(t, backend)

	from := mail.MustParseAddress("alice@a.example")
	to := mail.MustParseAddress("bob@test.example")
	msg := mail.NewMessage(from, to, "Greetings", "line one\nline two")
	if err := SendMail(addr, "a.example", from, []mail.Address{to}, msg, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	got := backend.received()
	if len(got) != 1 {
		t.Fatalf("received %d messages", len(got))
	}
	r := got[0]
	if r.helo != "a.example" || r.from != from || r.to != to {
		t.Fatalf("envelope = %+v", r)
	}
	if r.msg.Subject() != "Greetings" || r.msg.Body != "line one\nline two" {
		t.Fatalf("content = %q / %q", r.msg.Subject(), r.msg.Body)
	}
}

// TestDataTransientBackpressure: a Transient delivery error (queue
// backpressure) answers DATA with a retryable 451; any hard failure in
// the same transaction keeps the permanent 550.
func TestDataTransientBackpressure(t *testing.T) {
	from := mail.MustParseAddress("a@a.example")
	busy := mail.MustParseAddress("busy@test.example")
	gone := mail.MustParseAddress("gone@test.example")

	code := func(err error) int {
		t.Helper()
		var pe *ProtocolError
		if !errors.As(err, &pe) {
			t.Fatalf("delivery error = %v, want *ProtocolError", err)
		}
		return pe.Code
	}

	addr := startServer(t, &recordingBackend{transientData: "busy", rejectData: "gone"})
	msg := mail.NewMessage(from, busy, "s", "b")
	err := SendMail(addr, "a.example", from, []mail.Address{busy}, msg, 5*time.Second)
	if got := code(err); got != 451 {
		t.Fatalf("transient failure replied %d, want 451", got)
	}
	// Mixed transient + hard failures must not soften to a 451.
	err = SendMail(addr, "a.example", from, []mail.Address{busy, gone}, msg, 5*time.Second)
	if got := code(err); got != 550 {
		t.Fatalf("mixed failure replied %d, want 550", got)
	}
	if !IsTransient(Transient{Err: errors.New("x")}) || IsTransient(errors.New("x")) {
		t.Fatal("IsTransient misclassifies")
	}
}

func TestDotStuffing(t *testing.T) {
	backend := &recordingBackend{}
	addr := startServer(t, backend)
	from := mail.MustParseAddress("a@a.example")
	to := mail.MustParseAddress("b@test.example")
	body := ".leading dot\n..double dot\nmiddle . dot\n."
	msg := mail.NewMessage(from, to, "dots", body)
	if err := SendMail(addr, "a.example", from, []mail.Address{to}, msg, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	got := backend.received()
	if len(got) != 1 || got[0].msg.Body != body {
		t.Fatalf("body = %q, want %q", got[0].msg.Body, body)
	}
}

func TestMultipleRecipients(t *testing.T) {
	backend := &recordingBackend{}
	addr := startServer(t, backend)
	from := mail.MustParseAddress("a@a.example")
	rcpts := []mail.Address{
		mail.MustParseAddress("one@test.example"),
		mail.MustParseAddress("two@test.example"),
		mail.MustParseAddress("three@test.example"),
	}
	msg := mail.NewMessage(from, rcpts[0], "multi", "b")
	if err := SendMail(addr, "a.example", from, rcpts, msg, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	got := backend.received()
	if len(got) != 3 {
		t.Fatalf("deliveries = %d, want 3", len(got))
	}
	// One Data call carries the whole envelope, in RCPT order.
	backend.mu.Lock()
	transactions := backend.transactions
	backend.mu.Unlock()
	if transactions != 1 {
		t.Fatalf("Data ran %d times, want once per transaction", transactions)
	}
	for i, r := range got {
		if r.to != rcpts[i] || r.msg != got[0].msg {
			t.Fatalf("delivery %d = %v in message %p, want %v in one message", i, r.to, r.msg, rcpts[i])
		}
	}
	if m := got[0].msg; m.To != rcpts[0] || len(m.Rcpts) != 3 {
		t.Fatalf("envelope To %v, Rcpts %v; want %v first of three", m.To, m.Rcpts, rcpts[0])
	}
}

func TestMultipleTransactionsPerConnection(t *testing.T) {
	backend := &recordingBackend{}
	addr := startServer(t, backend)
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Hello("a.example"); err != nil {
		t.Fatal(err)
	}
	from := mail.MustParseAddress("a@a.example")
	for i := 0; i < 3; i++ {
		to := mail.MustParseAddress(fmt.Sprintf("u%d@test.example", i))
		msg := mail.NewMessage(from, to, fmt.Sprintf("msg %d", i), "b")
		if err := c.Send(from, []mail.Address{to}, msg); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := c.Quit(); err != nil {
		t.Fatal(err)
	}
	if got := backend.received(); len(got) != 3 {
		t.Fatalf("received %d", len(got))
	}
	backend.mu.Lock()
	sessions := backend.sessions
	backend.mu.Unlock()
	if sessions != 1 {
		t.Fatalf("sessions = %d, want 1 (same connection)", sessions)
	}
}

func TestRcptRejection(t *testing.T) {
	backend := &recordingBackend{rejectRcpt: "nobody"}
	addr := startServer(t, backend)
	from := mail.MustParseAddress("a@a.example")
	to := mail.MustParseAddress("nobody@test.example")
	msg := mail.NewMessage(from, to, "s", "b")
	err := SendMail(addr, "a.example", from, []mail.Address{to}, msg, 5*time.Second)
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Code != 550 {
		t.Fatalf("err = %v, want 550 ProtocolError", err)
	}
	if len(backend.received()) != 0 {
		t.Fatal("rejected recipient still received mail")
	}
}

// TestRcptRejectionPipelinedPartial: a pipelined group has its DATA on
// the wire before the RCPT replies are read, so when one recipient of
// two is refused the server answers 354 and waits for the body. Send
// still delivers to nobody — it hangs up instead — and returns the 550.
func TestRcptRejectionPipelinedPartial(t *testing.T) {
	backend := &recordingBackend{rejectRcpt: "nobody"}
	srv := &Server{Domain: "test.example", Backend: backend, ReadTimeout: 5 * time.Second}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()
	c, err := Dial(l.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Ehlo("a.example"); err != nil {
		t.Fatal(err)
	}
	from := mail.MustParseAddress("a@a.example")
	good := mail.MustParseAddress("b@test.example")
	bad := mail.MustParseAddress("nobody@test.example")
	err = c.Send(from, []mail.Address{good, bad}, mail.NewMessage(from, good, "s", "b"))
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Code != 550 {
		t.Fatalf("err = %v, want 550 ProtocolError", err)
	}
	_ = srv.Close() // joins the handler, so nothing can still arrive
	if got := backend.received(); len(got) != 0 {
		t.Fatalf("delivered %d messages of a refused transaction", len(got))
	}
}

func TestMailRejection(t *testing.T) {
	backend := &recordingBackend{rejectFrom: "banned.example"}
	addr := startServer(t, backend)
	from := mail.MustParseAddress("x@banned.example")
	to := mail.MustParseAddress("b@test.example")
	msg := mail.NewMessage(from, to, "s", "b")
	err := SendMail(addr, "banned.example", from, []mail.Address{to}, msg, 5*time.Second)
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Code != 550 {
		t.Fatalf("err = %v, want 550", err)
	}
}

// TestClientResetRecovers: after a RCPT rejection mid-transaction, a
// persistent client completes the next transaction on the same
// connection. A lock-step client Resets first — the recovery path the
// federation benchmark's drivers rely on. A pipelined client's group has
// already run to the server's 503 for DATA (250/550/503), so its session
// is ready for the next Send as it is — what core's relay relies on.
func TestClientResetRecovers(t *testing.T) {
	for _, tc := range []struct {
		name      string
		pipelined bool
	}{{"lock-step", false}, {"pipelined", true}} {
		t.Run(tc.name, func(t *testing.T) {
			backend := &recordingBackend{rejectRcpt: "nobody"}
			addr := startServer(t, backend)
			c, err := Dial(addr, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if tc.pipelined {
				_, err = c.Ehlo("a.example")
			} else {
				err = c.Hello("a.example")
			}
			if err != nil {
				t.Fatal(err)
			}
			if c.pipelining != tc.pipelined {
				t.Fatalf("pipelining = %v", c.pipelining)
			}
			from := mail.MustParseAddress("a@a.example")
			bad := mail.MustParseAddress("nobody@test.example")
			good := mail.MustParseAddress("b@test.example")
			err = c.Send(from, []mail.Address{bad}, mail.NewMessage(from, bad, "s", "b"))
			var pe *ProtocolError
			if !errors.As(err, &pe) || pe.Code != 550 {
				t.Fatalf("err = %v, want the RCPT's 550", err)
			}
			if !tc.pipelined {
				if err := c.Reset(); err != nil {
					t.Fatalf("Reset after rejection: %v", err)
				}
			}
			if err := c.Send(from, []mail.Address{good}, mail.NewMessage(from, good, "s2", "b2")); err != nil {
				t.Fatalf("Send after rejection: %v", err)
			}
			if got := backend.received(); len(got) != 1 {
				t.Fatalf("delivered %d messages, want 1", len(got))
			}
			_ = c.Quit()
		})
	}
}

// rawSession drives the protocol by hand to exercise error branches.
type rawSession struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	rs := &rawSession{t: t, conn: conn, r: bufio.NewReader(conn)}
	rs.expect("220")
	return rs
}

func (rs *rawSession) send(line string) {
	rs.t.Helper()
	if _, err := rs.conn.Write([]byte(line + "\r\n")); err != nil {
		rs.t.Fatal(err)
	}
}

func (rs *rawSession) expect(prefix string) string {
	rs.t.Helper()
	_ = rs.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := rs.r.ReadString('\n')
	if err != nil {
		rs.t.Fatalf("read: %v", err)
	}
	if !strings.HasPrefix(line, prefix) {
		rs.t.Fatalf("reply %q, want prefix %q", line, prefix)
	}
	return line
}

func TestCommandSequencing(t *testing.T) {
	backend := &recordingBackend{}
	addr := startServer(t, backend)
	rs := dialRaw(t, addr)

	rs.send("MAIL FROM:<a@a.example>")
	rs.expect("503") // HELO first
	rs.send("RCPT TO:<b@test.example>")
	rs.expect("503")
	rs.send("DATA")
	rs.expect("503")
	rs.send("HELO a.example")
	rs.expect("250")
	rs.send("RCPT TO:<b@test.example>")
	rs.expect("503") // MAIL first
	rs.send("MAIL FROM:<a@a.example>")
	rs.expect("250")
	rs.send("DATA")
	rs.expect("503") // RCPT first
	rs.send("RCPT TO:<b@test.example>")
	rs.expect("250")
	rs.send("DATA")
	rs.expect("354")
	rs.send("Subject: x")
	rs.send("")
	rs.send("body")
	rs.send(".")
	rs.expect("250")
	rs.send("QUIT")
	rs.expect("221")
}

func TestHELORequiresDomain(t *testing.T) {
	addr := startServer(t, &recordingBackend{})
	rs := dialRaw(t, addr)
	rs.send("HELO")
	rs.expect("501")
}

func TestBadAddressSyntax(t *testing.T) {
	addr := startServer(t, &recordingBackend{})
	rs := dialRaw(t, addr)
	rs.send("HELO a.example")
	rs.expect("250")
	rs.send("MAIL FROM:not-an-address")
	rs.expect("501")
	rs.send("MAIL FROM <a@a.example>")
	rs.expect("501")
}

func TestRSETClearsTransaction(t *testing.T) {
	backend := &recordingBackend{}
	addr := startServer(t, backend)
	rs := dialRaw(t, addr)
	rs.send("HELO a.example")
	rs.expect("250")
	rs.send("MAIL FROM:<a@a.example>")
	rs.expect("250")
	rs.send("RCPT TO:<b@test.example>")
	rs.expect("250")
	rs.send("RSET")
	rs.expect("250")
	rs.send("DATA")
	rs.expect("503") // transaction gone
}

func TestNOOPAndVRFYAndUnknown(t *testing.T) {
	addr := startServer(t, &recordingBackend{})
	rs := dialRaw(t, addr)
	rs.send("NOOP")
	rs.expect("250")
	rs.send("VRFY bob")
	rs.expect("252") // never discloses mailbox existence
	rs.send("BOGUS")
	rs.expect("502")
}

func TestNewMailResetsPriorTransaction(t *testing.T) {
	backend := &recordingBackend{}
	addr := startServer(t, backend)
	rs := dialRaw(t, addr)
	rs.send("HELO a.example")
	rs.expect("250")
	rs.send("MAIL FROM:<first@a.example>")
	rs.expect("250")
	rs.send("RCPT TO:<x@test.example>")
	rs.expect("250")
	// Starting over with a new MAIL discards the old envelope.
	rs.send("MAIL FROM:<second@a.example>")
	rs.expect("250")
	rs.send("RCPT TO:<y@test.example>")
	rs.expect("250")
	rs.send("DATA")
	rs.expect("354")
	rs.send("Subject: s")
	rs.send("")
	rs.send(".")
	rs.expect("250")
	got := backend.received()
	if len(got) != 1 || got[0].from.Local != "second" || got[0].to.Local != "y" {
		t.Fatalf("transaction = %+v", got)
	}
}

func TestServerClose(t *testing.T) {
	backend := &recordingBackend{}
	srv := &Server{Domain: "test.example", Backend: backend}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := srv.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		t.Fatal(err)
	}
	select {
	case err := <-served:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
}

// TestServeAfterCloseClosesListener: a Serve that starts after Close
// closes the listener it was handed, so a daemon shut down during boot
// releases its port.
func TestServeAfterCloseClosesListener(t *testing.T) {
	srv := &Server{Domain: "test.example", Backend: &recordingBackend{}}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(l); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Serve after Close returned %v", err)
	}
	again, err := net.Listen("tcp", l.Addr().String())
	if err != nil {
		_ = l.Close()
		t.Fatalf("the listener is still open: %v", err)
	}
	_ = again.Close()
}

func TestClientHelloRequired(t *testing.T) {
	addr := startServer(t, &recordingBackend{})
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	from := mail.MustParseAddress("a@a.example")
	to := mail.MustParseAddress("b@test.example")
	if err := c.Send(from, []mail.Address{to}, mail.NewMessage(from, to, "s", "b")); err == nil {
		t.Fatal("Send before Hello succeeded")
	}
}

func TestClientNoRecipients(t *testing.T) {
	addr := startServer(t, &recordingBackend{})
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Hello("a.example"); err != nil {
		t.Fatal(err)
	}
	from := mail.MustParseAddress("a@a.example")
	if err := c.Send(from, nil, mail.NewMessage(from, from, "s", "b")); err == nil {
		t.Fatal("Send with no recipients succeeded")
	}
}

func TestZmailHeadersSurviveTransport(t *testing.T) {
	backend := &recordingBackend{}
	addr := startServer(t, backend)
	from := mail.MustParseAddress("announce@a.example")
	to := mail.MustParseAddress("bob@test.example")
	msg := mail.NewMessage(from, to, "issue 1", "news")
	msg.SetClass(mail.ClassList)
	msg.SetHeader(mail.HeaderMsgID, "<list-1.a.example>")
	if err := SendMail(addr, "a.example", from, []mail.Address{to}, msg, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	got := backend.received()[0].msg
	if got.Class() != mail.ClassList || got.ID() != "<list-1.a.example>" {
		t.Fatalf("zmail headers lost: class=%v id=%q", got.Class(), got.ID())
	}
}
