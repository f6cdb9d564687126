package smtp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"zmail/internal/mail"
)

// TestEhloAdvertisesExtensions: the server's EHLO reply names SIZE,
// 8BITMIME and PIPELINING, and Hello, which opens with EHLO, takes the
// PIPELINING from it.
func TestEhloAdvertisesExtensions(t *testing.T) {
	backend := &recordingBackend{}
	addr := startServer(t, backend)
	rs := dialRaw(t, addr)
	rs.send("EHLO client.example")
	var ext []string
	for {
		line := strings.TrimRight(rs.expect("250"), "\r\n")
		ext = append(ext, line[4:])
		if line[3] != '-' {
			break
		}
	}
	for _, want := range []string{"SIZE 4194304", "8BITMIME", "PIPELINING"} {
		if !slices.Contains(ext[1:], want) { // the first line is the greeting
			t.Fatalf("%s not advertised: %q", want, ext)
		}
	}
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Hello("client.example"); err != nil {
		t.Fatal(err)
	}
	if !c.pipelining {
		t.Fatal("Hello did not take PIPELINING from the EHLO reply")
	}
	from := mail.MustParseAddress("a@client.example")
	to := mail.MustParseAddress("b@test.example")
	if err := c.Send(from, []mail.Address{to}, mail.NewMessage(from, to, "via ehlo", "b")); err != nil {
		t.Fatal(err)
	}
	if got := backend.received(); len(got) != 1 || got[0].msg.Subject() != "via ehlo" {
		t.Fatalf("received = %v", got)
	}
}

// TestPipelinedCommandGroup: a whole transaction's commands in one
// write (RFC 2920) are answered in order, and the 354 is not held back
// although nothing follows it.
func TestPipelinedCommandGroup(t *testing.T) {
	backend := &recordingBackend{}
	addr := startServer(t, backend)
	rs := dialRaw(t, addr)
	rs.send("EHLO client.example")
	for {
		line := rs.expect("250")
		if len(line) > 3 && line[3] != '-' {
			break
		}
	}
	rs.send("MAIL FROM:<a@client.example>\r\nRCPT TO:<b@test.example>\r\nRCPT TO:<c@test.example>\r\nDATA")
	for _, want := range []string{"250", "250", "250", "354"} {
		rs.expect(want)
	}
	// The body and the next transaction's group, also in one write.
	rs.send("Subject: piped\r\n\r\nbody\r\n.\r\nMAIL FROM:<a@client.example>\r\nRCPT TO:<b@test.example>\r\nDATA")
	for _, want := range []string{"250", "250", "250", "354"} {
		rs.expect(want)
	}
	if got := backend.received(); len(got) != 2 {
		t.Fatalf("delivered to %d recipients, want 2", len(got))
	}
}

// scriptedServer accepts one connection and hands it to serve; done is
// closed when serve has returned.
func scriptedServer(t *testing.T, serve func(conn net.Conn, r *bufio.Reader)) (addr string, done <-chan struct{}) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		serve(conn, bufio.NewReader(conn))
	}()
	t.Cleanup(func() {
		_ = l.Close()
		<-served
	})
	return l.Addr().String(), served
}

// scriptLog is what fakeServer saw of its one connection.
type scriptLog struct {
	commands  []string // every command line, in order
	early     bool     // some command arrived before the previous one was answered
	delivered int      // bodies accepted with a 250
}

// fakeServer serves one connection as a minimal SMTP server that
// answers EHLO with ehlo — or, when ehlo is empty, shuts its side of
// the connection down — and HELO with a 250. A RCPT for nobody@ is
// refused with a 550; every other command gets what a transaction
// needs. When hold is set, MAIL and RCPT are answered only together
// with the DATA after them, so a client that waits for each reply
// stalls. log may be read once done is closed.
func fakeServer(t *testing.T, ehlo string, hold bool) (addr string, done <-chan struct{}, log *scriptLog) {
	log = &scriptLog{}
	addr, done = scriptedServer(t, func(conn net.Conn, r *bufio.Reader) {
		w := bufio.NewWriter(conn)
		say := func(s string) { fmt.Fprintf(w, "%s\r\n", s) }
		say("220 fake ready")
		_ = w.Flush()
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				return
			}
			line = strings.TrimRight(line, "\r\n")
			log.commands = append(log.commands, line)
			if r.Buffered() > 0 {
				log.early = true
			}
			verb, _, _ := strings.Cut(line, " ")
			switch {
			case verb == "EHLO" && ehlo == "":
				_ = conn.(*net.TCPConn).CloseWrite()
				continue
			case verb == "EHLO":
				say(ehlo)
			case strings.HasPrefix(line, "RCPT TO:<nobody@"):
				say("550 no such user")
			case verb == "DATA":
				say("354 go on")
				_ = w.Flush()
				for line != "." {
					if line, err = r.ReadString('\n'); err != nil {
						return
					}
					line = strings.TrimRight(line, "\r\n")
				}
				log.delivered++
				say("250 OK")
			case verb == "QUIT":
				say("221 bye")
				_ = w.Flush()
				return
			default:
				say("250 OK")
			}
			if !hold || (verb != "MAIL" && verb != "RCPT") {
				_ = w.Flush()
			}
		}
	})
	return addr, done, log
}

// TestHelloGreetingDecidesPipelining: Hello opens with EHLO, and the
// server's answer alone decides how the session runs. A 5xx gets HELO
// and a lock-step session, a 250 without PIPELINING a lock-step one:
// each command leaves only after the previous reply, so the server never
// finds a byte beyond the line it is answering. With PIPELINING, a
// transaction's commands come as one group — the server answers none
// until DATA. A 4xx or a dropped connection is Hello's error, with no
// HELO tried after it.
func TestHelloGreetingDecidesPipelining(t *testing.T) {
	lockStep := []string{"MAIL FROM:<a@a.example>", "RCPT TO:<b@test.example>", "RCPT TO:<c@test.example>", "DATA", "QUIT"}
	for _, tc := range []struct {
		name      string
		ehlo      string // the server's answer; "" drops the connection
		want      []string
		pipelined bool
		wantCode  int // of Hello's ProtocolError; -1 for a transport error
	}{
		{"EHLO refused", "502 command not implemented", append([]string{"EHLO a.example", "HELO a.example"}, lockStep...), false, 0},
		{"no PIPELINING", "250 fake greets a.example", append([]string{"EHLO a.example"}, lockStep...), false, 0},
		{"PIPELINING", "250-fake greets a.example\r\n250-SIZE 1000\r\n250 PIPELINING", append([]string{"EHLO a.example"}, lockStep...), true, 0},
		{"EHLO deferred", "421 fake closing", []string{"EHLO a.example"}, false, 421},
		{"connection dropped", "", []string{"EHLO a.example"}, false, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, done, log := fakeServer(t, tc.ehlo, tc.pipelined)
			c, err := Dial(addr, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			err = c.Hello("a.example")
			var pe *ProtocolError
			switch {
			case tc.wantCode == 0 && err != nil:
				t.Fatalf("Hello: %v", err)
			case tc.wantCode > 0 && (!errors.As(err, &pe) || pe.Code != tc.wantCode):
				t.Fatalf("Hello: %v, want a %d", err, tc.wantCode)
			case tc.wantCode < 0 && (err == nil || errors.As(err, &pe)):
				t.Fatalf("Hello: %v, want a transport error", err)
			}
			if err != nil {
				_ = c.Close()
			} else {
				from := mail.MustParseAddress("a@a.example")
				b, cc := mail.MustParseAddress("b@test.example"), mail.MustParseAddress("c@test.example")
				if err := c.Send(from, []mail.Address{b, cc}, mail.NewMessage(from, b, "s", "b")); err != nil {
					t.Fatal(err)
				}
				if err := c.Quit(); err != nil {
					t.Fatal(err)
				}
			}
			<-done
			if !slices.Equal(log.commands, tc.want) {
				t.Fatalf("commands = %q, want %q", log.commands, tc.want)
			}
			if log.early != tc.pipelined {
				t.Fatalf("a command arrived before the previous one was answered: %v, want %v", log.early, tc.pipelined)
			}
		})
	}
}

// TestSendUnsentVersusAmbiguous: a connection lost before the
// end-of-data "." is an UnsentError, whether the session is pipelined or
// not; one lost after it, with the body delivered and the 250
// outstanding, is not.
func TestSendUnsentVersusAmbiguous(t *testing.T) {
	for _, tc := range []struct {
		name       string
		ehlo       string // the server's reply to EHLO
		readBody   bool   // the server takes the message before hanging up
		wantUnsent bool
	}{
		{"stale lock-step session", "250 fake", false, true},
		{"stale pipelined session", "250-fake\r\n250 PIPELINING", false, true},
		{"lost final reply", "250-fake\r\n250 PIPELINING", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, _ := scriptedServer(t, func(conn net.Conn, r *bufio.Reader) {
				fmt.Fprintf(conn, "220 fake ready\r\n")
				_, _ = r.ReadString('\n') // EHLO
				fmt.Fprintf(conn, "%s\r\n", tc.ehlo)
				if !tc.readBody {
					return
				}
				fmt.Fprintf(conn, "250 OK\r\n250 OK\r\n354 go on\r\n")
				for {
					line, err := r.ReadString('\n')
					if err != nil || line == ".\r\n" {
						return
					}
				}
			})
			c, err := Dial(addr, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Hello("a.example"); err != nil {
				t.Fatal(err)
			}
			from := mail.MustParseAddress("a@a.example")
			to := mail.MustParseAddress("b@test.example")
			err = c.Send(from, []mail.Address{to}, mail.NewMessage(from, to, "s", "b"))
			if err == nil {
				t.Fatal("Send succeeded on a dropped connection")
			}
			var unsent *UnsentError
			if got := errors.As(err, &unsent); got != tc.wantUnsent {
				t.Fatalf("UnsentError = %v for %v, want %v", got, err, tc.wantUnsent)
			}
		})
	}
}

func TestMailSizeParameter(t *testing.T) {
	addr := startServer(t, &recordingBackend{})
	rs := dialRaw(t, addr)
	rs.send("EHLO client.example")
	// Multi-line EHLO reply: read continuation lines until the final.
	for {
		line := rs.expect("250")
		if len(line) > 3 && line[3] != '-' {
			break
		}
	}
	// An acceptable declared size passes.
	rs.send("MAIL FROM:<a@client.example> SIZE=1000")
	rs.expect("250")
	rs.send("RSET")
	rs.expect("250")
	// An oversize declaration is rejected before DATA.
	rs.send("MAIL FROM:<a@client.example> SIZE=999999999")
	rs.expect("552")
	// A malformed SIZE is a syntax error.
	rs.send("MAIL FROM:<a@client.example> SIZE=abc")
	rs.expect("501")
	// Unknown parameters are tolerated (RFC 5321 requires servers to
	// reject unknown params, but 2004-era MTAs were lenient; we accept
	// and ignore).
	rs.send("MAIL FROM:<a@client.example> BODY=8BITMIME")
	rs.expect("250")
}

func TestParsePathArgParams(t *testing.T) {
	addr, params, err := parsePathArg("FROM:<a@b.example> SIZE=42 BODY=8BITMIME", "FROM")
	if err != nil {
		t.Fatal(err)
	}
	if addr.String() != "a@b.example" {
		t.Fatalf("addr = %v", addr)
	}
	if params["SIZE"] != "42" || params["BODY"] != "8BITMIME" {
		t.Fatalf("params = %v", params)
	}
	// No params: nil map, no error.
	_, params, err = parsePathArg("TO:<a@b.example>", "TO")
	if err != nil || params != nil {
		t.Fatalf("bare path: %v %v", params, err)
	}
}

func TestMultiLineErrorReply(t *testing.T) {
	// A server replying multi-line with a non-2xx final code must
	// surface a ProtocolError, not hang.
	backend := &recordingBackend{rejectFrom: "banned.example"}
	addr := startServer(t, backend)
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Hello("banned-but-helo-ok.example"); err != nil {
		t.Fatal(err)
	}
	from := mail.MustParseAddress("x@banned.example")
	to := mail.MustParseAddress("b@test.example")
	err = c.Send(from, []mail.Address{to}, mail.NewMessage(from, to, "s", "b"))
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Code != 550 {
		t.Fatalf("err = %v", err)
	}
}

// callLog is a Backend that records every call its sessions get, and
// refuses RCPT for nobody@.
type callLog struct {
	mu    sync.Mutex
	calls []string
}

func (l *callLog) add(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.calls = append(l.calls, fmt.Sprintf(format, args...))
}

func (l *callLog) NewSession(helo string, _ net.Addr) (Session, error) {
	l.add("session %s", helo)
	return l, nil
}

func (l *callLog) Mail(from mail.Address) error {
	l.add("mail %s", from)
	return nil
}

func (l *callLog) Rcpt(to mail.Address) error {
	l.add("rcpt %s", to)
	if to.Local == "nobody" {
		return errors.New("no such user")
	}
	return nil
}

func (l *callLog) Data(_ mail.Address, msg *mail.Message) error {
	l.add("data %s %v %q %q", msg.From, msg.Recipients(), msg.Subject(), msg.Body)
	return nil
}

func (l *callLog) Reset() { l.add("reset") }

// TestRepliesInOrderHoweverSplit: the server answers a pipelined
// conversation with one reply per command, in order, whatever pieces
// its bytes arrive in — one write, a byte at a time, or cut at seeded
// random points — and makes the same Session calls each way. The
// conversation holds two transactions, a refused RCPT and an RSET, and
// each body follows its DATA in the same group. Over net.Pipe each
// piece is a read of its own, so the server meets every split: a
// command buffered whole, in part, or not at all.
func TestRepliesInOrderHoweverSplit(t *testing.T) {
	const script = "EHLO client.example\r\n" +
		"MAIL FROM:<a@client.example>\r\nRCPT TO:<b@test.example>\r\nRCPT TO:<nobody@test.example>\r\nRCPT TO:<c@test.example>\r\nDATA\r\n" +
		"Subject: one\r\n\r\nfirst\r\n..dotted\r\n.\r\n" +
		"MAIL FROM:<a@client.example>\r\nRCPT TO:<b@test.example>\r\nRSET\r\n" +
		"MAIL FROM:<a@client.example>\r\nRCPT TO:<c@test.example>\r\nDATA\r\n" +
		"Subject: two\r\n\r\nsecond\r\n.\r\n" +
		"QUIT\r\n"
	// 220, the EHLO reply, then one reply per command.
	const wantCodes = "220 250 250 250 550 250 354 250 250 250 250 250 250 354 250 221"

	// converse feeds script to a server cut at the given offsets and
	// returns all it replied and the calls its backend got.
	converse := func(cuts []int) (replies string, calls []string) {
		backend := &callLog{}
		srv := &Server{Domain: "test.example", Backend: backend, ReadTimeout: 5 * time.Second}
		near, far := net.Pipe()
		defer near.Close()
		served := make(chan struct{})
		go func() {
			srv.serveConn(far)
			close(served)
		}()
		read := make(chan []byte)
		go func() {
			b, _ := io.ReadAll(near) // until the server hangs up after QUIT
			read <- b
		}()
		_ = near.SetDeadline(time.Now().Add(5 * time.Second))
		from := 0
		for _, cut := range append(cuts, len(script)) {
			if _, err := near.Write([]byte(script[from:cut])); err != nil {
				t.Fatalf("write at %d: %v", from, err)
			}
			from = cut
		}
		replies = string(<-read)
		<-served
		return replies, backend.calls
	}

	replies, calls := converse(nil)
	var codes []string
	for _, line := range strings.Split(strings.TrimSuffix(replies, "\r\n"), "\r\n") {
		if line[3] == ' ' { // the last line of its reply
			codes = append(codes, line[:3])
		}
	}
	if got := strings.Join(codes, " "); got != wantCodes {
		t.Fatalf("reply codes in one write:\n got %s\nwant %s", got, wantCodes)
	}
	if n := strings.Count(strings.Join(calls, "\n"), "data "); n != 2 {
		t.Fatalf("%d Data calls, want 2: %q", n, calls)
	}

	splits := map[string][]int{}
	var bytewise []int
	for i := 1; i < len(script); i++ {
		bytewise = append(bytewise, i)
	}
	splits["byte by byte"] = bytewise
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		var cuts []int
		for i := 1; i < len(script); i++ {
			if rng.IntN(12) == 0 {
				cuts = append(cuts, i)
			}
		}
		splits[fmt.Sprintf("seed %d", seed)] = cuts
	}
	for name, cuts := range splits {
		gotReplies, gotCalls := converse(cuts)
		if gotReplies != replies {
			t.Fatalf("%s: replies\n%q\nwant, as in one write,\n%q", name, gotReplies, replies)
		}
		if !slices.Equal(gotCalls, calls) {
			t.Fatalf("%s: session calls\n%q\nwant, as in one write,\n%q", name, gotCalls, calls)
		}
	}
}
