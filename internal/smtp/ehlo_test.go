package smtp

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"zmail/internal/mail"
)

func TestEhloAdvertisesExtensions(t *testing.T) {
	backend := &recordingBackend{}
	addr := startServer(t, backend)
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ext, err := c.Ehlo("client.example")
	if err != nil {
		t.Fatal(err)
	}
	if ext["SIZE"] == "" {
		t.Fatalf("SIZE not advertised: %v", ext)
	}
	for _, keyword := range []string{"8BITMIME", "PIPELINING"} {
		if _, ok := ext[keyword]; !ok {
			t.Fatalf("%s not advertised: %v", keyword, ext)
		}
	}
	// A transaction after EHLO works normally.
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

// TestHelloClientIsLockStep: a client that said HELO was never told the
// server pipelines, so each command leaves only after the previous reply
// — the server never finds a byte beyond the line it is answering.
func TestHelloClientIsLockStep(t *testing.T) {
	var commands []string
	early := false
	addr, done := scriptedServer(t, func(conn net.Conn, r *bufio.Reader) {
		say := func(s string) { fmt.Fprintf(conn, "%s\r\n", s) }
		say("220 fake ready")
		for inData := false; ; {
			line, err := r.ReadString('\n')
			if err != nil {
				return
			}
			line = strings.TrimRight(line, "\r\n")
			if inData {
				if line == "." {
					inData = false
					say("250 OK")
				}
				continue
			}
			commands = append(commands, line)
			if r.Buffered() > 0 {
				early = true
			}
			switch {
			case line == "DATA":
				inData = true
				say("354 go on")
			case line == "QUIT":
				say("221 bye")
				return
			default:
				say("250 OK")
			}
		}
	})
	from := mail.MustParseAddress("a@a.example")
	to := mail.MustParseAddress("b@test.example")
	if err := SendMail(addr, "a.example", from, []mail.Address{to, to}, mail.NewMessage(from, to, "s", "b"), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	<-done
	want := []string{"HELO a.example", "MAIL FROM:<a@a.example>", "RCPT TO:<b@test.example>", "RCPT TO:<b@test.example>", "DATA", "QUIT"}
	if strings.Join(commands, "|") != strings.Join(want, "|") {
		t.Fatalf("commands = %q, want %q", commands, want)
	}
	if early {
		t.Fatal("a command arrived before the previous one was answered")
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
			if _, err := c.Ehlo("a.example"); err != nil {
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
	if _, err := c.Ehlo("banned-but-helo-ok.example"); err != nil {
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
