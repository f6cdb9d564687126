package smtp

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestOversizedDataKeepsSessionInStep: a DATA payload over the limit is
// read to its terminating "." and refused once. None of the overflow is
// run as a command — one of its lines spells MAIL FROM — and the same
// session then carries a normal transaction.
func TestOversizedDataKeepsSessionInStep(t *testing.T) {
	backend := &recordingBackend{}
	rs := dialRaw(t, startServer(t, backend))
	rs.send("HELO client.example")
	rs.expect("250")
	rs.send("MAIL FROM:<a@client.example>")
	rs.expect("250")
	rs.send("RCPT TO:<b@test.example>")
	rs.expect("250")
	rs.send("DATA")
	rs.expect("354")

	var payload bytes.Buffer
	payload.WriteString("Subject: big\r\n\r\n")
	line := strings.Repeat("x", 998) + "\r\n"
	for payload.Len() <= maxMessageBytes+len(line) {
		payload.WriteString(line)
	}
	payload.WriteString("MAIL FROM:<evil@evil.example>\r\nRCPT TO:<b@test.example>\r\nNOOP\r\nstill the body\r\n.\r\n")
	if _, err := rs.conn.Write(payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	rs.expect("552")
	// VRFY's 252 is no other command's reply: had any overflow line been
	// executed, its 250 or 502 would be read here in its place.
	rs.send("VRFY b")
	rs.expect("252")

	rs.send("MAIL FROM:<a@client.example>")
	rs.expect("250")
	rs.send("RCPT TO:<b@test.example>")
	rs.expect("250")
	rs.send("DATA")
	rs.expect("354")
	rs.send("Subject: small\r\n\r\nbody\r\n.")
	rs.expect("250")
	got := backend.received()
	if len(got) != 1 || got[0].from.String() != "a@client.example" || got[0].msg.Subject() != "small" {
		t.Fatalf("delivered %v, want the one small message from a@client.example", got)
	}
}

// TestUnterminatedLineIsBounded: a peer that sends a line without ever
// sending its LF is cut off once the read buffer is full — as a command
// and inside DATA — so the server never holds more of a line than that
// buffer. A complete line over maxLineLength closes the session too.
func TestUnterminatedLineIsBounded(t *testing.T) {
	for _, tc := range []struct {
		name     string
		preamble []string // commands sent first, each answered
		flood    string
	}{
		{"command", nil, strings.Repeat("x", 1<<20)},
		{"data", []string{"HELO c.example", "MAIL FROM:<a@c.example>", "RCPT TO:<b@test.example>", "DATA"}, strings.Repeat("x", 1<<20)},
		{"terminated", nil, strings.Repeat("x", maxLineLength) + "\r\nNOOP\r\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := &Server{Domain: "test.example", Backend: &recordingBackend{}, ReadTimeout: 5 * time.Second}
			near, far := net.Pipe()
			served := make(chan struct{})
			go func() {
				srv.serveConn(far)
				close(served)
			}()
			defer near.Close()
			_ = near.SetDeadline(time.Now().Add(5 * time.Second))
			r := bufio.NewReader(near)
			for _, cmd := range append([]string{""}, tc.preamble...) { // "" reads the greeting
				if cmd != "" {
					if _, err := io.WriteString(near, cmd+"\r\n"); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := r.ReadString('\n'); err != nil {
					t.Fatalf("reply to %q: %v", cmd, err)
				}
			}
			// A pipe hands over exactly what the other end reads, so taken
			// is what the server consumed of the flood.
			var taken atomic.Int64
			go func() {
				for rest := []byte(tc.flood); len(rest) > 0; {
					n, err := near.Write(rest[:min(len(rest), 1024)])
					taken.Add(int64(n))
					if err != nil {
						return
					}
					rest = rest[n:]
				}
			}()
			if _, err := io.Copy(io.Discard, r); err != nil { // until the server hangs up
				t.Fatalf("the server did not close the session: %v", err)
			}
			<-served
			if n := taken.Load(); n > serverReadBuffer {
				t.Errorf("the server took %d bytes of the line, its buffer is %d", n, serverReadBuffer)
			}
		})
	}
}
