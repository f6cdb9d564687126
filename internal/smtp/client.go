package smtp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"zmail/internal/mail"
)

// Client is a minimal SMTP sender: one TCP connection, one greeting
// (Hello), then any number of transactions. Each transaction is
// pipelined (RFC 2920) when the server advertised PIPELINING — two
// round trips, MAIL to DATA and then the body — and lock-step
// otherwise, 3 + n round trips for n recipients. Not safe for
// concurrent use.
type Client struct {
	conn    net.Conn
	r       *bufio.Reader
	w       *bufio.Writer
	timeout time.Duration
	greeted bool
	// pipelining is set when the server's EHLO reply advertised
	// PIPELINING (RFC 2920): Send then writes a transaction's commands
	// as one group instead of waiting for each reply.
	pipelining bool
}

// ProtocolError is a non-2xx/3xx SMTP reply.
type ProtocolError struct {
	Code int
	Text string
}

// Error implements error.
func (e *ProtocolError) Error() string {
	return fmt.Sprintf("smtp: server replied %d %s", e.Code, e.Text)
}

// UnsentError wraps a connection failure Send met before it had
// flushed the end-of-data "." — typically a persistent session the
// server restarted under or timed out. The server never saw a complete
// message, so it cannot have accepted one: sending the message again
// on a fresh connection cannot deliver it twice. A failure after that
// point is returned bare, because the server may have accepted the
// message and only its reply been lost.
type UnsentError struct{ Err error }

// Error returns the wrapped error's text.
func (e *UnsentError) Error() string { return e.Err.Error() }

// Unwrap exposes the wrapped error to errors.Is/As.
func (e *UnsentError) Unwrap() error { return e.Err }

// unsent marks a failure from before end-of-data. A ProtocolError stays
// as it is: the server is there and refused, which a resend would not
// change.
func unsent(err error) error {
	var pe *ProtocolError
	if errors.As(err, &pe) {
		return err
	}
	return &UnsentError{Err: err}
}

// clientWriteBuffer sizes a Client's write buffer, which only DATA
// fills: a 32 KiB message leaves in 3 writes, not the 9 of bufio's 4 KiB
// default. One 32 KiB Send on loopback took 101 µs at 4 KiB, 77 µs at
// 16 KiB, 71 µs at 64 KiB.
const clientWriteBuffer = 16 << 10

// Dial connects to an SMTP server. timeout bounds the dial and each
// subsequent round trip; zero means 30 seconds.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("smtp: dial %s: %w", addr, err)
	}
	c := &Client{
		conn:    conn,
		r:       bufio.NewReaderSize(conn, maxLineLength), // replies are short; the buffer is their bound
		w:       bufio.NewWriterSize(conn, clientWriteBuffer),
		timeout: timeout,
	}
	err = c.startRoundTrip()
	if err == nil {
		_, err = c.reply(220)
	}
	if err != nil {
		_ = conn.Close() // the greeting's failure is the one to report
		return nil, err
	}
	return c, nil
}

// Hello opens the session with EHLO, as RFC 5321 §3.2 asks of a client
// that speaks extensions. If the reply advertises PIPELINING (RFC 2920),
// every later Send writes its commands as one group; otherwise each
// command waits for the previous reply. A server that refuses EHLO with
// a 5xx is greeted with HELO instead, and its session is lock-step; any
// other failure, a 4xx or a broken connection, is returned as it is.
// Hello must be called before Send.
func (c *Client) Hello(domain string) error {
	pipelining, err := c.exchange(250, "EHLO ", domain)
	var refused *ProtocolError
	if errors.As(err, &refused) && refused.Code/100 == 5 {
		_, err = c.exchange(250, "HELO ", domain)
		pipelining = false
	}
	if err != nil {
		return err
	}
	c.greeted, c.pipelining = true, pipelining
	return nil
}

// Send runs one full transaction: MAIL, RCPT (one per recipient), DATA.
// A connection failure before the end-of-data "." went out is returned
// as an *UnsentError; see there for what that lets the caller do.
func (c *Client) Send(from mail.Address, rcpts []mail.Address, msg *mail.Message) error {
	if !c.greeted {
		return fmt.Errorf("smtp: Hello not sent")
	}
	if len(rcpts) == 0 {
		return fmt.Errorf("smtp: no recipients")
	}
	begin := c.beginLockStep
	if c.pipelining {
		begin = c.beginPipelined
	}
	if err := begin(from, rcpts); err != nil {
		return unsent(err)
	}
	if err := c.writeData(msg); err != nil {
		return unsent(err)
	}
	_, err := c.reply(250)
	return err
}

// beginLockStep takes the transaction up to the server's 354, one
// command and one reply at a time: the only way to a server that did
// not advertise PIPELINING.
func (c *Client) beginLockStep(from mail.Address, rcpts []mail.Address) error {
	if _, err := c.exchange(250, "MAIL FROM:<", from.Local, "@", from.Domain, ">"); err != nil {
		return err
	}
	for _, r := range rcpts {
		if _, err := c.exchange(250, "RCPT TO:<", r.Local, "@", r.Domain, ">"); err != nil {
			return err
		}
	}
	_, err := c.exchange(354, "DATA")
	return err
}

// beginPipelined does the same in one round trip: MAIL, every RCPT and
// DATA leave in one write, then the replies are read in order. Every
// reply is read even after one has failed, so the session stays in
// step, and the first failure is the one returned; the server answers
// DATA with 503 when it refused the sender or every recipient, which
// leaves the session ready for the next Send.
func (c *Client) beginPipelined(from mail.Address, rcpts []mail.Address) error {
	if err := c.startRoundTrip(); err != nil {
		return err
	}
	c.writeLine("MAIL FROM:<", from.Local, "@", from.Domain, ">")
	for _, r := range rcpts {
		c.writeLine("RCPT TO:<", r.Local, "@", r.Domain, ">")
	}
	c.writeLine("DATA")
	if err := c.w.Flush(); err != nil {
		return err
	}
	var first error
	for i := 0; i <= len(rcpts); i++ { // MAIL, then each RCPT
		if _, err := c.reply(250); err != nil {
			var pe *ProtocolError
			if !errors.As(err, &pe) {
				return err // the connection failed; no more replies will come
			}
			if first == nil {
				first = err
			}
		}
	}
	_, err := c.reply(354)
	if first == nil {
		return err
	}
	if err == nil {
		// Some recipient was refused and the server wants the body for
		// the others. Send promises all or nothing, and from here the
		// only way to deliver nothing is to hang up; the refusal is
		// what Send reports, whatever Close returns.
		_ = c.conn.Close()
	}
	return first
}

// writeData transmits the lines of msg.Encode() and the terminating
// ".", without encoding: the body goes from msg.Body into the write
// buffer line by line.
func (c *Client) writeData(msg *mail.Message) error {
	// Set before the first write: a large body leaves the buffer
	// before the final Flush.
	if err := c.startRoundTrip(); err != nil {
		return err
	}
	// The empty last line of the header lines is the separator line.
	if err := c.writeLines(msg.EncodeHeader()); err != nil {
		return err
	}
	if err := c.writeLines(msg.Body); err != nil {
		return err
	}
	if _, err := c.w.WriteString(".\r\n"); err != nil {
		return err
	}
	return c.w.Flush()
}

// writeLines frames text for DATA: each line — what a CRLF or bare LF
// ends, and what follows the last of them — leaves with CRLF, behind a
// second '.' if it starts with one (RFC 5321 §4.5.2).
func (c *Client) writeLines(text string) error {
	for more := true; more; {
		var line string
		line, text, more = mail.CutLine(text)
		if strings.HasPrefix(line, ".") {
			if err := c.w.WriteByte('.'); err != nil {
				return err
			}
		}
		if _, err := c.w.WriteString(line); err != nil {
			return err
		}
		if _, err := c.w.WriteString("\r\n"); err != nil {
			return err
		}
	}
	return nil
}

// Reset aborts any in-progress transaction with RSET, returning the
// session to the post-greeting state. A long-lived lock-step client calls
// it after a mid-transaction rejection — a RCPT bounce, say — so the
// next Send starts clean.
func (c *Client) Reset() error {
	_, err := c.exchange(250, "RSET")
	return err
}

// Quit ends the session and closes the connection. It reports a QUIT
// that could not be sent and a failed Close, but not a missing 221: a
// server that hangs up without one has ended the session all the same.
func (c *Client) Quit() error {
	err := c.startRoundTrip()
	if err == nil {
		c.writeLine("QUIT")
		err = c.w.Flush()
	}
	if err == nil {
		_, _ = c.reply(221) // see above: the session is over either way
	}
	if cerr := c.conn.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close closes the connection without QUIT.
func (c *Client) Close() error { return c.conn.Close() }

// startRoundTrip bounds a round trip by the timeout: what it writes,
// and the replies that answer it, must be done by then. Only a closed
// connection makes it fail.
func (c *Client) startRoundTrip() error {
	return c.conn.SetDeadline(time.Now().Add(c.timeout))
}

// writeLine buffers one command line made of parts. A bufio.Writer's
// error is sticky, so what these writes would return, the Flush that
// sends the line returns.
func (c *Client) writeLine(parts ...string) {
	for _, p := range parts {
		_, _ = c.w.WriteString(p)
	}
	_, _ = c.w.WriteString("\r\n")
}

// exchange sends one command line, made of parts, and reads its reply,
// which must carry code, within one round trip. It reports whether the
// reply advertised PIPELINING.
func (c *Client) exchange(code int, parts ...string) (pipelining bool, err error) {
	if err := c.startRoundTrip(); err != nil {
		return false, err
	}
	c.writeLine(parts...)
	if err := c.w.Flush(); err != nil {
		return false, err
	}
	return c.reply(code)
}

// reply reads a full RFC 5321 reply — continuation lines use
// "code-text", the final line "code text" — and checks its code. It
// reports whether a line after the first names the PIPELINING
// extension, as only an EHLO reply's can. It sets no deadline: the
// round trip it ends has one.
func (c *Client) reply(code int) (pipelining bool, err error) {
	for first := true; ; first = false {
		line, err := readLine(c.r)
		if err != nil {
			return false, fmt.Errorf("smtp: read reply: %w", err)
		}
		if len(line) < 3 {
			return false, fmt.Errorf("smtp: short reply %q", line)
		}
		got := 0
		for _, d := range line[:3] {
			if d < '0' || d > '9' {
				return false, fmt.Errorf("smtp: malformed reply %q", line)
			}
			got = got*10 + int(d-'0')
		}
		text := line[3:]
		more := len(text) > 0 && text[0] == '-'
		if more {
			text = text[1:]
		}
		text = bytes.TrimSpace(text)
		if !first {
			keyword, _, _ := bytes.Cut(text, []byte(" "))
			pipelining = pipelining || bytes.EqualFold(keyword, []byte("PIPELINING"))
		}
		if more {
			continue
		}
		if got != code {
			return false, &ProtocolError{Code: got, Text: string(text)}
		}
		return pipelining, nil
	}
}

// SendMail is a convenience one-shot: dial, Hello, one transaction,
// QUIT. heloDomain identifies the submitting ISP or client. Against a
// server that advertises PIPELINING the transaction takes two round
// trips, whatever the number of recipients.
func SendMail(addr, heloDomain string, from mail.Address, rcpts []mail.Address, msg *mail.Message, timeout time.Duration) error {
	c, err := Dial(addr, timeout)
	if err != nil {
		return err
	}
	defer c.Close() // after Quit a second Close only fails; before it, the error returned is the one to report
	if err := c.Hello(heloDomain); err != nil {
		return err
	}
	if err := c.Send(from, rcpts, msg); err != nil {
		return err
	}
	return c.Quit()
}
