package smtp

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"zmail/internal/mail"
)

// Client is a minimal SMTP sender: one TCP connection, HELO or EHLO
// once, then any number of transactions. Not safe for concurrent use.
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
// subsequent command round-trip; zero means 30 seconds.
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
	if _, err := c.expect(220); err != nil {
		_ = conn.Close()
		return nil, err
	}
	return c, nil
}

// Hello announces the client's identity with HELO. It (or Ehlo) must
// be called before Send.
func (c *Client) Hello(domain string) error {
	if err := c.cmd("HELO %s", domain); err != nil {
		return err
	}
	if _, err := c.expect(250); err != nil {
		return err
	}
	c.greeted = true
	return nil
}

// Ehlo announces the client's identity with EHLO and returns the
// server's advertised extensions, keyed by upper-cased keyword (e.g.
// "SIZE" → "4194304", "8BITMIME" → ""). If PIPELINING is among them,
// every later Send is pipelined.
func (c *Client) Ehlo(domain string) (map[string]string, error) {
	if err := c.cmd("EHLO %s", domain); err != nil {
		return nil, err
	}
	lines, err := c.expectLines(250)
	if err != nil {
		return nil, err
	}
	ext := make(map[string]string, len(lines))
	for _, line := range lines[1:] { // first line is the greeting
		keyword, value, _ := strings.Cut(line, " ")
		ext[strings.ToUpper(keyword)] = value
	}
	c.greeted = true
	_, c.pipelining = ext["PIPELINING"]
	return ext, nil
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
	_, err := c.expect(250)
	return err
}

// beginLockStep takes the transaction up to the server's 354, one
// command and one reply at a time.
func (c *Client) beginLockStep(from mail.Address, rcpts []mail.Address) error {
	if err := c.cmd("MAIL FROM:<%s>", from); err != nil {
		return err
	}
	if _, err := c.expect(250); err != nil {
		return err
	}
	for _, r := range rcpts {
		if err := c.cmd("RCPT TO:<%s>", r); err != nil {
			return err
		}
		if _, err := c.expect(250); err != nil {
			return err
		}
	}
	if err := c.cmd("DATA"); err != nil {
		return err
	}
	_, err := c.expect(354)
	return err
}

// beginPipelined does the same in one round trip: MAIL, every RCPT and
// DATA leave in one write, then the replies are read in order. Every
// reply is read even after one has failed, so the session stays in
// step, and the first failure is the one returned; the server answers
// DATA with 503 when it refused the sender or every recipient, which
// leaves the session ready for the next Send.
func (c *Client) beginPipelined(from mail.Address, rcpts []mail.Address) error {
	_ = c.conn.SetWriteDeadline(time.Now().Add(c.timeout))
	fmt.Fprintf(c.w, "MAIL FROM:<%s>\r\n", from)
	for _, r := range rcpts {
		fmt.Fprintf(c.w, "RCPT TO:<%s>\r\n", r)
	}
	c.w.WriteString("DATA\r\n")
	if err := c.w.Flush(); err != nil {
		return err
	}
	var first error
	for i := 0; i <= len(rcpts); i++ { // MAIL, then each RCPT
		if _, err := c.expect(250); err != nil {
			var pe *ProtocolError
			if !errors.As(err, &pe) {
				return err // the connection failed; no more replies will come
			}
			if first == nil {
				first = err
			}
		}
	}
	_, err := c.expect(354)
	if first == nil {
		return err
	}
	if err == nil {
		// Some recipient was refused and the server wants the body for
		// the others. Send promises all or nothing, and from here the
		// only way to deliver nothing is to hang up.
		_ = c.conn.Close()
	}
	return first
}

// writeData transmits the lines of msg.Encode() and the terminating
// ".", without encoding: the body goes from msg.Body into the write
// buffer line by line.
func (c *Client) writeData(msg *mail.Message) error {
	_ = c.conn.SetWriteDeadline(time.Now().Add(c.timeout))
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
// session to the post-HELO state. Long-lived clients (the zload
// generator's persistent connections) call it after a mid-transaction
// rejection — a RCPT bounce, say — so the next Send starts clean.
func (c *Client) Reset() error {
	if err := c.cmd("RSET"); err != nil {
		return err
	}
	_, err := c.expect(250)
	return err
}

// Quit ends the session and closes the connection.
func (c *Client) Quit() error {
	if err := c.cmd("QUIT"); err != nil {
		_ = c.conn.Close()
		return err
	}
	_, _ = c.expect(221)
	return c.conn.Close()
}

// Close closes the connection without QUIT.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) cmd(format string, args ...any) error {
	_ = c.conn.SetWriteDeadline(time.Now().Add(c.timeout))
	fmt.Fprintf(c.w, format, args...)
	if _, err := c.w.WriteString("\r\n"); err != nil {
		return err
	}
	return c.w.Flush()
}

// expect reads one (possibly multi-line) reply and checks its code,
// returning the final line's text.
func (c *Client) expect(code int) (string, error) {
	lines, err := c.expectLines(code)
	if err != nil {
		return "", err
	}
	return lines[len(lines)-1], nil
}

// expectLines reads a full RFC 5321 reply — continuation lines use
// "code-text", the final line "code text" — and checks the code.
func (c *Client) expectLines(code int) ([]string, error) {
	var texts []string
	for {
		_ = c.conn.SetReadDeadline(time.Now().Add(c.timeout))
		raw, err := readLine(c.r)
		if err != nil {
			return nil, fmt.Errorf("smtp: read reply: %w", err)
		}
		line := string(raw)
		if len(line) < 3 {
			return nil, fmt.Errorf("smtp: short reply %q", line)
		}
		got, err := strconv.Atoi(line[:3])
		if err != nil {
			return nil, fmt.Errorf("smtp: malformed reply %q", line)
		}
		cont := len(line) > 3 && line[3] == '-'
		text := strings.TrimSpace(line[3:])
		if cont {
			text = strings.TrimSpace(line[4:])
		}
		texts = append(texts, text)
		if cont {
			continue
		}
		if got != code {
			return texts, &ProtocolError{Code: got, Text: text}
		}
		return texts, nil
	}
}

// SendMail is a convenience one-shot: dial, HELO, one transaction,
// QUIT. heloDomain identifies the submitting ISP or client.
func SendMail(addr, heloDomain string, from mail.Address, rcpts []mail.Address, msg *mail.Message, timeout time.Duration) error {
	c, err := Dial(addr, timeout)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.Hello(heloDomain); err != nil {
		return err
	}
	if err := c.Send(from, rcpts, msg); err != nil {
		return err
	}
	return c.Quit()
}
