// Package smtp implements the subset of the Simple Mail Transfer
// Protocol (RFC 821 / RFC 5321) that the Zmail system needs: a server
// that accepts HELO/EHLO, MAIL FROM, RCPT TO, DATA, RSET, NOOP, VRFY
// and QUIT, and a client that submits messages. Both ends speak
// command pipelining (RFC 2920): the server answers a group of
// commands in one write, and the client's Hello opens with EHLO and
// pipelines whenever the reply advertises PIPELINING. Only a client
// talking to a server that refuses EHLO, or does not advertise it, is
// lock-step.
//
// A message body crosses each side once (DESIGN.md §7): the client
// frames it from Message.Body straight into its write buffer, the
// server un-frames it from its read buffer into one buffer per
// connection. A line is bounded by maxLineLength and, until its LF
// comes, by the read buffer; an oversized DATA is read to its "." and
// refused once, the session still in step.
//
// A transaction reaches the Backend once, however many recipients it
// names: Session.Data gets one message whose envelope carries them all
// (mail.Message.Rcpts), and its one answer is the transaction's.
//
// Zmail requires no change to SMTP (§1.3 of the paper): payment
// bookkeeping happens inside the receiving and sending ISPs, keyed off
// the (authenticated) peer identity. The server surfaces that identity
// to its Backend as the HELO domain plus remote address; the daemon
// layers its own peer authentication policy on top.
package smtp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"zmail/internal/mail"
)

// Limits applied to inbound sessions.
const (
	maxLineLength   = 4096    // of a command, reply or DATA line, line end included
	maxMessageBytes = 1 << 22 // 4 MiB
	maxRecipients   = 100
)

// serverReadBuffer sizes a session's read buffer, which is also the
// most the server holds of a line whose LF has not come. A 32 KiB DATA
// arrives in 3 reads, not the 9 of a maxLineLength buffer: 101 µs a
// transaction on loopback at 4 KiB, 77 µs at 16 KiB, 71 µs at 64 KiB.
const serverReadBuffer = 16 << 10

// keptDataBuffer is the largest DATA buffer a connection keeps for its
// next transaction.
const keptDataBuffer = 64 << 10

// Backend creates sessions for inbound connections.
type Backend interface {
	// NewSession is called after a successful HELO/EHLO. heloDomain is
	// the peer's announced identity; remoteAddr its TCP address.
	NewSession(heloDomain string, remoteAddr net.Addr) (Session, error)
}

// Transient wraps a delivery error that should surface as an SMTP 4xx
// (temporary, the client should retry) instead of a 5xx rejection of
// the message itself — admission-queue backpressure being the one
// producer today (the daemon wraps isp.ErrQueueFull).
type Transient struct{ Err error }

// Error returns the wrapped error's text.
func (t Transient) Error() string { return t.Err.Error() }

// Unwrap exposes the wrapped error to errors.Is/As.
func (t Transient) Unwrap() error { return t.Err }

// IsTransient reports whether any error in err's chain is Transient.
func IsTransient(err error) bool {
	var t Transient
	return errors.As(err, &t)
}

// Session handles one mail transaction. Returning an error from any
// method rejects the corresponding SMTP command with a 550 — or, when
// Data's error chain carries Transient, a 451 the client may retry;
// the error text is sent to the peer.
type Session interface {
	// Mail begins a transaction with the envelope sender.
	Mail(from mail.Address) error
	// Rcpt adds an envelope recipient.
	Rcpt(to mail.Address) error
	// Data finalizes the transaction with the parsed message. It runs
	// once per transaction, whatever the number of recipients: msg.To
	// is the first accepted recipient, and msg.Rcpts, when there is
	// more than one, lists them all in RCPT order. An error fails the
	// whole transaction. to is msg.To; it stays only because the
	// federation benchmark (bench/) implements this interface, and the
	// next change to that module drops it.
	Data(to mail.Address, msg *mail.Message) error
	// Reset aborts the in-progress transaction (RSET or new MAIL).
	Reset()
}

// Server is an SMTP listener.
type Server struct {
	// Domain is announced in the greeting banner.
	Domain string
	// Backend handles transactions (required).
	Backend Backend
	// ReadTimeout bounds each command read; zero means 5 minutes.
	ReadTimeout time.Duration

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// Serve accepts connections on l until Close is called. It always
// returns a non-nil error; after Close the error is net.ErrClosed.
func (s *Server) Serve(l net.Listener) error {
	if s.Backend == nil {
		return errors.New("smtp: Server.Backend is required")
	}
	s.mu.Lock()
	if s.closed {
		// Close ran before Serve took the listener, so it is ours to close.
		s.mu.Unlock()
		_ = l.Close()
		return net.ErrClosed
	}
	s.listener = l
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.mu.Unlock()

	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// ListenAndServe listens on addr ("host:port") and serves. The actual
// bound address is reported through the optional ready callback, useful
// with ":0".
func (s *Server) ListenAndServe(addr string, ready func(net.Addr)) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("smtp: listen %s: %w", addr, err)
	}
	if ready != nil {
		ready(l.Addr())
	}
	return s.Serve(l)
}

// Close stops the listener and closes all active connections, waiting
// for their handlers to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	l := s.listener
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	s.wg.Wait()
	return err
}

type connState struct {
	helo    string
	session Session
	from    mail.Address
	rcpts   []mail.Address
	gotMail bool
}

func (s *Server) readTimeout() time.Duration {
	if s.ReadTimeout > 0 {
		return s.ReadTimeout
	}
	return 5 * time.Minute
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReaderSize(conn, serverReadBuffer)
	w := bufio.NewWriter(conn)
	var data []byte // DATA buffer, kept from one transaction to the next
	sizeHint := 0   // the SIZE the last MAIL declared
	// reply queues one reply line and flushes it — unless the client has
	// pipelined (RFC 2920) and its next command is already buffered
	// whole, in which case that command's reply carries this one out in
	// the same write. A lock-step client never has a command buffered
	// ahead of a reply, so it sees exactly one flush per reply. 354 and
	// 221 always go out at once: the client sends nothing more until it
	// has read them.
	reply := func(code int, text string) bool {
		writeReply(w, code, ' ', text)
		if code != 354 && code != 221 && commandBuffered(r) {
			return true
		}
		return w.Flush() == nil
	}
	if !reply(220, s.Domain+" ESMTP Zmail ready") {
		return
	}

	// replyMulti writes an RFC 5321 multi-line reply: every line but the
	// last uses "code-text".
	replyMulti := func(code int, lines ...string) bool {
		for i, text := range lines {
			sep := byte('-')
			if i == len(lines)-1 {
				sep = ' '
			}
			writeReply(w, code, sep, text)
		}
		return w.Flush() == nil
	}

	var st connState
	for {
		// A command already buffered whole is read without touching the
		// socket; only a read that may wait there needs the deadline.
		if !commandBuffered(r) {
			_ = conn.SetReadDeadline(time.Now().Add(s.readTimeout()))
		}
		line, err := readLine(r)
		if err != nil {
			return
		}
		verb, arg := splitCommand(string(line))
		switch verb {
		case "HELO", "EHLO":
			if arg == "" {
				if !reply(501, "domain required") {
					return
				}
				continue
			}
			sess, err := s.Backend.NewSession(strings.ToLower(arg), conn.RemoteAddr())
			if err != nil {
				if !reply(550, errText(err)) {
					return
				}
				continue
			}
			st = connState{helo: strings.ToLower(arg), session: sess}
			if verb == "EHLO" {
				// Advertise the extensions this server honors.
				if !replyMulti(250,
					s.Domain+" greets "+arg,
					fmt.Sprintf("SIZE %d", maxMessageBytes),
					"8BITMIME",
					"PIPELINING",
				) {
					return
				}
				continue
			}
			if !reply(250, s.Domain+" greets "+arg) {
				return
			}

		case "MAIL":
			if st.session == nil {
				if !reply(503, "send HELO first") {
					return
				}
				continue
			}
			addr, params, perr := parsePathArg(arg, "FROM")
			if perr != nil {
				if !reply(501, perr.Error()) {
					return
				}
				continue
			}
			sizeHint = 0
			if declared, ok := params["SIZE"]; ok {
				n, err := strconv.ParseInt(declared, 10, 64)
				if err != nil {
					if !reply(501, "bad SIZE parameter") {
						return
					}
					continue
				}
				if n > maxMessageBytes {
					if !reply(552, "message exceeds maximum size") {
						return
					}
					continue
				}
				sizeHint = int(n)
			}
			if st.gotMail {
				st.session.Reset()
				st.from, st.rcpts, st.gotMail = mail.Address{}, nil, false
			}
			if err := st.session.Mail(addr); err != nil {
				if !reply(550, errText(err)) {
					return
				}
				continue
			}
			st.from, st.gotMail = addr, true
			if !reply(250, "OK") {
				return
			}

		case "RCPT":
			if !st.gotMail {
				if !reply(503, "send MAIL first") {
					return
				}
				continue
			}
			if len(st.rcpts) >= maxRecipients {
				if !reply(452, "too many recipients") {
					return
				}
				continue
			}
			addr, _, perr := parsePathArg(arg, "TO")
			if perr != nil {
				if !reply(501, perr.Error()) {
					return
				}
				continue
			}
			if err := st.session.Rcpt(addr); err != nil {
				if !reply(550, errText(err)) {
					return
				}
				continue
			}
			st.rcpts = append(st.rcpts, addr)
			if !reply(250, "OK") {
				return
			}

		case "DATA":
			if !st.gotMail || len(st.rcpts) == 0 {
				if !reply(503, "send MAIL and RCPT first") {
					return
				}
				continue
			}
			if !reply(354, "end data with <CRLF>.<CRLF>") {
				return
			}
			_ = conn.SetReadDeadline(time.Now().Add(s.readTimeout()))
			// Start at the size known so far; a declared SIZE is trusted
			// up to what is kept anyway.
			data = slices.Grow(data[:0], max(min(sizeHint, keptDataBuffer), r.Buffered()))
			var derr error
			data, derr = readData(r, data)
			if derr != nil {
				// Only too large leaves the session in step, its "." read.
				if !errors.Is(derr, errTooLarge) || !reply(552, errText(derr)) {
					return
				}
				st.session.Reset()
				st.from, st.rcpts, st.gotMail = mail.Address{}, nil, false
				continue
			}
			msg, merr := mail.Decode(string(data))
			if cap(data) > keptDataBuffer {
				data = nil
			}
			if merr != nil {
				if !reply(550, errText(merr)) {
					return
				}
				st.session.Reset()
				st.from, st.rcpts, st.gotMail = mail.Address{}, nil, false
				continue
			}
			// One transaction, one Data call: the session takes the
			// recipients whole and answers for all of them.
			msg.From, msg.To = st.from, st.rcpts[0]
			if len(st.rcpts) > 1 {
				msg.Rcpts = st.rcpts
			}
			n := len(st.rcpts)
			err := st.session.Data(msg.To, msg)
			st.from, st.rcpts, st.gotMail = mail.Address{}, nil, false
			if err != nil {
				// Backpressure is a 451 the client retries; anything else
				// is a hard 550.
				code, verdict := 550, "failed"
				if IsTransient(err) {
					code, verdict = 451, "deferred"
				}
				if !reply(code, fmt.Sprintf("delivery %s for %d recipient(s)", verdict, n)) {
					return
				}
				continue
			}
			if !reply(250, "OK message accepted") {
				return
			}

		case "RSET":
			if st.session != nil {
				st.session.Reset()
			}
			st.from, st.rcpts, st.gotMail = mail.Address{}, nil, false
			if !reply(250, "OK") {
				return
			}

		case "NOOP":
			if !reply(250, "OK") {
				return
			}

		case "VRFY":
			// RFC 821 permits a non-committal answer; Zmail never
			// discloses mailbox existence (it would aid address
			// harvesting — the paper's spammers pay per address, so
			// verified lists are valuable).
			if !reply(252, "cannot VRFY user, send some mail and find out") {
				return
			}

		case "QUIT":
			reply(221, s.Domain+" closing")
			return

		default:
			if !reply(502, "command not implemented") {
				return
			}
		}
	}
}

// writeReply buffers one reply line: code, sep (' ', or '-' before a
// continuation), text, CRLF. A bufio.Writer's error is sticky, so what
// these writes would return, the Flush that sends the line returns.
func writeReply(w *bufio.Writer, code int, sep byte, text string) {
	_, _ = w.Write(strconv.AppendInt(w.AvailableBuffer(), int64(code), 10))
	_ = w.WriteByte(sep)
	_, _ = w.WriteString(text)
	_, _ = w.WriteString("\r\n")
}

func errText(err error) string {
	t := strings.ReplaceAll(err.Error(), "\r", " ")
	return strings.ReplaceAll(t, "\n", " ")
}

// commandBuffered reports whether a complete line is waiting in r's
// buffer, i.e. the next command can be read without touching the
// socket.
func commandBuffered(r *bufio.Reader) bool {
	buffered, _ := r.Peek(r.Buffered()) // cannot fail: no more than is buffered
	return bytes.IndexByte(buffered, '\n') >= 0
}

var errTooLarge = errors.New("message too large")

// readLine reads one CRLF- (or LF-) terminated line into r's buffer and
// returns it without the line end, valid until the next read. A line
// over maxLineLength, or one that fills the buffer before its LF comes,
// is an error.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) || len(line) > maxLineLength {
		return nil, errors.New("line too long")
	}
	if err != nil {
		return nil, err
	}
	n := len(line) - 1 // the LF
	for n > 0 && line[n-1] == '\r' {
		n--
	}
	return line[:n], nil
}

func splitCommand(line string) (verb, arg string) {
	sp := strings.IndexByte(line, ' ')
	if sp < 0 {
		return strings.ToUpper(line), ""
	}
	return strings.ToUpper(line[:sp]), strings.TrimSpace(line[sp+1:])
}

// parsePathArg parses "FROM:<a@b> KEY=VALUE ..." / "TO:<a@b>"
// arguments, keyword matched in any case, returning the address and any
// ESMTP parameters (keys upper-cased).
func parsePathArg(arg, keyword string) (mail.Address, map[string]string, error) {
	n := len(keyword)
	if len(arg) <= n || arg[n] != ':' || !strings.EqualFold(arg[:n], keyword) {
		return mail.Address{}, nil, fmt.Errorf("syntax: %s:<address>", keyword)
	}
	rest := strings.TrimSpace(arg[n+1:])
	path := rest
	var params map[string]string
	if sp := strings.IndexByte(rest, ' '); sp >= 0 {
		path = rest[:sp]
		params = make(map[string]string)
		for _, tok := range strings.Fields(rest[sp+1:]) {
			key, value, _ := strings.Cut(tok, "=")
			params[strings.ToUpper(key)] = value
		}
	}
	addr, err := mail.ParseAddress(path)
	if err != nil {
		return mail.Address{}, nil, fmt.Errorf("bad address %q", path)
	}
	return addr, params, nil
}

// readData reads a DATA payload up to the terminating ".", reversing
// dot-stuffing, and appends the message text to buf, its lines ended by
// bare LFs (so mail.Decode takes the body as it stands). A payload over
// maxMessageBytes is still read to its "." — the read deadline bounds
// that — so that none of it is taken for commands.
func readData(r *bufio.Reader, buf []byte) ([]byte, error) {
	size := 0 // as the limit counts it: two bytes for each line end
	tooLarge := false
	for {
		line, err := readLine(r)
		if err != nil {
			return buf, err
		}
		if len(line) > 0 && line[0] == '.' {
			if len(line) == 1 {
				break
			}
			line = line[1:] // un-stuff
		}
		if size+len(line) > maxMessageBytes {
			tooLarge, buf = true, nil // nothing of it is kept
		}
		if tooLarge {
			continue
		}
		size += len(line) + 2
		buf = append(append(buf, line...), '\n')
	}
	if tooLarge {
		return nil, errTooLarge
	}
	return buf, nil
}
