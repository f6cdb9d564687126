package smtp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"zmail/internal/mail"
)

// DATA framing as it stood before the single-pass rewrite, frozen: the
// client's writeData over an encoded message and the server's readData,
// with the readLine both used. The differential tests below hold the
// new framing to these on the wire bytes a client produces, on the
// message a server decodes, and end to end.

func refWriteData(w *bufio.Writer, raw string) error {
	normalized := strings.ReplaceAll(raw, "\r\n", "\n")
	normalized = strings.TrimSuffix(normalized, "\n")
	for _, line := range strings.Split(normalized, "\n") {
		if strings.HasPrefix(line, ".") {
			if _, err := w.WriteString("."); err != nil {
				return err
			}
		}
		if _, err := w.WriteString(line); err != nil {
			return err
		}
		if _, err := w.WriteString("\r\n"); err != nil {
			return err
		}
	}
	if _, err := w.WriteString(".\r\n"); err != nil {
		return err
	}
	return w.Flush()
}

func refReadLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return "", err
	}
	if len(line) > maxLineLength {
		return "", errors.New("line too long")
	}
	return strings.TrimRight(line, "\r\n"), nil
}

func refReadData(r *bufio.Reader) (string, error) {
	var b strings.Builder
	for {
		line, err := refReadLine(r)
		if err != nil {
			return "", err
		}
		if line == "." {
			return b.String(), nil
		}
		if strings.HasPrefix(line, ".") {
			line = line[1:] // un-stuff
		}
		if b.Len()+len(line) > maxMessageBytes {
			return "", errors.New("message too large")
		}
		b.WriteString(line)
		b.WriteString("\r\n")
	}
}

// refWire is what the old client put on the wire for msg.
func refWire(msg *mail.Message) string {
	var out bytes.Buffer
	_ = refWriteData(bufio.NewWriter(&out), msg.Encode()) // a Buffer takes every write
	return out.String()
}

// refDelivered is what the old server handed its Session for that wire
// text, up to the envelope the command loop stamps on it.
func refDelivered(wire string) (*mail.Message, error) {
	raw, err := refReadData(bufio.NewReader(strings.NewReader(wire)))
	if err != nil {
		return nil, err
	}
	return mail.Decode(raw)
}

// nastyBodies is internal/mail's list of the same name: every body
// shape the framing has an opinion about.
var nastyBodies = []string{
	"", "plain", "two\nlines", "two\r\nlines", "ends in lf\n", "ends in crlf\r\n",
	"\n", "\r\n", "\n\n", "\r\n\r\n", "a\n\nb", "a\r\n\r\nb", "\n\nleading blanks",
	".", "..", ".\n", ".\r\n", "\n.\n", "\r\n.\r\n", "a\n.\nb", "a\r\n.\r\nb",
	".leading dot", "..two dots", "a\n.b\n..c\n...", "dot at the end.\n.",
	"\r", "a\r", "a\rb", "a\r\rb", "a\r\r\nb", "a\n\rb", "\r\r\n", "\n\r", "a\r\n\r", ".\r", "\r.",
	"x\r\n.\r\nMAIL FROM:<evil@x.example>\r\nRCPT TO:<b@y.example>\r\nDATA\r\n",
	"QUIT\r\n", " leading space", "\tleading tab", "trailing space \n trailing tab\t",
	"Subject: not a header\n\nnot a second body", "caf\xc3\xa9 \xff\xfe 8-bit\n\x00nul",
	strings.Repeat("x", 998), strings.Repeat("seventy-six columns of text, give or take\n", 100),
	strings.Repeat("y", maxLineLength-2), strings.Repeat("z", maxLineLength-1), // the longest line allowed, and one more
}

// nastyKeys are header names that reach the wire oddly: a leading dot
// must be stuffed, a line end inside a key starts a new wire line.
var nastyKeys = []string{"Subject", "x-lower", ".dot", "..", "a\nb", "a\n.\nb", "a\r\n.", ""}

// nastyWire are DATA payloads no Client of ours sends but a server must
// read as it always did: bare LFs, stray CRs around the terminator,
// un-stuffed and over-stuffed dots, a missing header block.
var nastyWire = []string{
	".\r\n", ".\n", ".\r\r\n", "\r\n.\r\n", "a\n.\n", "A: v\n\nbody\n.\n", "A: v\r\r\n\r\nb\r\r\n.\r\n",
	"..\r\n.\r\n", "...\r\n.\r\n", ".x\r\n.\r\n", "..x\n. \n.\n", " .\r\n.\r\n", "A: v\r\n\r\n.\r\n", "A: v\r\n.\r\n",
	"A: v\r\n continued\r\n\r\nb\r\n.\r\nMAIL FROM:<evil@x.example>\r\n", "no colon\r\n\r\nb\r\n.\r\n",
	"A: v\r\n\r\nlone\rcr\r\n.\r\n", "A: v\r\n\r\n" + strings.Repeat("w", maxLineLength) + "\r\n.\r\n", "unterminated",
}

func describe(m *mail.Message) string {
	if m == nil {
		return "<nil>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "from %q to %q", m.From, m.To)
	for _, k := range m.HeaderKeys() {
		fmt.Fprintf(&b, " %q=%q", k, m.Header(k))
	}
	fmt.Fprintf(&b, " body %q", m.Body)
	return b.String()
}

// newWire is what Client.writeData puts on the wire for msg.
func newWire(t *testing.T, msg *mail.Message) string {
	t.Helper()
	near, far := net.Pipe()
	c := &Client{conn: near, w: bufio.NewWriterSize(near, clientWriteBuffer), timeout: 5 * time.Second}
	read := make(chan string)
	go func() {
		b, _ := io.ReadAll(far) // ends when near closes
		read <- string(b)
	}()
	if err := c.writeData(msg); err != nil {
		t.Fatalf("writeData: %v", err)
	}
	_ = near.Close()
	return <-read
}

// checkServerSide holds readData plus Decode to the reference on one
// wire text: the same message, or an error where the reference had one.
func checkServerSide(t *testing.T, wire string) {
	t.Helper()
	want, werr := refDelivered(wire)
	var got *mail.Message
	data, err := readData(bufio.NewReaderSize(strings.NewReader(wire), serverReadBuffer), nil)
	if err == nil {
		got, err = mail.Decode(string(data))
	}
	if (err == nil) != (werr == nil) {
		t.Fatalf("wire %q: error %v, reference %v", wire, err, werr)
	}
	if describe(got) != describe(want) {
		t.Errorf("wire %q:\n got %s\nwant %s", wire, describe(got), describe(want))
	}
}

func TestFramingMatchesReference(t *testing.T) {
	from, to := mail.MustParseAddress("a@x.example"), mail.MustParseAddress("b@y.example")
	var msgs []*mail.Message
	for _, body := range nastyBodies {
		msgs = append(msgs, mail.NewMessage(from, to, "subject", body))
	}
	for _, key := range nastyKeys {
		m := mail.NewMessage(from, to, "inject\r\nBcc: x@y.example", ".\r\nbody")
		m.SetHeader(key, "value\nof "+key)
		msgs = append(msgs, m)
	}
	for _, m := range append(msgs, &mail.Message{}, &mail.Message{Body: "."}) {
		wire := newWire(t, m)
		if want := refWire(m); wire != want {
			t.Errorf("body %q on the wire:\n got %q\nwant %q", m.Body, wire, want)
		}
		checkServerSide(t, wire)
	}
	for _, wire := range nastyWire {
		checkServerSide(t, wire)
	}
}

// pipeSession is a greeted lock-step Client talking to a Server's
// connection handler over net.Pipe, with what the server delivered. The
// Client's timeout is short because a pipe has no buffer: a server that
// answers 552 in the middle of DATA and a client still writing the rest
// wait for each other until it expires, which TCP would not make them.
func pipeSession(t *testing.T) (*Client, *recordingBackend) {
	t.Helper()
	backend := &recordingBackend{}
	srv := &Server{Domain: "test.example", Backend: backend, ReadTimeout: 5 * time.Second}
	near, far := net.Pipe()
	served := make(chan struct{})
	go func() {
		srv.serveConn(far)
		close(served)
	}()
	t.Cleanup(func() {
		_ = near.Close()
		<-served
	})
	c := &Client{
		conn:    near,
		r:       bufio.NewReaderSize(near, maxLineLength),
		w:       bufio.NewWriterSize(near, clientWriteBuffer),
		timeout: time.Second,
	}
	if _, err := c.reply(220); err != nil {
		t.Fatal(err)
	}
	if err := c.Hello("x.example"); err != nil {
		t.Fatal(err)
	}
	return c, backend
}

// checkEndToEnd sends msg through a real Client and Server and holds
// what Session.Data received to what the reference framing delivers; if
// the reference refuses the payload, so must Send.
func checkEndToEnd(t *testing.T, msg *mail.Message) {
	t.Helper()
	from, to := mail.MustParseAddress("a@x.example"), mail.MustParseAddress("b@y.example")
	c, backend := pipeSession(t)
	err := c.Send(from, []mail.Address{to}, msg)
	want, werr := refDelivered(refWire(msg))
	if werr != nil {
		if err == nil {
			t.Fatalf("body %q: Send succeeded, the reference refuses: %v", msg.Body, werr)
		}
		return
	}
	if err != nil {
		t.Fatalf("body %q: Send: %v", msg.Body, err)
	}
	want.From, want.To = from, to // as the command loop stamps them
	got := backend.received()
	if len(got) != 1 || describe(got[0].msg) != describe(want) {
		t.Fatalf("body %q delivered as:\n got %v\nwant %s", msg.Body, got, describe(want))
	}
}

func TestDeliveryMatchesReference(t *testing.T) {
	from, to := mail.MustParseAddress("a@x.example"), mail.MustParseAddress("b@y.example")
	for _, body := range nastyBodies {
		checkEndToEnd(t, mail.NewMessage(from, to, "subject", body))
	}
}

// FuzzDataFraming: whatever a message is made of, the client frames it
// as the reference did, and the server delivers what the reference
// would have delivered.
func FuzzDataFraming(f *testing.F) {
	for i, body := range nastyBodies {
		f.Add(nastyKeys[i%len(nastyKeys)], "value\r\n", body)
	}
	from, to := mail.MustParseAddress("a@x.example"), mail.MustParseAddress("b@y.example")
	f.Fuzz(func(t *testing.T, key, value, body string) {
		msg := mail.NewMessage(from, to, value, body)
		msg.SetHeader(key, value)
		if got, want := newWire(t, msg), refWire(msg); got != want {
			t.Fatalf("body %q on the wire:\n got %q\nwant %q", body, got, want)
		}
		checkEndToEnd(t, msg)
		checkServerSide(t, body) // the body as a foreign client's payload
	})
}
