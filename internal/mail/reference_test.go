package mail

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
)

// The codec as it stood before the single-pass rewrite, frozen, with
// the header model it had then (a map and an order slice), kept here as
// refMessage: the differential tests below hold Encode, Decode,
// CanonicalKey and the header semantics to these, byte for byte, on
// every input they can think of and on whatever the fuzzer finds. They
// look at a Message only through its envelope, Header, HeaderKeys, Body
// and Encode, so the codec may store headers as it likes.

// refMessage is a message in the reference model.
type refMessage struct {
	From, To Address
	headers  map[string]string
	order    []string
	Body     string
}

func refNewMessage(from, to Address, subject, body string) *refMessage {
	m := &refMessage{From: from, To: to, Body: body}
	refSetHeader(m, "From", from.String())
	refSetHeader(m, "To", to.String())
	refSetHeader(m, "Subject", subject)
	return m
}

func refCanonicalKey(k string) string {
	parts := strings.Split(strings.TrimSpace(k), "-")
	for i, p := range parts {
		if p == "" {
			continue
		}
		parts[i] = strings.ToUpper(p[:1]) + strings.ToLower(p[1:])
	}
	return strings.Join(parts, "-")
}

func refSetHeader(m *refMessage, key, value string) {
	key = refCanonicalKey(key)
	if m.headers == nil {
		m.headers = make(map[string]string)
	}
	if _, exists := m.headers[key]; !exists {
		m.order = append(m.order, key)
	}
	m.headers[key] = value
}

func refEncode(m *refMessage) string {
	var b strings.Builder
	for _, k := range m.order {
		b.WriteString(k)
		b.WriteString(": ")
		v := strings.ReplaceAll(m.headers[k], "\r", " ")
		b.WriteString(strings.ReplaceAll(v, "\n", " "))
		b.WriteString("\r\n")
	}
	b.WriteString("\r\n")
	body := strings.ReplaceAll(m.Body, "\r\n", "\n")
	for _, line := range strings.Split(body, "\n") {
		b.WriteString(line)
		b.WriteString("\r\n")
	}
	return b.String()
}

func refDecode(raw string) (*refMessage, error) {
	m := &refMessage{}
	r := bufio.NewReader(strings.NewReader(raw))
	var lastKey string
	for {
		line, err := r.ReadString('\n')
		if err != nil && line == "" {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("mail: read headers: %w", err)
		}
		trimmed := strings.TrimRight(line, "\r\n")
		if trimmed == "" {
			break // end of headers
		}
		if trimmed[0] == ' ' || trimmed[0] == '\t' {
			if lastKey == "" {
				return nil, errors.New("mail: continuation line before any header")
			}
			m.headers[lastKey] += " " + strings.TrimSpace(trimmed)
			continue
		}
		colon := strings.IndexByte(trimmed, ':')
		if colon <= 0 {
			return nil, fmt.Errorf("mail: malformed header line %q", trimmed)
		}
		key := refCanonicalKey(trimmed[:colon])
		refSetHeader(m, key, strings.TrimSpace(trimmed[colon+1:]))
		lastKey = key
	}
	var bodyLines []string
	for {
		line, err := r.ReadString('\n')
		if line != "" {
			bodyLines = append(bodyLines, strings.TrimRight(line, "\r\n"))
		}
		if err != nil {
			break
		}
	}
	m.Body = strings.Join(bodyLines, "\n")
	if from, err := ParseAddress(m.headers[refCanonicalKey("From")]); err == nil {
		m.From = from
	}
	if to, err := ParseAddress(m.headers[refCanonicalKey("To")]); err == nil {
		m.To = to
	}
	return m, nil
}

// nastyBodies is every body shape the framing has an opinion about:
// leading dots, a line that is only ".", empty lines, bare LF, CRLF, a
// trailing line end or none, lone and doubled CRs, text that spells a
// command. internal/smtp's differential test sends the same list.
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
}

// nastyKeys are header names CanonicalKey has to leave alone or repair.
var nastyKeys = []string{
	"Subject", "subject", "SUBJECT", HeaderClass, HeaderAckFor, HeaderMsgID, HeaderTrace,
	"x-zmail-class", "X-zmail-Class", "X--Double", "-", "--", "-x", "X-", "", " ", " Subject ",
	"Subject\t", "x", "X", "1st-2nd", "x-1a-B", "Sub ject", "Sub:ject", ".dot", "a\nb", "a\n.\nb",
	"a\r\nb", "caf\xc3\xa9", "\xc3\xa9-x", "\xff", "K\u0130", "\u00a0x", "x\u0085",
}

// nastyRaw are wire texts for Decode: folding, stray whitespace,
// missing separators, malformed lines, every line-end mix.
var nastyRaw = []string{
	"", "\r\n", "\n", "\r", "\r\n\r\n", "Subject: s\r\n\r\n", "Subject: s\r\n", "Subject: s", "Subject:",
	"Subject: s\n\nbody", "Subject: s\r\n\r\nbody\r\n", "Subject: s\r\n\r\nbody\r\n\r\n", "Subject: s\r\n\r\n\r\n",
	"Subject: first\r\n continued\r\n\tand again\r\nFrom: a@x.example\r\nTo: b@y.example\r\n\r\nbody\r\n",
	" leading continuation\r\n\r\n", "no colon line\r\n\r\n", ": empty key\r\n\r\n", "Subject: s\r\n \r\n\r\nb",
	"subject : spaced key\r\nSUBJECT: again\r\n\r\nb", "From: not an address\r\nTo: <b@y.example>\r\n\r\n",
	"From: a@x.example\r\nTo: b@y.example\r\n\r\nline\r\r\nline\rline\r\n\r", "A: 1\r\r\nB: 2\r\n\r\nbody",
	"A: 1\rB: 2\r\n\r\nbody", "A: 1\n\r\nbody after cr-only line", "A: v\r\n\r\n.\r\n..\r\n", "A: v\r\n\r\nno final newline\r",
	"A:v\n\n\n\n", "A:\tv \n\nb\n\n", "caf\xc3\xa9: v\r\n\r\n", "\xff: v\r\n\r\n",
	// A repeated key, a continuation of one, case variants of one key,
	// and a key of only white space, which cannot be continued.
	"A: 1\r\nB: 2\r\nA: 3\r\n\r\nb", "A: 1\r\n more\r\nB: 2\r\nA: 3\r\n again\r\n\r\nb",
	"x-key: 1\r\nX-KEY: 2\r\nX-Key: 3\r\n\r\nb", "\r: v\r\n\r\n", "\r: v\r\n cont\r\n\r\n",
}

// manyHeaders is a header block past indexAt, with a repeated key, a
// case variant and a continuation of a repeated key, so that the
// differential tests reach the indexed lookup as well as the scan.
var manyHeaders = func() string {
	var b strings.Builder
	for i := range indexAt + 4 {
		fmt.Fprintf(&b, "X-H%d: v%d\r\n", i, i)
	}
	return b.String() + "x-h3: again\r\n continued\r\nX-H19: last\r\n\r\nbody\r\n"
}()

// twin is one message built twice, by the codec and by the reference.
type twin struct {
	m   *Message
	ref *refMessage
}

func newTwin(from, to Address, subject, body string) twin {
	return twin{NewMessage(from, to, subject, body), refNewMessage(from, to, subject, body)}
}

func (tw twin) set(key, value string) {
	tw.m.SetHeader(key, value)
	refSetHeader(tw.ref, key, value)
}

// nastyTwins builds one message per body, per header key a message that
// carries it, with header values that need sanitizing, and messages
// whose headers are set again, in another case, and past indexAt.
func nastyTwins() []twin {
	from, to := MustParseAddress("a@x.example"), MustParseAddress("b@y.example")
	var tws []twin
	for _, body := range nastyBodies {
		tw := newTwin(from, to, "subject", body)
		tw.set(HeaderClass, ClassList.String())
		tws = append(tws, tw)
	}
	for _, key := range nastyKeys {
		tw := newTwin(from, to, "inject\r\nBcc: x@y.example\rmore\n", "body")
		tw.set(key, "value for\n"+key)
		tws = append(tws, tw)
	}
	for _, n := range []int{4, indexAt, indexAt + 1, 3 * indexAt} {
		tw := newTwin(from, to, "subject", "body")
		for i := range n {
			tw.set(fmt.Sprintf("X-H%d", i), fmt.Sprint(i))
		}
		tw.set("subject", "set again")
		tw.set("x-h1", "set again in lower case")
		tw.set(fmt.Sprintf("X-H%d", n-1), "last set again")
		tws = append(tws, tw)
	}
	return append(tws, twin{&Message{}, &refMessage{}}, twin{&Message{Body: "."}, &refMessage{Body: "."}})
}

// nastyMessages is the codec's half of nastyTwins.
func nastyMessages() []*Message {
	var msgs []*Message
	for _, tw := range nastyTwins() {
		msgs = append(msgs, tw.m)
	}
	return msgs
}

// sameMessage reports how m differs from the reference message want,
// seen through the envelope, Header, HeaderKeys, Body and Encode, or "".
func sameMessage(m *Message, want *refMessage) string {
	switch {
	case m.From != want.From || m.To != want.To || m.Rcpts != nil:
		return fmt.Sprintf("envelope %v→%v %v, want %v→%v", m.From, m.To, m.Rcpts, want.From, want.To)
	case !slices.Equal(m.HeaderKeys(), want.order):
		return fmt.Sprintf("HeaderKeys %q, want %q", m.HeaderKeys(), want.order)
	case m.Body != want.Body:
		return fmt.Sprintf("Body %q, want %q", m.Body, want.Body)
	case m.Encode() != refEncode(want):
		return fmt.Sprintf("Encode %q, want %q", m.Encode(), refEncode(want))
	}
	for _, k := range want.order {
		if got, w := m.Header(k), want.headers[refCanonicalKey(k)]; got != w {
			return fmt.Sprintf("Header(%q) = %q, want %q", k, got, w)
		}
	}
	return ""
}

// checkEncode holds one message's headers, Encode and Size to the
// reference.
func checkEncode(t *testing.T, tw twin) {
	t.Helper()
	if diff := sameMessage(tw.m, tw.ref); diff != "" {
		t.Errorf("message of body %q: %s", tw.m.Body, diff)
	}
	want := refEncode(tw.ref)
	if tw.m.Size() != len(want) {
		t.Errorf("Size of body %q = %d, Encode is %d bytes", tw.m.Body, tw.m.Size(), len(want))
	}
	// A message without headers encodes as the blank line and the body.
	if got := tw.m.EncodeHeader() + refEncode(&refMessage{Body: tw.m.Body}); got != want {
		t.Errorf("EncodeHeader %q is not Encode less blank line and body: %q", tw.m.EncodeHeader(), want)
	}
}

// checkDecode holds Decode of one text to the reference: the same
// message, or the same error.
func checkDecode(t *testing.T, raw string) {
	t.Helper()
	got, err := Decode(raw)
	want, werr := refDecode(raw)
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("Decode(%q): error %v, reference %v", raw, err, werr)
	}
	if err != nil {
		return
	}
	if diff := sameMessage(got, want); diff != "" {
		t.Errorf("Decode(%q): %s", raw, diff)
	}
}

func TestCodecMatchesReference(t *testing.T) {
	for _, tw := range nastyTwins() {
		checkEncode(t, tw)
		checkDecode(t, tw.m.Encode())
		checkDecode(t, strings.ReplaceAll(tw.m.Encode(), "\r\n", "\n"))
	}
	for _, raw := range append(append(nastyRaw, manyHeaders), nastyBodies...) {
		checkDecode(t, raw)
	}
	for _, k := range nastyKeys {
		if got, want := CanonicalKey(k), refCanonicalKey(k); got != want {
			t.Errorf("CanonicalKey(%q) = %q, reference %q", k, got, want)
		}
	}
}

// FuzzMessageRoundTrip: whatever key, value and body a message is built
// from, it encodes as the reference does, reports its encoded size, and
// decodes — from its own encoding, and from the body taken as raw wire
// text — to what the reference decodes.
func FuzzMessageRoundTrip(f *testing.F) {
	for i, body := range nastyBodies {
		f.Add(nastyKeys[i%len(nastyKeys)], "value\r\n", body)
	}
	for _, raw := range append(nastyRaw, manyHeaders) {
		f.Add("X-Key", "v", raw)
	}
	from, to := MustParseAddress("a@x.example"), MustParseAddress("b@y.example")
	f.Fuzz(func(t *testing.T, key, value, body string) {
		if got, want := CanonicalKey(key), refCanonicalKey(key); got != want {
			t.Fatalf("CanonicalKey(%q) = %q, reference %q", key, got, want)
		}
		tw := newTwin(from, to, value, body)
		tw.set(key, value)
		if got, want := tw.m.Header(key), tw.ref.headers[refCanonicalKey(key)]; got != want {
			t.Fatalf("Header(%q) = %q, reference %q", key, got, want)
		}
		checkEncode(t, tw)
		checkDecode(t, tw.m.Encode())
		checkDecode(t, body)
	})
}

// TestHeaderReadsDoNotAllocate: every key a decoded message is asked
// for on the delivery path is already canonical, so looking it up costs
// a map read and nothing else.
func TestHeaderReadsDoNotAllocate(t *testing.T) {
	m := NewMessage(MustParseAddress("a@x.example"), MustParseAddress("b@y.example"), "s", "body")
	m.SetClass(ClassList)
	m.SetHeader(HeaderMsgID, "<1.x.example>")
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	var subject, id string
	var class Class
	allocs := testing.AllocsPerRun(100, func() {
		subject, class, id = got.Header("Subject"), got.Class(), got.ID()
		got.SetHeader(HeaderTrace, "0123456789abcdef")
	})
	if allocs != 0 {
		t.Errorf("header reads and a canonical SetHeader allocate %v times, want 0", allocs)
	}
	if subject != "s" || class != ClassList || id != "<1.x.example>" {
		t.Errorf("read %q %v %q", subject, class, id)
	}
}
