package mail

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// The codec as it stood before the single-pass rewrite, frozen: the
// differential tests below hold Encode, Decode and CanonicalKey to
// these, byte for byte, on every input they can think of and on
// whatever the fuzzer finds.

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

func refSetHeader(m *Message, key, value string) {
	key = refCanonicalKey(key)
	if m.headers == nil {
		m.headers = make(map[string]string)
	}
	if _, exists := m.headers[key]; !exists {
		m.order = append(m.order, key)
	}
	m.headers[key] = value
}

func refEncode(m *Message) string {
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

func refDecode(raw string) (*Message, error) {
	m := &Message{}
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
}

// nastyMessages builds one message per body, and per header key a
// message that carries it, with header values that need sanitizing.
func nastyMessages() []*Message {
	from, to := MustParseAddress("a@x.example"), MustParseAddress("b@y.example")
	var msgs []*Message
	for _, body := range nastyBodies {
		m := NewMessage(from, to, "subject", body)
		m.SetClass(ClassList)
		msgs = append(msgs, m)
	}
	for _, key := range nastyKeys {
		m := NewMessage(from, to, "inject\r\nBcc: x@y.example\rmore\n", "body")
		m.SetHeader(key, "value for\n"+key)
		msgs = append(msgs, m)
	}
	return append(msgs, &Message{}, &Message{Body: "."})
}

// checkEncode holds one message's Encode and Size to the reference.
func checkEncode(t *testing.T, m *Message) {
	t.Helper()
	got, want := m.Encode(), refEncode(m)
	if got != want {
		t.Errorf("Encode of body %q:\n got %q\nwant %q", m.Body, got, want)
	}
	if m.Size() != len(want) {
		t.Errorf("Size of body %q = %d, Encode is %d bytes", m.Body, m.Size(), len(want))
	}
	// A message without headers encodes as the blank line and the body.
	if got := m.EncodeHeader() + refEncode(&Message{Body: m.Body}); got != want {
		t.Errorf("EncodeHeader %q is not Encode less blank line and body: %q", m.EncodeHeader(), want)
	}
}

// checkDecode holds Decode of one text to the reference: the same
// message, field for field, or the same error.
func checkDecode(t *testing.T, raw string) {
	t.Helper()
	got, err := Decode(raw)
	want, werr := refDecode(raw)
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("Decode(%q): error %v, reference %v", raw, err, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Decode(%q):\n got %+v\nwant %+v", raw, got, want)
	}
}

func TestCodecMatchesReference(t *testing.T) {
	for _, m := range nastyMessages() {
		checkEncode(t, m)
		checkDecode(t, m.Encode())
		checkDecode(t, strings.ReplaceAll(m.Encode(), "\r\n", "\n"))
	}
	for _, raw := range append(nastyRaw, nastyBodies...) {
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
	for _, raw := range nastyRaw {
		f.Add("X-Key", "v", raw)
	}
	from, to := MustParseAddress("a@x.example"), MustParseAddress("b@y.example")
	f.Fuzz(func(t *testing.T, key, value, body string) {
		if got, want := CanonicalKey(key), refCanonicalKey(key); got != want {
			t.Fatalf("CanonicalKey(%q) = %q, reference %q", key, got, want)
		}
		m := NewMessage(from, to, value, body)
		m.SetHeader(key, value)
		checkEncode(t, m)
		checkDecode(t, m.Encode())
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
