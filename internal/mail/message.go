package mail

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"unsafe"
)

// Class categorizes a message for the Zmail payment machinery.
type Class int

// Message classes. Normal mail moves one e-penny from sender to
// receiver. Acknowledgments (§5, mailing lists) are auto-generated by
// the receiving ISP, refund the distributor's e-penny, and are never
// delivered to a human inbox. List messages are normal payments but are
// marked so the receiving side knows to generate an acknowledgment.
const (
	ClassNormal Class = iota + 1
	ClassList
	ClassAck
)

// String names the class for the X-Zmail-Class header.
func (c Class) String() string {
	switch c {
	case ClassNormal:
		return "normal"
	case ClassList:
		return "list"
	case ClassAck:
		return "ack"
	default:
		return "unknown"
	}
}

// ParseClass inverts Class.String. Unknown strings map to ClassNormal,
// since a non-Zmail sender will not set the header at all.
func ParseClass(s string) Class {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "list":
		return ClassList
	case "ack":
		return ClassAck
	default:
		return ClassNormal
	}
}

// Zmail extension header names.
const (
	HeaderClass  = "X-Zmail-Class"
	HeaderAckFor = "X-Zmail-Ack-For"
	// HeaderAckCount marks a coalesced acknowledgment: one ack message
	// standing for the acks of k recipients of one list transaction at
	// one ISP. Its value is k; the body names the k acknowledging local
	// parts, one per line (a body has no line cap, a header does). A
	// single ack carries no count, and on mail of any other class the
	// header means nothing.
	HeaderAckCount = "X-Zmail-Ack-Count"
	HeaderMsgID    = "Message-Id"
	// HeaderTrace carries the internal/trace flow ID (16 hex digits)
	// minted at submission, so every party that moves an e-penny for
	// this message records its span under one ID.
	HeaderTrace = "X-Zmail-Trace"
)

// Message is an email message: envelope, headers and body. Header keys
// are stored canonically (Title-Case per segment), in one slice in the
// order they were first set.
//
// The envelope is From plus the recipients of one SMTP transaction. To
// is always the first recipient. Rcpts lists them all when there are
// more than one and is nil for one, so a one-recipient message carries
// no slice. Rcpts is envelope only: Encode never writes it, and a copy
// delivered to one mailbox (CopyFor) carries its own To and no Rcpts.
type Message struct {
	From    Address
	To      Address
	Rcpts   []Address
	headers []header
	// index maps each key to its place in headers once there are more
	// than indexAt of them, so that a message of n headers costs O(n)
	// to decode, not O(n²); below that a scan is cheaper than a map.
	index map[string]int
	Body  string
}

// header is one header line: a canonical key and its value.
type header struct{ key, value string }

// indexAt is the header count above which a message indexes its keys.
// Mail the system makes carries at most eight headers.
const indexAt = 16

// Recipients returns the envelope recipients: Rcpts, or a one-element
// view of To when Rcpts is nil, which does not allocate. Callers must
// not modify the slice.
func (m *Message) Recipients() []Address {
	if len(m.Rcpts) > 0 {
		return m.Rcpts
	}
	return unsafe.Slice(&m.To, 1)
}

// CopyFor returns a deep copy of m addressed to the one envelope
// recipient to: To is to and Rcpts is nil.
func (m *Message) CopyFor(to Address) *Message {
	c := m.clone()
	c.To = to
	return c
}

// NewMessage builds a message with From/To/Subject headers populated
// from the envelope.
func NewMessage(from, to Address, subject, body string) *Message {
	m := &Message{From: from, To: to, Body: body, headers: make([]header, 0, 8)}
	m.SetHeader("From", from.String())
	m.SetHeader("To", to.String())
	m.SetHeader("Subject", subject)
	return m
}

// CanonicalKey normalizes a header name: each '-'-separated segment is
// title-cased ("x-zmail-class" → "X-Zmail-Class"). A key that is
// canonical already — the Header* constants, every key Decode stored —
// is returned as it is, without allocating.
func CanonicalKey(k string) string {
	if isCanonical(k) {
		return k
	}
	parts := strings.Split(strings.TrimSpace(k), "-")
	for i, p := range parts {
		if p == "" {
			continue
		}
		parts[i] = strings.ToUpper(p[:1]) + strings.ToLower(p[1:])
	}
	return strings.Join(parts, "-")
}

// isCanonical reports whether k is an ASCII key that CanonicalKey would
// return unchanged; any other key takes the long way round.
func isCanonical(k string) bool {
	first := true // at the first byte of a segment
	for i := 0; i < len(k); i++ {
		c := k[i]
		if c >= 0x80 || first && 'a' <= c && c <= 'z' || !first && 'A' <= c && c <= 'Z' {
			return false
		}
		first = c == '-'
	}
	return k == strings.TrimSpace(k)
}

// SetHeader sets a header, replacing any prior value in its place.
func (m *Message) SetHeader(key, value string) { m.set(key, value) }

// set is SetHeader; it returns the header's place.
func (m *Message) set(key, value string) int {
	key = CanonicalKey(key)
	if i := m.find(key); i >= 0 {
		m.headers[i].value = value
		return i
	}
	m.headers = append(m.headers, header{key, value})
	i := len(m.headers) - 1
	switch {
	case m.index != nil:
		m.index[key] = i
	case len(m.headers) > indexAt:
		m.index = make(map[string]int, 2*len(m.headers))
		for j, h := range m.headers {
			m.index[h.key] = j
		}
	}
	return i
}

// find returns the place of canonical key, or -1.
func (m *Message) find(key string) int {
	if m.index != nil {
		if i, ok := m.index[key]; ok {
			return i
		}
		return -1
	}
	for i := range m.headers {
		if m.headers[i].key == key {
			return i
		}
	}
	return -1
}

// Header returns the value for key, or "".
func (m *Message) Header(key string) string {
	if i := m.find(CanonicalKey(key)); i >= 0 {
		return m.headers[i].value
	}
	return ""
}

// HeaderKeys returns the header names in insertion order.
func (m *Message) HeaderKeys() []string {
	out := make([]string, len(m.headers))
	for i, h := range m.headers {
		out[i] = h.key
	}
	return out
}

// Subject is a convenience accessor.
func (m *Message) Subject() string { return m.Header("Subject") }

// Class returns the Zmail class, defaulting to ClassNormal.
func (m *Message) Class() Class { return ParseClass(m.Header(HeaderClass)) }

// SetClass stamps the X-Zmail-Class header.
func (m *Message) SetClass(c Class) { m.SetHeader(HeaderClass, c.String()) }

// ID returns the Message-Id header, or "".
func (m *Message) ID() string { return m.Header(HeaderMsgID) }

// Clone returns a deep copy, envelope recipients included.
func (m *Message) Clone() *Message {
	c := m.clone()
	if m.Rcpts != nil {
		c.Rcpts = append([]Address(nil), m.Rcpts...)
	}
	return c
}

// clone copies everything but Rcpts. Below indexAt headers that is two
// allocations, the message and its header slice.
func (m *Message) clone() *Message {
	return &Message{
		From: m.From, To: m.To, Body: m.Body,
		headers: slices.Clone(m.headers),
		index:   maps.Clone(m.index),
	}
}

// Size returns len(Encode()) without encoding: in the body every LF
// not behind a CR gains one, and the last line gains a CRLF.
func (m *Message) Size() int {
	return m.headerSize() + 2 + len(m.Body) + strings.Count(m.Body, "\n") - strings.Count(m.Body, "\r\n") + 2
}

// headerSize is len(EncodeHeader()).
func (m *Message) headerSize() (n int) {
	for _, h := range m.headers {
		n += len(h.key) + len(h.value) + 4 // ": " and CRLF
	}
	return n
}

// Encode renders the message in RFC 822 wire form: headers, blank line,
// body, with CRLF line endings, written once into a buffer of the final
// size. Body lines beginning with '.' are NOT dot-stuffed here; that is
// SMTP framing, done by the transport.
func (m *Message) Encode() string {
	var b strings.Builder
	b.Grow(m.Size())
	m.writeHeader(&b)
	b.WriteString("\r\n")
	for rest, more := m.Body, true; more; {
		var line string
		line, rest, more = CutLine(rest)
		b.WriteString(line)
		b.WriteString("\r\n")
	}
	return b.String()
}

// EncodeHeader renders the header lines of Encode, without the blank
// line after them. The SMTP client sends these and frames Body itself,
// so that a body is never copied into an encoded whole.
func (m *Message) EncodeHeader() string {
	var b strings.Builder
	b.Grow(m.headerSize())
	m.writeHeader(&b)
	return b.String()
}

func (m *Message) writeHeader(b *strings.Builder) {
	for _, h := range m.headers {
		b.WriteString(h.key)
		b.WriteString(": ")
		b.WriteString(sanitizeHeaderValue(h.value))
		b.WriteString("\r\n")
	}
}

// CutLine cuts text after its first LF: line is what precedes the LF,
// less one CR directly before it. Without an LF, line is all of text.
// Encode and the SMTP client both take a body apart with it, so that
// both put the same lines on the wire.
func CutLine(text string) (line, rest string, found bool) {
	i := strings.IndexByte(text, '\n')
	if i < 0 {
		return text, "", false
	}
	if i > 0 && text[i-1] == '\r' {
		return text[:i-1], text[i+1:], true
	}
	return text[:i], text[i+1:], true
}

func sanitizeHeaderValue(v string) string {
	if !strings.ContainsAny(v, "\r\n") {
		return v
	}
	v = strings.ReplaceAll(v, "\r", " ")
	return strings.ReplaceAll(v, "\n", " ")
}

// Decode parses the RFC 822 wire form produced by Encode (or by any
// well-formed mailer): header lines with optional continuation
// indentation, a blank separator line, then the body; lines end in CRLF
// or a bare LF. The envelope From/To are filled from the headers when
// parseable. A body without any CR is taken as a substring of raw.
func Decode(raw string) (*Message, error) {
	m := &Message{headers: make([]header, 0, 8)}
	last := -1 // the place of the header a continuation line extends
	rest := raw
	for rest != "" {
		var line string
		line, rest, _ = CutLine(rest)
		trimmed := strings.TrimRight(line, "\r")
		if trimmed == "" {
			break // end of headers
		}
		if trimmed[0] == ' ' || trimmed[0] == '\t' {
			// A key of only white space canonicalizes to "", which
			// cannot be continued either.
			if last < 0 || m.headers[last].key == "" {
				return nil, errors.New("mail: continuation line before any header")
			}
			m.headers[last].value += " " + strings.TrimSpace(trimmed)
			continue
		}
		colon := strings.IndexByte(trimmed, ':')
		if colon <= 0 {
			return nil, fmt.Errorf("mail: malformed header line %q", trimmed)
		}
		// set canonicalizes the key again, which changes only a key
		// that is not UTF-8, as it always has.
		last = m.set(CanonicalKey(trimmed[:colon]), strings.TrimSpace(trimmed[colon+1:]))
	}
	// The body is the remaining lines, less their trailing CRs, joined by
	// LF, with none after the last.
	m.Body = strings.TrimSuffix(rest, "\n")
	if strings.IndexByte(m.Body, '\r') >= 0 {
		var b strings.Builder
		b.Grow(len(m.Body))
		for rest, more := m.Body, true; more; {
			var line string
			line, rest, more = CutLine(rest)
			b.WriteString(strings.TrimRight(line, "\r"))
			if more {
				b.WriteByte('\n')
			}
		}
		m.Body = b.String()
	}
	if from, err := ParseAddress(m.Header("From")); err == nil {
		m.From = from
	}
	if to, err := ParseAddress(m.Header("To")); err == nil {
		m.To = to
	}
	return m, nil
}

// MessageIDCounter mints process-unique Message-Id values of the form
// "<seq.domain>". It is deliberately deterministic (a counter, not a
// timestamp) so simulations reproduce exactly, and safe for concurrent
// use so parallel submission paths can share one counter.
type MessageIDCounter struct {
	domain string
	n      atomic.Int64
}

// NewMessageIDCounter creates a counter scoped to the given domain.
func NewMessageIDCounter(domain string) *MessageIDCounter {
	return &MessageIDCounter{domain: domain}
}

// Next returns the next Message-Id.
func (c *MessageIDCounter) Next() string {
	return "<" + strconv.FormatInt(c.n.Add(1), 10) + "." + c.domain + ">"
}

// SortAddresses orders addresses lexicographically (domain, then
// local). Used to make iteration deterministic in the simulator.
func SortAddresses(addrs []Address) {
	sort.Slice(addrs, func(i, j int) bool {
		if addrs[i].Domain != addrs[j].Domain {
			return addrs[i].Domain < addrs[j].Domain
		}
		return addrs[i].Local < addrs[j].Local
	})
}
