package mail

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseAddress(t *testing.T) {
	cases := []struct {
		in      string
		local   string
		domain  string
		wantErr bool
	}{
		{"alice@example.com", "alice", "example.com", false},
		{"<bob@b.example>", "bob", "b.example", false},
		{"  carol@C.EXAMPLE  ", "carol", "c.example", false},
		{"first.last@sub.dom.example", "first.last", "sub.dom.example", false},
		{"weird@local@dom.example", "weird@local", "dom.example", false}, // last @ splits
		{"noat", "", "", true},
		{"@nodomainlocal", "", "", true},
		{"nolocal@", "", "", true},
		{"", "", "", true},
		{"sp ace@dom.example", "", "", true},
		{"a@dom ain.example", "", "", true},
	}
	for _, c := range cases {
		got, err := ParseAddress(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseAddress(%q) = %v, want error", c.in, got)
			} else if !errors.Is(err, ErrBadAddress) {
				t.Errorf("ParseAddress(%q) error %v not ErrBadAddress", c.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseAddress(%q): %v", c.in, err)
			continue
		}
		if got.Local != c.local || got.Domain != c.domain {
			t.Errorf("ParseAddress(%q) = %v@%v, want %v@%v", c.in, got.Local, got.Domain, c.local, c.domain)
		}
	}
}

func TestAddressString(t *testing.T) {
	a := Address{Local: "u", Domain: "d.example"}
	if a.String() != "u@d.example" {
		t.Fatalf("String = %q", a.String())
	}
	if a.IsZero() {
		t.Fatal("populated address reported zero")
	}
	if !(Address{}).IsZero() {
		t.Fatal("zero address not reported zero")
	}
}

func TestMustParseAddressPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseAddress should panic on bad input")
		}
	}()
	MustParseAddress("not-an-address")
}

func TestCanonicalKey(t *testing.T) {
	cases := map[string]string{
		"subject":       "Subject",
		"x-zmail-class": "X-Zmail-Class",
		"MESSAGE-ID":    "Message-Id",
		"  from ":       "From",
	}
	for in, want := range cases {
		if got := CanonicalKey(in); got != want {
			t.Errorf("CanonicalKey(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestMessageHeaders(t *testing.T) {
	m := NewMessage(MustParseAddress("a@x.example"), MustParseAddress("b@y.example"), "Hi", "body")
	if m.Subject() != "Hi" {
		t.Fatalf("Subject = %q", m.Subject())
	}
	m.SetHeader("x-custom", "v1")
	if got := m.Header("X-Custom"); got != "v1" {
		t.Fatalf("case-insensitive header get = %q", got)
	}
	m.SetHeader("X-CUSTOM", "v2")
	if got := m.Header("x-custom"); got != "v2" {
		t.Fatalf("header overwrite = %q", got)
	}
	keys := m.HeaderKeys()
	// From, To, Subject, X-Custom — overwrite must not duplicate.
	if len(keys) != 4 {
		t.Fatalf("HeaderKeys = %v", keys)
	}
}

func TestMessageClass(t *testing.T) {
	m := NewMessage(MustParseAddress("a@x.example"), MustParseAddress("b@y.example"), "s", "b")
	if m.Class() != ClassNormal {
		t.Fatalf("default class = %v", m.Class())
	}
	m.SetClass(ClassList)
	if m.Class() != ClassList {
		t.Fatalf("class after SetClass = %v", m.Class())
	}
	if ParseClass("ack") != ClassAck || ParseClass("ACK") != ClassAck {
		t.Fatal("ParseClass ack")
	}
	if ParseClass("garbage") != ClassNormal {
		t.Fatal("unknown class should map to normal")
	}
	for _, c := range []Class{ClassNormal, ClassList, ClassAck} {
		if ParseClass(c.String()) != c {
			t.Errorf("ParseClass(%v.String()) != %v", c, c)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := NewMessage(MustParseAddress("a@x.example"), MustParseAddress("b@y.example"),
		"Subject line", "line one\nline two\n\nline four")
	m.SetClass(ClassList)
	m.SetHeader("Message-Id", "<1.x.example>")
	raw := m.Encode()
	got, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != m.From || got.To != m.To {
		t.Fatalf("envelope: %v→%v", got.From, got.To)
	}
	if got.Subject() != "Subject line" || got.Class() != ClassList || got.ID() != "<1.x.example>" {
		t.Fatalf("headers lost: %q %v %q", got.Subject(), got.Class(), got.ID())
	}
	if got.Body != m.Body {
		t.Fatalf("body = %q, want %q", got.Body, m.Body)
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(subject, body string) bool {
		// Header values cannot contain newlines (sanitized on encode);
		// normalize expectations the same way.
		m := NewMessage(MustParseAddress("a@x.example"), MustParseAddress("b@y.example"), subject, body)
		got, err := Decode(m.Encode())
		if err != nil {
			return false
		}
		wantSubject := strings.TrimSpace(strings.ReplaceAll(strings.ReplaceAll(subject, "\r", " "), "\n", " "))
		wantBody := strings.ReplaceAll(body, "\r\n", "\n")
		return got.Subject() == wantSubject && got.Body == wantBody
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDecodeContinuationLines(t *testing.T) {
	raw := "Subject: first\r\n continued\r\nFrom: a@x.example\r\nTo: b@y.example\r\n\r\nbody\r\n"
	m, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if m.Subject() != "first continued" {
		t.Fatalf("folded subject = %q", m.Subject())
	}
}

func TestDecodeMalformed(t *testing.T) {
	if _, err := Decode(" leading continuation\r\n\r\n"); err == nil {
		t.Error("continuation before any header should fail")
	}
	if _, err := Decode("no colon line\r\n\r\n"); err == nil {
		t.Error("header without colon should fail")
	}
}

func TestDecodeNoBody(t *testing.T) {
	m, err := Decode("Subject: s\r\n\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if m.Body != "" {
		t.Fatalf("body = %q, want empty", m.Body)
	}
}

func TestHeaderValueSanitized(t *testing.T) {
	m := NewMessage(MustParseAddress("a@x.example"), MustParseAddress("b@y.example"), "s", "b")
	m.SetHeader("X-Evil", "inject\r\nBcc: everyone@x.example")
	raw := m.Encode()
	if strings.Contains(raw, "\r\nBcc:") {
		t.Fatal("header injection not sanitized")
	}
}

func TestClone(t *testing.T) {
	m := NewMessage(MustParseAddress("a@x.example"), MustParseAddress("b@y.example"), "s", "b")
	c := m.Clone()
	c.SetHeader("Subject", "changed")
	c.Body = "changed"
	if m.Subject() != "s" || m.Body != "b" {
		t.Fatal("Clone aliases original")
	}
}

// TestRecipients: one recipient is a view of To that costs nothing;
// several are Rcpts. Clone keeps the envelope, CopyFor narrows it to one
// recipient, and neither aliases the original's list.
func TestRecipients(t *testing.T) {
	a, b := MustParseAddress("a@y.example"), MustParseAddress("b@y.example")
	m := NewMessage(MustParseAddress("s@x.example"), a, "s", "b")
	if got := m.Recipients(); len(got) != 1 || got[0] != a {
		t.Fatalf("one-recipient Recipients() = %v", got)
	}
	if n := testing.AllocsPerRun(100, func() { _ = m.Recipients() }); n != 0 {
		t.Fatalf("Recipients() of one allocates %v times, want 0", n)
	}
	m.Rcpts = []Address{a, b}
	if got := m.Recipients(); len(got) != 2 || got[1] != b {
		t.Fatalf("Recipients() = %v", got)
	}
	c := m.Clone()
	c.Rcpts[1] = a
	if m.Rcpts[1] != b || len(c.Recipients()) != 2 {
		t.Fatal("Clone aliases or drops the envelope recipients")
	}
	one := m.CopyFor(b)
	if one.To != b || one.Rcpts != nil || one.Subject() != "s" {
		t.Fatalf("CopyFor(b) = To %v, Rcpts %v", one.To, one.Rcpts)
	}
	if strings.Contains(m.Encode(), b.String()) {
		t.Fatal("Encode wrote an envelope recipient")
	}
}

func TestMessageIDCounter(t *testing.T) {
	c := NewMessageIDCounter("dom.example")
	a, b := c.Next(), c.Next()
	if a == b {
		t.Fatal("message ids must be unique")
	}
	if !strings.Contains(a, "dom.example") || !strings.HasPrefix(a, "<") || !strings.HasSuffix(a, ">") {
		t.Fatalf("id format: %q", a)
	}
}

func TestSortAddresses(t *testing.T) {
	addrs := []Address{
		{Local: "z", Domain: "b.example"},
		{Local: "a", Domain: "b.example"},
		{Local: "m", Domain: "a.example"},
	}
	SortAddresses(addrs)
	want := []string{"m@a.example", "a@b.example", "z@b.example"}
	for i, w := range want {
		if addrs[i].String() != w {
			t.Fatalf("sorted[%d] = %v, want %v", i, addrs[i], w)
		}
	}
}

func TestSizeMatchesEncode(t *testing.T) {
	for _, m := range nastyMessages() {
		if m.Size() != len(m.Encode()) {
			t.Errorf("Size() = %d, Encode() is %d bytes, body %q", m.Size(), len(m.Encode()), m.Body)
		}
	}
}

// TestDecodeNeverPanics: the decoder faces untrusted network input;
// arbitrary strings must produce a message or an error, never a panic.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(raw string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decode panicked on %q: %v", raw, r)
			}
		}()
		_, _ = Decode(raw)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestParseAddressNeverPanics hardens the other untrusted entry point.
func TestParseAddressNeverPanics(t *testing.T) {
	f := func(raw string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("ParseAddress panicked on %q: %v", raw, r)
			}
		}()
		_, _ = ParseAddress(raw)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
