package isp

import (
	"testing"
	"time"

	"zmail/internal/mail"
)

// TestHotPathAllocs pins the allocations of what the list and ack path
// does per recipient: build a message, copy it, decode one off the
// wire, and encode one statement line's WAL record. A header map per
// message or a throwaway buffer per record fails here rather than only
// in a benchmark record. The race detector changes allocation counts,
// so the test does not run under it.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	from, to := addr("distributor@a.example"), addr("s1@b.example")
	m := mail.NewMessage(from, to, "post", "body")
	m.SetClass(mail.ClassList)
	m.SetHeader(mail.HeaderMsgID, "<1.a.example>")
	m.SetHeader(mail.HeaderTrace, "0123456789abcdef")
	m.SetHeader("X-Extra", "seven")
	raw := m.Encode()
	en := Entry{Seq: 1, Time: time.Unix(1e9, 0).UTC(), Kind: EntryReceived,
		Counterparty: from.String(), EPennies: 1, MsgID: "<1.a.example>"}
	for _, tc := range []struct {
		name string
		max  float64
		f    func()
	}{
		// The message, its header slice, and the From and To strings.
		{"NewMessage and 3 SetHeader", 4, func() {
			m := mail.NewMessage(from, to, "post", "body")
			m.SetClass(mail.ClassList)
			m.SetHeader(mail.HeaderMsgID, "<1.a.example>")
			m.SetHeader(mail.HeaderTrace, "0123456789abcdef")
		}},
		// The message and its header slice.
		{"Clone", 2, func() { _ = m.Clone() }},
		// The message, its header slice, and the body less its CRs.
		{"Decode of 7 headers", 3, func() {
			if _, err := mail.Decode(raw); err != nil {
				t.Fatal(err)
			}
		}},
		// The record's one buffer.
		{"encSend of one entry", 1, func() {
			if _, err := encSend("s1", +1, 0, en); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(100, tc.f); got > tc.max {
			t.Errorf("%s: %v allocations, want at most %v", tc.name, got, tc.max)
		}
	}
}
