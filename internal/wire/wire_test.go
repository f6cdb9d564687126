package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRequestRoundTrip(t *testing.T) {
	f := func(n uint64) bool {
		in := Request{Seq: n}
		var out Request
		return out.UnmarshalBinary(in.MarshalBinary()) == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCreditReportRoundTrip(t *testing.T) {
	f := func(seq uint64, credits []int64) bool {
		in := CreditReport{Seq: seq, Credits: credits}
		var out CreditReport
		if err := out.UnmarshalBinary(in.MarshalBinary()); err != nil {
			return false
		}
		if out.Seq != seq || len(out.Credits) != len(credits) {
			return false
		}
		for i := range credits {
			if out.Credits[i] != credits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCreditReportEmpty(t *testing.T) {
	in := CreditReport{Seq: 9}
	var out CreditReport
	if err := out.UnmarshalBinary(in.MarshalBinary()); err != nil {
		t.Fatal(err)
	}
	if out.Seq != 9 || len(out.Credits) != 0 {
		t.Fatalf("empty report roundtrip: %+v", out)
	}
}

func TestTruncatedBodies(t *testing.T) {
	cases := []interface {
		UnmarshalBinary([]byte) error
	}{
		&Request{}, &CreditReport{},
		&BatchOrder{}, &BatchReply{},
	}
	for _, m := range cases {
		if err := m.UnmarshalBinary([]byte{1, 2, 3}); !errors.Is(err, ErrShortMessage) {
			t.Errorf("%T truncated: err = %v, want ErrShortMessage", m, err)
		}
	}
}

func TestCreditReportLengthLie(t *testing.T) {
	// A header claiming more credits than bytes present must fail, not
	// read out of bounds.
	in := CreditReport{Seq: 1, Credits: []int64{1, 2}}
	raw := in.MarshalBinary()
	raw[8] = 200 // claim 200 entries
	var out CreditReport
	if err := out.UnmarshalBinary(raw); !errors.Is(err, ErrShortMessage) {
		t.Fatalf("length lie: err = %v, want ErrShortMessage", err)
	}
}

func TestBatchOrderRoundTrip(t *testing.T) {
	f := func(buy, sell int64, nonce uint64) bool {
		in := BatchOrder{Buy: buy, Sell: sell, Nonce: nonce}
		var out BatchOrder
		return out.UnmarshalBinary(in.MarshalBinary()) == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBatchReplyRoundTrip(t *testing.T) {
	f := func(nonce uint64, filled, burned int64) bool {
		in := BatchReply{Nonce: nonce, BuyFilled: filled, SellBurned: burned}
		var out BatchReply
		return out.UnmarshalBinary(in.MarshalBinary()) == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAppendBinaryPrefix pins the append-style contract: AppendBinary
// extends the caller's buffer in place without disturbing existing
// bytes, and the appended suffix equals MarshalBinary's output.
func TestAppendBinaryPrefix(t *testing.T) {
	prefix := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	msgs := []interface {
		AppendBinary([]byte) []byte
		MarshalBinary() []byte
	}{
		&Request{Seq: 6},
		&CreditReport{Seq: 7, Credits: []int64{-1, 0, 8}},
		&BatchOrder{Buy: 300, Sell: 0, Nonce: 11},
		&BatchReply{Nonce: 11, BuyFilled: 120, SellBurned: 0},
		&Envelope{Kind: KindBatchOrder, From: 2, Trace: 42, Payload: []byte("sealed")},
	}
	for _, m := range msgs {
		buf := append([]byte(nil), prefix...)
		got := m.AppendBinary(buf)
		if !bytes.Equal(got[:len(prefix)], prefix) {
			t.Errorf("%T: AppendBinary clobbered the prefix", m)
		}
		if !bytes.Equal(got[len(prefix):], m.MarshalBinary()) {
			t.Errorf("%T: AppendBinary suffix differs from MarshalBinary", m)
		}
	}
}

// TestWriteEnvelopeZeroAlloc pins the pooled encode path: once the
// pool is warm, framing an envelope into a pre-grown writer allocates
// nothing.
func TestWriteEnvelopeZeroAlloc(t *testing.T) {
	e := &Envelope{Kind: KindBatchOrder, From: 1, Trace: 9, Payload: make([]byte, 64)}
	w := io.Discard
	// Warm the pool.
	if err := WriteEnvelope(w, e); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := WriteEnvelope(w, e); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("WriteEnvelope allocates %.1f times per call, want 0", allocs)
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	f := func(kind uint8, from int32, trace uint64, payload []byte) bool {
		in := Envelope{Kind: Kind(kind), From: from, Trace: trace, Payload: payload}
		var out Envelope
		if err := out.UnmarshalBinary(in.MarshalBinary()); err != nil {
			return retiredKind(in.Kind) && errors.Is(err, ErrRetiredKind)
		}
		return out.Kind == in.Kind && out.From == in.From && out.Trace == in.Trace &&
			bytes.Equal(out.Payload, in.Payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEnvelopeBadMagic(t *testing.T) {
	raw := (&Envelope{Kind: KindBatchOrder, From: 0}).MarshalBinary()
	raw[0] = 0xFF
	var out Envelope
	if err := out.UnmarshalBinary(raw); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestEnvelopeStreamFraming(t *testing.T) {
	var buf bytes.Buffer
	envs := []*Envelope{
		{Kind: KindBatchOrder, From: 0, Payload: []byte("one")},
		{Kind: KindRequest, From: -1, Payload: nil},
		{Kind: KindReply, From: 3, Payload: bytes.Repeat([]byte{9}, 1000)},
	}
	for _, e := range envs {
		if err := WriteEnvelope(&buf, e); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range envs {
		got, err := ReadEnvelope(&buf)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got.Kind != want.Kind || got.From != want.From || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("envelope %d mismatch: %+v vs %+v", i, got, want)
		}
	}
	if _, err := ReadEnvelope(&buf); !errors.Is(err, io.EOF) {
		t.Fatalf("drained stream: err = %v, want EOF", err)
	}
}

func TestEnvelopeSizeLimit(t *testing.T) {
	big := &Envelope{Kind: KindReply, Payload: make([]byte, MaxEnvelopeSize)}
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize write: err = %v, want ErrTooLarge", err)
	}
	// A stream claiming an oversize frame must be rejected before
	// allocation.
	var hdr bytes.Buffer
	hdr.Write([]byte{0xFF, 0xFF, 0xFF, 0x7F})
	if _, err := ReadEnvelope(&hdr); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize read: err = %v, want ErrTooLarge", err)
	}
}

func TestEnvelopeTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, &Envelope{Kind: KindBatchOrder, Payload: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadEnvelope(bytes.NewReader(raw)); err == nil {
		t.Fatal("truncated stream read succeeded")
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindRequest: "request", KindReply: "reply", KindHello: "hello",
		KindBatchOrder: "batchorder", KindBatchReply: "batchreply",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	if got := Kind(200).String(); got != "wire.Kind(200)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestEnvelopePayloadCopied(t *testing.T) {
	raw := (&Envelope{Kind: KindBatchReply, Payload: []byte("abc")}).MarshalBinary()
	var out Envelope
	if err := out.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	raw[EnvelopeHeaderSize] = 'X'
	if !reflect.DeepEqual(out.Payload, []byte("abc")) {
		t.Fatal("unmarshaled payload aliases the input buffer")
	}
}

// TestUnmarshalNeverPanics: every decoder faces bytes from the network;
// arbitrary input must error cleanly, never panic or over-allocate.
func TestUnmarshalNeverPanics(t *testing.T) {
	decoders := []func() interface{ UnmarshalBinary([]byte) error }{
		func() interface{ UnmarshalBinary([]byte) error } { return &Request{} },
		func() interface{ UnmarshalBinary([]byte) error } { return &CreditReport{} },
		func() interface{ UnmarshalBinary([]byte) error } { return &BatchOrder{} },
		func() interface{ UnmarshalBinary([]byte) error } { return &BatchReply{} },
		func() interface{ UnmarshalBinary([]byte) error } { return &Envelope{} },
	}
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("unmarshal panicked on %d bytes: %v", len(data), r)
			}
		}()
		for _, mk := range decoders {
			_ = mk().UnmarshalBinary(data)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestReadEnvelopeNeverPanics: framed stream reading on garbage.
func TestReadEnvelopeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("ReadEnvelope panicked: %v", r)
			}
		}()
		_, _ = ReadEnvelope(bytes.NewReader(data))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestKindsComplete pins Kinds() against String(): every enumerated
// kind has a proper name, and no named kind is missing from the
// enumeration. Adding a const without extending Kinds() fails here.
func TestKindsComplete(t *testing.T) {
	enumerated := make(map[Kind]bool)
	for _, k := range Kinds() {
		if enumerated[k] {
			t.Errorf("Kinds() lists %v twice", k)
		}
		enumerated[k] = true
		if k.String() == fmt.Sprintf("wire.Kind(%d)", uint8(k)) {
			t.Errorf("Kinds() lists %v but String() does not name it", k)
		}
	}
	// Scan the whole uint8 space: any kind String() names must be
	// enumerated.
	for i := 0; i <= 0xFF; i++ {
		k := Kind(i)
		if k.String() != fmt.Sprintf("wire.Kind(%d)", i) && !enumerated[k] {
			t.Errorf("String() names %v but Kinds() omits it", k)
		}
	}
}

// TestKindByteValues pins the on-the-wire byte of every kind. The split
// exchange's 1–4 are retired: Kinds() and String() drop them, the
// decoder refuses them, and the survivors keep their values.
func TestKindByteValues(t *testing.T) {
	want := map[Kind]byte{KindRequest: 5, KindReply: 6, KindHello: 7, KindBatchOrder: 8, KindBatchReply: 9}
	if len(Kinds()) != len(want) {
		t.Fatalf("Kinds() = %v, want the %d kinds pinned here", Kinds(), len(want))
	}
	for _, k := range Kinds() {
		if b, ok := want[k]; !ok || byte(k) != b {
			t.Errorf("%v is byte %d, want %d", k, byte(k), b)
		}
	}
	for b := byte(1); b <= 4; b++ {
		if got := Kind(b).String(); got != fmt.Sprintf("wire.Kind(%d)", b) {
			t.Errorf("retired kind %d is named %q", b, got)
		}
		raw := (&Envelope{Kind: Kind(b), Payload: []byte("x")}).MarshalBinary()
		var out Envelope
		if err := out.UnmarshalBinary(raw); !errors.Is(err, ErrRetiredKind) {
			t.Errorf("retired kind %d decoded: err = %v", b, err)
		}
	}
}
