// Package trace follows individual e-penny movements across the Zmail
// federation. A trace ID is minted when a message enters the system
// (SMTP DATA / Engine.Submit) or when a bank exchange starts, travels
// with the message (the X-Zmail-Trace header) or the control envelope
// (wire.Envelope.Trace), and every party that moves value on its behalf
// records a Span: who did what, for how much, and how it came out. The
// resulting span chain is the per-message evidence trail the paper's
// economy needs to be auditable — a paid remote delivery, for example,
// produces charge (sender ISP) → transfer + credit (receiver ISP), all
// under one ID, and a §5 mailing-list round extends the same chain
// through the subscriber's ack back to the distributor's refund.
//
// Spans go to a pluggable Sink. Two implementations cover both
// deployment modes:
//
//   - Ring: a fixed-capacity ring buffer for daemons, scraped by the
//     admin listener's /tracez endpoint;
//   - Recorder: an append-everything sink for the deterministic
//     simulator and the chaos harness, queryable by trace ID.
//
// Determinism: a Tracer takes its timestamps from an injected
// clock.Clock and mints IDs from a plain per-tracer counter, so a
// seeded simulation traces identically run to run and the zsim golden
// output stays byte-for-byte stable with tracing always on. All Tracer
// methods are nil-receiver safe; an engine built without a tracer pays
// one nil check per call site and records nothing.
package trace

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"zmail/internal/clock"
)

// ID identifies one traced flow. The high 16 bits carry the minting
// party's origin (its federation index, or OriginBank), the low 48 bits
// a per-tracer sequence number; zero means "untraced".
type ID uint64

// OriginBank is the origin code the bank mints under (it has no
// federation index).
const OriginBank = 0xFFFF

// IsZero reports whether the ID is the untraced sentinel.
func (id ID) IsZero() bool { return id == 0 }

// String renders the ID as 16 lowercase hex digits, the form carried in
// the X-Zmail-Trace mail header.
func (id ID) String() string {
	var b [16]byte
	for i := range b {
		b[i] = "0123456789abcdef"[uint64(id)>>(60-4*i)&15]
	}
	return string(b[:])
}

// Origin extracts the minting party's origin code.
func (id ID) Origin() int { return int(uint64(id) >> 48) }

// ParseID inverts String. Malformed or empty input returns (0, false),
// which callers treat as "untraced" — foreign mail simply has no
// header.
func ParseID(s string) (ID, bool) {
	if s == "" || len(s) > 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, false
	}
	return ID(v), v != 0
}

// Span is one recorded step of a traced flow.
type Span struct {
	// Trace links the span to its flow; zero spans record activity on
	// untraced (foreign) traffic.
	Trace ID
	// Party names who acted (an ISP domain, "bank", a list address).
	Party string
	// Op is the step: charge, transfer, credit, buy, sell, restock,
	// refund, ...
	Op string
	// Amount is the e-penny delta the step applied, from the acting
	// party's view (a charge is -1, a credit +1).
	Amount int64
	// Outcome qualifies the op: paid, local, delivered, denied, ...
	Outcome string
	// At is the acting party's clock reading — virtual ticks under the
	// simulator, wall time under the daemons.
	At time.Time
}

// String renders one span line (the /tracez format).
func (s Span) String() string {
	return fmt.Sprintf("%s %-12s %-10s %+d %s", s.Trace, s.Party, s.Op, s.Amount, s.Outcome)
}

// Sink receives spans. Implementations must be safe for concurrent use;
// Record is called from protocol hot paths and must not block for long.
type Sink interface {
	Record(Span)
}

// Ring is a fixed-capacity ring-buffer Sink for long-running daemons:
// constant memory, most recent spans win.
type Ring struct {
	mu    sync.Mutex
	buf   []Span
	next  int
	total uint64
}

// NewRing creates a ring holding the last capacity spans (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Span, 0, capacity)}
}

// Record appends a span, evicting the oldest when full.
func (r *Ring) Record(s Span) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, s)
	} else {
		r.buf[r.next] = s
	}
	r.next = (r.next + 1) % cap(r.buf)
	r.total++
	r.mu.Unlock()
}

// Recent returns up to n spans, oldest first. n <= 0 returns everything
// retained.
func (r *Ring) Recent(n int) []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		out = append(out, r.buf...)
	} else {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	}
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// Total reports how many spans were ever recorded (including evicted).
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Recorder is an append-everything Sink for the simulator and chaos
// harness: nothing is evicted, so invariant checks can demand complete
// span chains after a run.
type Recorder struct {
	mu    sync.Mutex
	spans []Span
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record appends a span.
func (r *Recorder) Record(s Span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Spans returns a copy of everything recorded, in record order.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// ByTrace returns the spans of one flow, in record order.
func (r *Recorder) ByTrace(id ID) []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Span
	for _, s := range r.spans {
		if s.Trace == id {
			out = append(out, s)
		}
	}
	return out
}

// Len reports how many spans were recorded.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Tracer mints IDs and records spans on behalf of one party. The zero
// of every method is safe on a nil receiver, so instrumented call sites
// need no enabled-check: an engine without a tracer records nothing.
type Tracer struct {
	party  string
	origin uint64
	clk    clock.Clock
	sink   Sink
	seq    atomic.Uint64
}

// New builds a tracer for party. origin scopes minted IDs (federation
// index, or OriginBank / -1 for the bank); clk supplies Span.At
// timestamps (nil leaves them zero); sink receives the spans (nil
// disables recording but still mints).
func New(party string, origin int, clk clock.Clock, sink Sink) *Tracer {
	if origin < 0 {
		origin = OriginBank
	}
	return &Tracer{party: party, origin: uint64(origin) & 0xFFFF, clk: clk, sink: sink}
}

// Party names the tracer's owner ("" for a nil tracer).
func (t *Tracer) Party() string {
	if t == nil {
		return ""
	}
	return t.party
}

// Next mints a fresh ID (0 on a nil tracer: untraced).
func (t *Tracer) Next() ID {
	if t == nil {
		return 0
	}
	return ID(t.origin<<48 | t.seq.Add(1)&(1<<48-1))
}

// Record emits one span for flow id. No-op on a nil tracer or nil sink.
func (t *Tracer) Record(id ID, op string, amount int64, outcome string) {
	if t == nil || t.sink == nil {
		return
	}
	s := Span{Trace: id, Party: t.party, Op: op, Amount: amount, Outcome: outcome}
	if t.clk != nil {
		s.At = t.clk.Now()
	}
	t.sink.Record(s)
}
