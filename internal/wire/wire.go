// Package wire defines the bank↔ISP control-plane messages of the
// Zmail protocol (§4.3–§4.4 of the paper) and their binary encoding.
//
// The message bodies mirror the paper's channel messages:
//
//	batchorder(x) ISP → bank   coalesced buy/sell order (sealed, nonced)
//	batchreply(x) bank → ISP   partial-fill grant (echoes nonce)
//	request(x)    bank → ISP   credit-array snapshot request (seq)
//	reply(x)      ISP → bank   the ISP's credit array
//
// The paper's buy/buyreply and sell/sellreply pairs travel as one
// batchorder/batchreply exchange: one round trip, one nonce and one
// seal cover both sides of the pool trade.
//
// Bodies are fixed little-endian binary; each travels inside an
// Envelope that carries the message kind, the sender's ISP index, an
// optional trace ID (internal/trace), and the (usually sealed)
// payload. Envelopes are length-prefix framed so they can be streamed
// over TCP.
//
// Encoding is append-style: every message implements
// AppendBinary(buf) []byte, growing the caller's buffer in place so
// hot paths encode with zero allocations (WriteEnvelope frames whole
// envelopes through a sync.Pool-backed buffer and a single Write
// call). MarshalBinary remains as the one-line AppendBinary(nil) shim
// for callers that want a fresh slice.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Kind discriminates envelope payloads.
type Kind uint8

// Message kinds. The byte values are fixed on the wire: 1–4 belonged to
// the retired split buy/buyreply/sell/sellreply exchange, the envelope
// decoder refuses them, and no kind may reuse them.
const (
	KindRequest Kind = 5
	KindReply   Kind = 6
	// KindHello carries no payload; an ISP sends it immediately after
	// connecting so the bank can associate the connection with the
	// ISP's index before any substantive traffic flows (needed for
	// bank-initiated snapshot requests).
	KindHello Kind = 7
	// KindBatchOrder carries the §4.3 pool trade: one sealed, nonced
	// buy and sell order (see BatchOrder).
	KindBatchOrder Kind = 8
	// KindBatchReply answers a batch order with the partially-fillable
	// grant (see BatchReply).
	KindBatchReply Kind = 9
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindRequest:
		return "request"
	case KindReply:
		return "reply"
	case KindHello:
		return "hello"
	case KindBatchOrder:
		return "batchorder"
	case KindBatchReply:
		return "batchreply"
	default:
		return fmt.Sprintf("wire.Kind(%d)", uint8(k))
	}
}

// Kinds enumerates every defined message kind, in declaration order.
// Keep in sync with the const block above; wire_test pins completeness
// against String(), and zmailspec's kind-agreement test compares this
// enumeration against the AP spec's receive vocabulary.
func Kinds() []Kind {
	return []Kind{KindRequest, KindReply, KindHello, KindBatchOrder, KindBatchReply}
}

// retiredKind reports a byte value of the retired split exchange.
func retiredKind(k Kind) bool { return k >= 1 && k <= 4 }

// Errors returned by decoders.
var (
	ErrShortMessage = errors.New("wire: message truncated")
	ErrBadMagic     = errors.New("wire: bad envelope magic")
	ErrTooLarge     = errors.New("wire: envelope exceeds size limit")
	ErrRetiredKind  = errors.New("wire: retired message kind")
)

// MaxEnvelopeSize bounds a framed envelope; a credit array for 4096
// ISPs plus sealing overhead fits comfortably.
const MaxEnvelopeSize = 1 << 20

const envelopeMagic = 0x5A4D // "ZM"

// EnvelopeHeaderSize is the fixed prefix of a marshaled envelope:
// magic (2) + kind (1) + from (4) + trace (8).
const EnvelopeHeaderSize = 15

// Envelope frames one sealed message body.
type Envelope struct {
	Kind    Kind
	From    int32 // sender's ISP index; -1 when sent by the bank
	Payload []byte
	// Trace is the optional internal/trace flow ID this message belongs
	// to (zero = untraced). It travels in the clear, outside the sealed
	// payload: it carries no value and replies echo it so both ends of a
	// bank exchange record spans under one ID.
	Trace uint64
}

// AppendBinary appends the encoded envelope (without the stream length
// prefix) to buf and returns the extended slice.
func (e *Envelope) AppendBinary(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, envelopeMagic)
	buf = append(buf, byte(e.Kind))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.From))
	buf = binary.LittleEndian.AppendUint64(buf, e.Trace)
	return append(buf, e.Payload...)
}

// MarshalBinary encodes the envelope (without the stream length
// prefix).
func (e *Envelope) MarshalBinary() []byte { return e.AppendBinary(nil) }

// UnmarshalBinary decodes an envelope produced by MarshalBinary.
func (e *Envelope) UnmarshalBinary(data []byte) error {
	if len(data) < EnvelopeHeaderSize {
		return ErrShortMessage
	}
	if binary.LittleEndian.Uint16(data[0:2]) != envelopeMagic {
		return ErrBadMagic
	}
	e.Kind = Kind(data[2])
	if retiredKind(e.Kind) {
		return fmt.Errorf("%w %d", ErrRetiredKind, data[2])
	}
	e.From = int32(binary.LittleEndian.Uint32(data[3:7]))
	e.Trace = binary.LittleEndian.Uint64(data[7:15])
	e.Payload = append([]byte(nil), data[EnvelopeHeaderSize:]...)
	return nil
}

// envBufPool recycles framing buffers for WriteEnvelope so the steady
// state of a busy bank link allocates nothing per message. Buffers are
// returned length-zero; capacity grows to the largest envelope a
// connection has carried.
var envBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// WriteEnvelope frames and writes one envelope: 4-byte little-endian
// length, then the marshaled envelope. The frame is assembled in a
// pooled buffer and written with a single Write call, so the encode
// path is allocation-free and the frame reaches the stream in one
// piece.
func WriteEnvelope(w io.Writer, e *Envelope) error {
	size := EnvelopeHeaderSize + len(e.Payload)
	if size > MaxEnvelopeSize {
		return ErrTooLarge
	}
	bp := envBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	buf = binary.LittleEndian.AppendUint32(buf, uint32(size))
	buf = e.AppendBinary(buf)
	_, err := w.Write(buf)
	*bp = buf[:0]
	envBufPool.Put(bp)
	if err != nil {
		return fmt.Errorf("wire: write envelope: %w", err)
	}
	return nil
}

// ReadEnvelope reads one framed envelope from the stream.
func ReadEnvelope(r io.Reader) (*Envelope, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n > MaxEnvelopeSize {
		return nil, ErrTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("wire: read body: %w", err)
	}
	var e Envelope
	if err := e.UnmarshalBinary(body); err != nil {
		return nil, err
	}
	return &e, nil
}

// Request is the paper's request(NCR(R_b, seq)) body: the bank asks for
// a credit-array snapshot. Seq prevents replay of old requests.
type Request struct {
	Seq uint64
}

// AppendBinary appends the encoded body to buf.
func (m *Request) AppendBinary(buf []byte) []byte {
	return binary.LittleEndian.AppendUint64(buf, m.Seq)
}

// MarshalBinary encodes the body.
func (m *Request) MarshalBinary() []byte { return m.AppendBinary(nil) }

// UnmarshalBinary decodes the body.
func (m *Request) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return ErrShortMessage
	}
	m.Seq = binary.LittleEndian.Uint64(data)
	return nil
}

// CreditReport is the paper's reply(NCR(B_b, credit)) body: one ISP's
// full credit array for the closing billing period, indexed by peer ISP
// number. Seq echoes the snapshot request it answers.
type CreditReport struct {
	Seq     uint64
	Credits []int64
}

// AppendBinary appends the encoded body to buf.
func (m *CreditReport) AppendBinary(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, m.Seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Credits)))
	for _, c := range m.Credits {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c))
	}
	return buf
}

// MarshalBinary encodes the body.
func (m *CreditReport) MarshalBinary() []byte { return m.AppendBinary(nil) }

// UnmarshalBinary decodes the body.
func (m *CreditReport) UnmarshalBinary(data []byte) error {
	if len(data) < 12 {
		return ErrShortMessage
	}
	m.Seq = binary.LittleEndian.Uint64(data[0:8])
	n := int(binary.LittleEndian.Uint32(data[8:12]))
	if n < 0 || len(data) < 12+8*n {
		return ErrShortMessage
	}
	m.Credits = make([]int64, n)
	for i := range m.Credits {
		m.Credits[i] = int64(binary.LittleEndian.Uint64(data[12+8*i:]))
	}
	return nil
}

// BatchOrder is the coalesced §4.3 exchange: one sealed, nonced order
// carrying both sides of the pool-maintenance trade. Buy is the
// e-penny amount requested from the bank (0 when the pool is not
// short); Sell is the escrowed amount sold back (0 when the pool is
// not over its band). A single nonce and a single seal cover the whole
// order, so one bank round trip amortizes over however many e-pennies
// the order moves.
type BatchOrder struct {
	Buy   int64
	Sell  int64
	Nonce uint64
}

// AppendBinary appends the encoded body to buf.
func (m *BatchOrder) AppendBinary(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Buy))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Sell))
	return binary.LittleEndian.AppendUint64(buf, m.Nonce)
}

// MarshalBinary encodes the body.
func (m *BatchOrder) MarshalBinary() []byte { return m.AppendBinary(nil) }

// UnmarshalBinary decodes the body.
func (m *BatchOrder) UnmarshalBinary(data []byte) error {
	if len(data) < 24 {
		return ErrShortMessage
	}
	m.Buy = int64(binary.LittleEndian.Uint64(data[0:8]))
	m.Sell = int64(binary.LittleEndian.Uint64(data[8:16]))
	m.Nonce = binary.LittleEndian.Uint64(data[16:24])
	return nil
}

// BatchReply answers a BatchOrder. BuyFilled is the granted buy amount
// — the bank fills as much of the requested buy as the ISP's account
// covers, so it ranges from 0 to the order's Buy (a partial fill).
// SellBurned echoes the burned sell amount for the order's audit
// trail.
type BatchReply struct {
	Nonce      uint64
	BuyFilled  int64
	SellBurned int64
}

// AppendBinary appends the encoded body to buf.
func (m *BatchReply) AppendBinary(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, m.Nonce)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.BuyFilled))
	return binary.LittleEndian.AppendUint64(buf, uint64(m.SellBurned))
}

// MarshalBinary encodes the body.
func (m *BatchReply) MarshalBinary() []byte { return m.AppendBinary(nil) }

// UnmarshalBinary decodes the body.
func (m *BatchReply) UnmarshalBinary(data []byte) error {
	if len(data) < 24 {
		return ErrShortMessage
	}
	m.Nonce = binary.LittleEndian.Uint64(data[0:8])
	m.BuyFilled = int64(binary.LittleEndian.Uint64(data[8:16]))
	m.SellBurned = int64(binary.LittleEndian.Uint64(data[16:24]))
	return nil
}
