package persist

import (
	"encoding/binary"
	"errors"
	"time"
)

// Record payload encoding shared by the WAL's clients: little-endian
// fixed-width integers and length-prefixed bytes, written by a
// RecordEnc and read back by a RecordDec with a sticky failure flag.
// The framing, checksum, and LSN around a payload are the WAL's own
// (wal.go); this file is only the inside of a record.

// ErrBadRecord reports a payload that failed to decode: truncated,
// trailing garbage, or an embedded value that did not parse.
var ErrBadRecord = errors.New("persist: malformed wal record")

// RecordEnc accumulates a record payload in B. A caller that knows the
// payload's size starts B with that capacity, so that encoding it
// allocates once.
type RecordEnc struct{ B []byte }

// U8 appends one byte.
func (e *RecordEnc) U8(v byte) { e.B = append(e.B, v) }

// U32 appends a little-endian uint32.
func (e *RecordEnc) U32(v uint32) { e.B = binary.LittleEndian.AppendUint32(e.B, v) }

// U64 appends a little-endian uint64.
func (e *RecordEnc) U64(v uint64) { e.B = binary.LittleEndian.AppendUint64(e.B, v) }

// I64 appends an int64 (two's complement, little-endian).
func (e *RecordEnc) I64(v int64) { e.U64(uint64(v)) }

// Str appends a u32 length prefix and the string bytes.
func (e *RecordEnc) Str(s string) { e.U32(uint32(len(s))); e.B = append(e.B, s...) }

// TimeSize is the most bytes Time appends.
const TimeSize = 4 + 16

// Time appends a u32 length prefix and t's MarshalBinary bytes, which
// it writes in place rather than into a slice of their own.
func (e *RecordEnc) Time(t time.Time) error {
	at := len(e.B)
	e.U32(0) // length, filled below
	b, err := t.AppendBinary(e.B)
	if err != nil {
		e.B = e.B[:at]
		return err
	}
	binary.LittleEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	e.B = b
	return nil
}

// Flag appends a bool as one byte (1/0).
func (e *RecordEnc) Flag(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// RecordDec reads a record payload. Any short read sets a sticky
// failure flag; Err also demands full consumption, so trailing bytes
// are corruption rather than silently ignored.
type RecordDec struct {
	b    []byte
	off  int
	fail bool
}

// DecodeRecord starts decoding payload.
func DecodeRecord(payload []byte) *RecordDec { return &RecordDec{b: payload} }

// Take consumes the next n bytes, or sets the failure flag and
// returns nil.
func (d *RecordDec) Take(n int) []byte {
	if d.fail || n < 0 || d.off+n > len(d.b) {
		d.fail = true
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

// U8 reads one byte.
func (d *RecordDec) U8() byte {
	p := d.Take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// U32 reads a little-endian uint32.
func (d *RecordDec) U32() uint32 {
	p := d.Take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

// U64 reads a little-endian uint64.
func (d *RecordDec) U64() uint64 {
	p := d.Take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// I64 reads an int64.
func (d *RecordDec) I64() int64 { return int64(d.U64()) }

// Flag reads a bool.
func (d *RecordDec) Flag() bool { return d.U8() == 1 }

// Str reads a length-prefixed string.
func (d *RecordDec) Str() string { return string(d.Take(int(d.U32()))) }

// Blob reads length-prefixed bytes (aliasing the payload).
func (d *RecordDec) Blob() []byte { return d.Take(int(d.U32())) }

// Time reads what RecordEnc.Time wrote; a timestamp that does not parse
// marks the decode failed.
func (d *RecordDec) Time() time.Time {
	var t time.Time
	if p := d.Blob(); p != nil && t.UnmarshalBinary(p) != nil {
		d.fail = true
	}
	return t
}

// Err reports the decode outcome: ErrBadRecord on any failure or if
// payload bytes remain unconsumed, nil otherwise.
func (d *RecordDec) Err() error {
	if d.fail || d.off != len(d.b) {
		return ErrBadRecord
	}
	return nil
}
