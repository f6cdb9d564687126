package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"testing/iotest"
)

// Recovery read path: scanSegment's torn-tail-vs-I/O-error rule, the
// buffer boundary, a tear at every offset of the tail, and the segment
// count check.

// encodeRecord frames payload as Append does, with the given LSN.
func encodeRecord(lsn uint64, payload []byte) []byte {
	buf := make([]byte, 4+recHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(recHeaderSize+len(payload)))
	binary.LittleEndian.PutUint64(buf[8:16], lsn)
	copy(buf[16:], payload)
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(buf[8:]))
	return buf
}

// collect is an apply that copies every payload it is handed.
func collect(got *[][]byte) func(int, []byte) error {
	return func(_ int, payload []byte) error {
		*got = append(*got, bytes.Clone(payload))
		return nil
	}
}

// TestWALScanReadErrorIsNotTornTail: a read that fails with EIO after
// intact records is an error, not a torn tail to truncate at.
func TestWALScanReadErrorIsNotTornTail(t *testing.T) {
	var valid []byte
	for i := 1; i <= 3; i++ {
		valid = append(valid, encodeRecord(uint64(i), kvRec(fmt.Sprint("k", i), "v"))...)
	}
	for _, cut := range []int{len(valid), len(valid) - 5} {
		r := io.MultiReader(bytes.NewReader(valid[:cut]), iotest.ErrReader(syscall.EIO))
		var got [][]byte
		_, _, err := scanSegment(r, 0, 0, collect(&got))
		if !errors.Is(err, syscall.EIO) {
			t.Fatalf("cut %d: scanSegment = %v, want EIO", cut, err)
		}
	}
	// The same holds for the segment header.
	var hdr [segHeaderSize]byte
	binary.LittleEndian.PutUint16(hdr[0:2], walMagic)
	hdr[2] = walVersion
	r := io.MultiReader(bytes.NewReader(hdr[:3]), iotest.ErrReader(syscall.EIO))
	if err := readSegHeader(r, 0); !errors.Is(err, syscall.EIO) || errors.Is(err, errTornHeader) {
		t.Fatalf("readSegHeader = %v, want EIO", err)
	}
	if err := readSegHeader(bytes.NewReader(hdr[:3]), 0); !errors.Is(err, errTornHeader) {
		t.Fatalf("readSegHeader on a short file = %v, want errTornHeader", err)
	}
}

// scanSizes are payload sizes around the point where a record stops
// fitting the scan buffer (4+12+payload == scanBufSize), small records
// that shift where the buffer's refills fall, and the largest record
// the log accepts.
func scanSizes() []int {
	fit := scanBufSize - 4 - recHeaderSize
	return []int{5, fit - 1, 7, fit, 3, fit + 1, 0, 1000, fit - 2, MaxWALRecordSize, 9, fit + 2, 11}
}

// scanPayload is record i's payload of n bytes.
func scanPayload(i, n int) []byte {
	p := make([]byte, n)
	for j := range p {
		p[j] = byte(i*31 + j*7)
	}
	return p
}

// writeScanWAL appends one record per size to a one-segment WAL and
// returns the payloads and each record's end offset in the segment.
func writeScanWAL(t *testing.T, dir string, sizes []int) (want [][]byte, ends []int64) {
	t.Helper()
	w := mustCreate(t, dir, 1, walKV{})
	off := int64(segHeaderSize)
	for i, n := range sizes {
		p := scanPayload(i, n)
		if err := w.Append(0, p); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
		off += int64(4 + recHeaderSize + n)
		ends = append(ends, off)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return want, ends
}

// checkRecovered recovers the one-segment WAL at dir and asserts the
// three things a recovery owes: the applied payloads are exactly want,
// the segment file ends at end, and the next append gets LSN
// len(want)+1.
func checkRecovered(t *testing.T, dir string, want [][]byte, end int64) {
	t.Helper()
	var got [][]byte
	var st walKV
	w, err := RecoverWAL(dir, 1, &st, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if len(got) != len(want) {
		t.Fatalf("applied %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: applied %d bytes differing from the %d appended", i, len(got[i]), len(want[i]))
		}
	}
	fi, err := os.Stat(segPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != end {
		t.Fatalf("segment is %d bytes after recovery, want %d", fi.Size(), end)
	}
	if err := w.Append(0, kvRec("next", "1")); err != nil {
		t.Fatal(err)
	}
	if got, wantLSN := w.LSN(), uint64(len(want)+1); got != wantLSN {
		t.Fatalf("next append got LSN %d, want %d", got, wantLSN)
	}
}

// TestWALRecoverBufferBoundary: records just under, at and just over
// the scan buffer, and one of MaxWALRecordSize, all come back intact.
func TestWALRecoverBufferBoundary(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	want, ends := writeScanWAL(t, dir, scanSizes())
	checkRecovered(t, dir, want, ends[len(ends)-1])
}

// TestWALRecoverTornAtEveryOffset cuts the segment inside each of its
// last two records — at every byte of their framing and first bytes,
// then at a stride through the payload — and recovers each cut: the
// records before the torn one survive, the file ends at their
// boundary, and appends resume at the next LSN.
func TestWALRecoverTornAtEveryOffset(t *testing.T) {
	src := filepath.Join(t.TempDir(), "src")
	sizes := []int{5, 40, scanBufSize - 4 - recHeaderSize + 1, 300}
	want, ends := writeScanWAL(t, src, sizes)
	pristine, err := os.ReadFile(segPath(src, 0))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(src, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	const stride = 4099
	for k := len(sizes) - 2; k < len(sizes); k++ {
		start, end := ends[k-1], ends[k]
		var cuts []int64
		for off := start; off < end; off++ {
			if off-start <= 4+recHeaderSize+2 || (off-start)%stride == 0 || off == end-1 {
				cuts = append(cuts, off)
			}
		}
		for _, cut := range cuts {
			t.Run(fmt.Sprintf("record%d/+%d", k, cut-start), func(t *testing.T) {
				dir := filepath.Join(t.TempDir(), "wal")
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, snapshotFile), snap, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(segPath(dir, 0), pristine[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				checkRecovered(t, dir, want[:k], start)
			})
		}
	}
}

// dirBytes reads every file in dir, keyed by name.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(ents))
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[ent.Name()] = b
	}
	return files
}

// TestWALRecoverRefusesExtraSegments: a WAL written with more segments
// than the recovery asks for is refused and left as it was; asking for
// more segments than were written is the crash-window case and heals.
func TestWALRecoverRefusesExtraSegments(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	w := mustCreate(t, dir, 4, walKV{})
	for i := 0; i < 4; i++ {
		if err := w.Append(i, kvRec(fmt.Sprint("k", i), "v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, dir)
	var st walKV
	if _, err := RecoverWAL(dir, 2, &st, applyKV(&st)); err == nil {
		t.Fatal("recovering 2 of 4 segments succeeded")
	}
	after := dirBytes(t, dir)
	if len(after) != len(before) {
		t.Fatalf("refused recovery changed the file set: %d files, want %d", len(after), len(before))
	}
	for name, b := range before {
		if !bytes.Equal(after[name], b) {
			t.Fatalf("refused recovery changed %s", name)
		}
	}
	st, w2 := mustRecover(t, dir, 4)
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if len(st.Vals) != 4 {
		t.Fatalf("recovered %v, want 4 keys", st.Vals)
	}
}

// TestWALRecoverApplyErrorChangesNothing: a failed apply fails the
// recovery before the torn tail of segment 0 is truncated or the
// missing segment 1 is made.
func TestWALRecoverApplyErrorChangesNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	seg := seedWAL(t, dir, 3)
	appendRaw(t, seg, []byte{0x1c, 0x00}) // a torn length prefix
	before := dirBytes(t, dir)
	var st walKV
	boom := errors.New("boom")
	_, err := RecoverWAL(dir, 2, &st, func(int, []byte) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("RecoverWAL = %v, want the apply error", err)
	}
	after := dirBytes(t, dir)
	if len(after) != len(before) {
		t.Fatalf("failed recovery changed the file set: %d files, want %d", len(after), len(before))
	}
	for name, b := range before {
		if !bytes.Equal(after[name], b) {
			t.Fatalf("failed recovery changed %s", name)
		}
	}
}

// FuzzScanSegment feeds arbitrary bytes after a valid segment header.
// The scan must not panic, must apply exactly the records of the
// intact prefix it reports — each with a good checksum and a rising
// LSN — and must end that prefix on a record boundary inside the input.
func FuzzScanSegment(f *testing.F) {
	var valid []byte
	for i := 1; i <= 3; i++ {
		valid = append(valid, encodeRecord(uint64(i), kvRec(fmt.Sprint("k", i), "v"))...)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(append(append([]byte(nil), valid...), valid...))
	f.Add([]byte{0x1c, 0x00})
	f.Add(encodeRecord(7, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var hdr [segHeaderSize]byte
		binary.LittleEndian.PutUint16(hdr[0:2], walMagic)
		hdr[2] = walVersion
		r := bytes.NewReader(append(hdr[:], data...))
		if err := readSegHeader(r, 0); err != nil {
			t.Fatal(err)
		}
		var got [][]byte
		good, lastLSN, err := scanSegment(r, 0, 0, collect(&got))
		if err != nil {
			t.Fatalf("scanSegment on in-memory bytes: %v", err)
		}
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good = %d outside [0, %d]", good, len(data))
		}
		// Walk the prefix independently: every record in it checks
		// out, and the applied ones are those whose LSN rose.
		var off int64
		var last uint64
		applied := 0
		for off < good {
			if good-off < 4+recHeaderSize {
				t.Fatalf("good = %d splits the record at %d", good, off)
			}
			n := int64(binary.LittleEndian.Uint32(data[off:]))
			if n < recHeaderSize || off+4+n > good {
				t.Fatalf("good = %d splits the record at %d", good, off)
			}
			rec := data[off+4 : off+4+n]
			if crc32.ChecksumIEEE(rec[4:]) != binary.LittleEndian.Uint32(rec[0:4]) {
				t.Fatalf("record at %d fails its checksum but lies inside good = %d", off, good)
			}
			if lsn := binary.LittleEndian.Uint64(rec[4:12]); lsn > last {
				if applied >= len(got) || !bytes.Equal(got[applied], rec[recHeaderSize:]) {
					t.Fatalf("record at %d (lsn %d) was not applied as record %d", off, lsn, applied)
				}
				applied++
				last = lsn
			}
			off += 4 + n
		}
		if applied != len(got) {
			t.Fatalf("applied %d records, the prefix holds %d", len(got), applied)
		}
		if last != lastLSN {
			t.Fatalf("lastLSN = %d, the prefix's highest is %d", lastLSN, last)
		}
	})
}
