// Write-ahead log: append-only segment files of checksummed binary
// mutation records, plus a JSON snapshot that bounds replay. The
// framing mirrors internal/wire's discipline — little-endian, length
// prefix first, hard size cap — but adds a CRC and an LSN per record
// because log files, unlike sockets, survive crashes half-written.
//
// Layout of a WAL directory:
//
//	snapshot.json   walSnapshot{Version, Mark, State} via SaveJSON
//	seg000.wal …    one segment per logical stripe
//
// Segment file format:
//
//	header:  magic u16 | version u8 | pad u8 | segment index u32
//	record:  length u32 | crc32 u32 | lsn u64 | payload
//
// The length counts crc+lsn+payload (so 12 + len(payload)); the CRC is
// IEEE over lsn||payload. LSNs come from one global counter and are
// assigned under the segment mutex, so within a segment file order is
// LSN order — replay relies on that to drop duplicated tails.
//
// Recovery contract: records with lsn <= snapshot mark are covered by
// the snapshot and skipped; within a segment, records whose LSN does
// not increase are duplicates and skipped; the first record with a bad
// length or checksum ends the segment (torn tail) and the file is
// truncated back to the last good boundary. Only running out of data
// (io.EOF, io.ErrUnexpectedEOF) is a torn tail: any other read error
// fails recovery. A directory holding a segment file at an index the
// caller did not ask for fails recovery too — it was written with more
// segments. Recovery changes no file until every segment has been read
// and applied, so a failed recovery leaves the directory as it found
// it. Each segment is read through one buffered reader that the whole
// recovery reuses, so the payload handed to apply aliases that buffer
// and is valid only during the call: apply copies what it keeps.
// Segments are replayed one after another, on the caller's goroutine.
package persist

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Errors returned by the WAL layer.
var (
	ErrWALExists  = errors.New("persist: wal directory already initialized")
	ErrWALClosed  = errors.New("persist: wal is closed")
	ErrRecordSize = errors.New("persist: wal record exceeds size limit")
)

// MaxWALRecordSize bounds one record's payload, mirroring
// wire.MaxEnvelopeSize: state mutations are small; anything larger is
// corruption.
const MaxWALRecordSize = 1 << 20

const (
	walMagic       = 0x5A57 // "WZ"
	walVersion     = 1
	segHeaderSize  = 8
	recHeaderSize  = 12 // crc u32 + lsn u64, counted by the length prefix
	snapshotFile   = "snapshot.json"
	walSnapVersion = 1
)

// walSnapshot is the on-disk snapshot envelope: the application state
// as opaque JSON plus the mark — the highest LSN whose effects the
// snapshot already includes.
type walSnapshot struct {
	Version int             `json:"version"`
	Mark    uint64          `json:"mark"`
	State   json.RawMessage `json:"state"`
}

// segment is one append-only log file with its own mutex so stripes
// append without contending on each other.
type segment struct {
	mu      sync.Mutex
	f       *os.File
	err     error  // sticky: first write failure poisons the segment
	size    int64  // current file size including header
	lastLSN uint64 // highest LSN written or replayed in this segment
	frame   []byte // AppendBatch's write buffer, reused under mu
}

// maxKeptFrame is the largest write buffer a segment keeps for its next
// AppendBatch; a bigger batch frames into a buffer of its own.
const maxKeptFrame = 64 << 10

// WAL is a directory of per-stripe segment files plus a snapshot.
// Append is write-through to the kernel (survives process crash, the
// failure model of the chaos harness); Sync/WriteSnapshot/Close fsync
// for storage durability.
type WAL struct {
	dir    string
	lsn    atomic.Uint64
	mark   atomic.Uint64
	segs   []*segment
	closed atomic.Bool
}

func segPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("seg%03d.wal", i))
}

// HasWAL reports whether dir holds an initialized WAL (its snapshot
// file exists), so boot code can choose CreateWAL vs RecoverWAL.
func HasWAL(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, snapshotFile))
	return err == nil
}

// CreateWAL initializes dir as a fresh WAL: an initial snapshot of
// state at mark 0 and numSegments empty segment files. It refuses to
// clobber an existing WAL.
func CreateWAL(dir string, numSegments int, state any) (*WAL, error) {
	if numSegments <= 0 {
		return nil, fmt.Errorf("persist: wal needs at least one segment, got %d", numSegments)
	}
	if HasWAL(dir) {
		return nil, fmt.Errorf("%w: %s", ErrWALExists, dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: wal mkdir: %w", err)
	}
	w := &WAL{dir: dir, segs: make([]*segment, numSegments)}
	if err := w.writeSnapshotFile(state, 0); err != nil {
		return nil, err
	}
	for i := range w.segs {
		seg, err := createSegment(dir, i)
		if err != nil {
			w.closeSegments()
			return nil, err
		}
		w.segs[i] = seg
	}
	return w, nil
}

// RecoverWAL opens an existing WAL: it loads the snapshot into
// statePtr, then replays every surviving record through apply in
// per-segment file order. Records already covered by the snapshot
// (lsn <= mark) and duplicated records (non-increasing LSN within a
// segment) are skipped; a torn or corrupt tail ends its segment and is
// truncated away. Missing segment files are recreated empty, so a
// crash between CreateWAL's snapshot and its segment creation heals.
// A directory holding a segment at or beyond numSegments was written
// with another segment count and is refused. The payload handed to
// apply is valid only during the call. No file changes unless every
// segment scans and applies cleanly: a read error, a failed apply or a
// refused directory leaves the WAL as it was.
func RecoverWAL(dir string, numSegments int, statePtr any, apply func(seg int, payload []byte) error) (*WAL, error) {
	if numSegments <= 0 {
		return nil, fmt.Errorf("persist: wal needs at least one segment, got %d", numSegments)
	}
	var snap walSnapshot
	if err := LoadJSON(filepath.Join(dir, snapshotFile), &snap); err != nil {
		return nil, err
	}
	if snap.Version != walSnapVersion {
		return nil, fmt.Errorf("persist: wal snapshot version %d, want %d", snap.Version, walSnapVersion)
	}
	if err := checkSegmentCount(dir, numSegments); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(snap.State, statePtr); err != nil {
		return nil, fmt.Errorf("persist: wal snapshot state: %w", err)
	}
	w := &WAL{dir: dir, segs: make([]*segment, numSegments)}
	w.mark.Store(snap.Mark)
	// Scan every segment before touching any file; the scanned ones
	// keep their open handle, and a nil file marks one to (re)create.
	br := bufio.NewReaderSize(nil, scanBufSize)
	for i := range w.segs {
		seg, err := recoverSegment(dir, i, snap.Mark, br, apply)
		if err != nil {
			w.closeSegments()
			return nil, err
		}
		w.segs[i] = seg
	}
	maxLSN := snap.Mark
	for i, seg := range w.segs {
		if err := seg.settle(dir, i); err != nil {
			w.closeSegments()
			return nil, err
		}
		maxLSN = max(maxLSN, seg.lastLSN)
	}
	w.lsn.Store(maxLSN)
	return w, nil
}

// checkSegmentCount refuses a directory that holds a segment file at
// index n or beyond: the WAL was written with more segments than the
// caller now asks for, and replaying only the first n would silently
// drop the rest.
func checkSegmentCount(dir string, n int) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("persist: wal dir: %w", err)
	}
	for _, ent := range ents {
		num, ok := strings.CutPrefix(ent.Name(), "seg")
		if !ok {
			continue
		}
		num, ok = strings.CutSuffix(num, ".wal")
		if !ok {
			continue
		}
		if i, err := strconv.Atoi(num); err == nil && i >= n {
			return fmt.Errorf("persist: wal %s holds segment %d, recovering %d segments", dir, i, n)
		}
	}
	return nil
}

// createSegment writes a fresh header-only segment file and fsyncs it.
func createSegment(dir string, i int) (*segment, error) {
	f, err := os.OpenFile(segPath(dir, i), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: wal segment %d: %w", i, err)
	}
	var hdr [segHeaderSize]byte
	binary.LittleEndian.PutUint16(hdr[0:2], walMagic)
	hdr[2] = walVersion
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(i))
	if _, err := f.Write(hdr[:]); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("persist: wal segment %d header: %w", i, err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("persist: wal segment %d sync: %w", i, err)
	}
	return &segment{f: f, size: segHeaderSize}, nil
}

// scanBufSize is the recovery read buffer: one per RecoverWAL, shared
// by every segment. A record that fits is checked and applied in place;
// a larger one (up to MaxWALRecordSize) is read whole into a buffer
// that the segment's scan keeps.
const scanBufSize = 256 << 10

// recoverSegment opens segment i and replays it through br, reset onto
// the file. It changes nothing on disk: a missing or header-torn file
// comes back with a nil f, and settle later (re)creates it or cuts the
// scanned file back to its last good record.
func recoverSegment(dir string, i int, mark uint64, br *bufio.Reader, apply func(seg int, payload []byte) error) (*segment, error) {
	f, err := os.OpenFile(segPath(dir, i), os.O_RDWR, 0o644)
	if errors.Is(err, os.ErrNotExist) {
		return &segment{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("persist: wal segment %d: %w", i, err)
	}
	br.Reset(f)
	if err := readSegHeader(br, i); err != nil {
		_ = f.Close()
		if errors.Is(err, errTornHeader) {
			// A header-truncated segment cannot hold records; rebuild it.
			return &segment{}, nil
		}
		return nil, err
	}
	good, lastLSN, err := scanSegment(br, i, mark, apply)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	return &segment{f: f, size: segHeaderSize + good, lastLSN: lastLSN}, nil
}

// errTornHeader reports a segment file shorter than its header.
var errTornHeader = errors.New("persist: wal segment header torn")

// readSegHeader reads and checks segment i's header from r. A file that
// ends inside the header is errTornHeader; any other read error is
// returned as it is.
func readSegHeader(r io.Reader, i int) error {
	var hdr [segHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if tornTail(err) {
			return errTornHeader
		}
		return fmt.Errorf("persist: wal segment %d header: %w", i, err)
	}
	if binary.LittleEndian.Uint16(hdr[0:2]) != walMagic {
		return fmt.Errorf("persist: wal segment %d: bad magic", i)
	}
	if hdr[2] != walVersion {
		return fmt.Errorf("persist: wal segment %d: version %d, want %d", i, hdr[2], walVersion)
	}
	if got := int(binary.LittleEndian.Uint32(hdr[4:8])); got != i {
		return fmt.Errorf("persist: wal segment %d: header claims index %d", i, got)
	}
	return nil
}

// tornTail reports whether a read error means the data simply ran out:
// a crash mid-append leaves a short file, never an I/O error.
func tornTail(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// scanSegment replays the records of segment seg from r, which starts
// just past the segment header, and returns the byte length of the
// intact record prefix and the highest LSN in it. The first record
// with a bad length or checksum, or cut short by the end of r, ends
// the prefix; any other read error is returned, because a record the
// disk failed to deliver is not a torn tail. Records at or below mark,
// and records whose LSN does not increase, are counted in the prefix
// but not applied. The payload handed to apply aliases the read
// buffer, valid only during the call. When r is a *bufio.Reader it is
// read directly, so one buffer serves every segment of a recovery.
func scanSegment(r io.Reader, seg int, mark uint64, apply func(seg int, payload []byte) error) (good int64, lastLSN uint64, err error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, scanBufSize)
	}
	var big []byte // records too large for br, read whole
	for {
		lenBuf, err := br.Peek(4)
		if err != nil {
			return good, lastLSN, scanErr(seg, err)
		}
		n := int(binary.LittleEndian.Uint32(lenBuf))
		if n < recHeaderSize || n > recHeaderSize+MaxWALRecordSize {
			return good, lastLSN, nil // garbage length: treat as torn tail
		}
		// A record that fits in br is peeked in place and discarded
		// once applied; a larger one is read past into big.
		inPlace := 4+n <= br.Size()
		var rec []byte
		if inPlace {
			p, err := br.Peek(4 + n)
			if err != nil {
				return good, lastLSN, scanErr(seg, err)
			}
			rec = p[4:]
		} else {
			if cap(big) < 4+n {
				big = make([]byte, 4+n)
			}
			rec = big[:4+n]
			if _, err := io.ReadFull(br, rec); err != nil {
				return good, lastLSN, scanErr(seg, err)
			}
			rec = rec[4:]
		}
		if crc32.ChecksumIEEE(rec[4:]) != binary.LittleEndian.Uint32(rec[0:4]) {
			return good, lastLSN, nil // first bad checksum ends the segment
		}
		// A record covered by the snapshot, or a duplicated tail (same
		// segment replayed twice), is skipped but the scan goes on.
		lsn := binary.LittleEndian.Uint64(rec[4:12])
		if lsn > mark && lsn > lastLSN {
			if err := apply(seg, rec[recHeaderSize:]); err != nil {
				return good, lastLSN, fmt.Errorf("persist: wal segment %d replay lsn %d: %w", seg, lsn, err)
			}
		}
		lastLSN = max(lastLSN, lsn)
		good += 4 + int64(n)
		if inPlace {
			if _, err := br.Discard(4 + n); err != nil {
				return good, lastLSN, scanErr(seg, err)
			}
		}
	}
}

// scanErr maps a read error that stopped a scan: nil for a torn tail
// (the intact prefix stands), the error itself otherwise.
func scanErr(seg int, err error) error {
	if tornTail(err) {
		return nil
	}
	return fmt.Errorf("persist: wal segment %d read: %w", seg, err)
}

// settle finishes a scanned segment for appending: a segment with no
// file is created fresh; a scanned one is cut back to its last intact
// record so appends land on a clean boundary.
func (s *segment) settle(dir string, i int) error {
	if s.f == nil {
		fresh, err := createSegment(dir, i)
		if err != nil {
			return err
		}
		s.f, s.size = fresh.f, fresh.size
		return nil
	}
	if err := s.f.Truncate(s.size); err != nil {
		return fmt.Errorf("persist: wal segment %d truncate: %w", i, err)
	}
	if _, err := s.f.Seek(s.size, io.SeekStart); err != nil {
		return fmt.Errorf("persist: wal segment %d seek: %w", i, err)
	}
	return nil
}

// Append writes one mutation record to segment seg. The LSN is drawn
// under the segment mutex so file order within a segment is LSN order.
// Write errors stick: once a segment fails, every later Append, Sync,
// and Close on it reports the first failure.
func (w *WAL) Append(seg int, payload []byte) error {
	return w.AppendBatch(seg, [][]byte{payload})
}

// AppendBatch writes several mutation records to segment seg in one
// write(2). Each record keeps its own LSN and checksum, exactly as if
// appended one by one, so recovery cannot tell the two apart: a crash
// mid-write leaves an intact prefix of the batch and a torn tail. A
// payload over MaxWALRecordSize refuses the whole batch before anything
// is written; write errors stick as they do for Append.
func (w *WAL) AppendBatch(seg int, payloads [][]byte) error {
	if w.closed.Load() {
		return ErrWALClosed
	}
	n := 0
	for _, p := range payloads {
		if len(p) > MaxWALRecordSize {
			return fmt.Errorf("%w: %d bytes", ErrRecordSize, len(p))
		}
		n += 4 + recHeaderSize + len(p)
	}
	if n == 0 {
		return nil
	}
	s := w.segs[seg]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	// LSNs are drawn as one block under the segment mutex, so file order
	// within the segment stays LSN order.
	last := w.lsn.Add(uint64(len(payloads)))
	lsn := last - uint64(len(payloads))
	buf := s.frame[:0]
	if cap(buf) < n {
		buf = make([]byte, 0, n)
		if n <= maxKeptFrame {
			s.frame = buf
		}
	}
	for _, p := range payloads {
		lsn++
		off := len(buf)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(recHeaderSize+len(p)))
		buf = binary.LittleEndian.AppendUint32(buf, 0) // crc, filled below
		buf = binary.LittleEndian.AppendUint64(buf, lsn)
		buf = append(buf, p...)
		binary.LittleEndian.PutUint32(buf[off+4:off+8], crc32.ChecksumIEEE(buf[off+8:]))
	}
	if _, err := s.f.Write(buf); err != nil {
		s.err = fmt.Errorf("persist: wal append seg %d: %w", seg, err)
		return s.err
	}
	s.size += int64(len(buf))
	s.lastLSN = last
	return nil
}

// Sync fsyncs every segment, surfacing the first error (including a
// segment's sticky append failure).
func (w *WAL) Sync() error {
	if w.closed.Load() {
		return ErrWALClosed
	}
	for i, s := range w.segs {
		s.mu.Lock()
		err := s.err
		if err == nil {
			if serr := s.f.Sync(); serr != nil {
				s.err = fmt.Errorf("persist: wal sync seg %d: %w", i, serr)
				err = s.err
			}
		}
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// LSN reports the highest log sequence number assigned so far.
func (w *WAL) LSN() uint64 { return w.lsn.Load() }

// Mark reports the highest LSN covered by the current snapshot.
func (w *WAL) Mark() uint64 { return w.mark.Load() }

// SizeSinceSnapshot reports the live log volume: bytes of records
// currently on disk across all segments. Compaction policies key off
// this instead of record counts so large payloads count for more.
func (w *WAL) SizeSinceSnapshot() int64 {
	var total int64
	for _, s := range w.segs {
		s.mu.Lock()
		total += s.size - segHeaderSize
		s.mu.Unlock()
	}
	return total
}

// WriteSnapshot compacts the log: it atomically replaces the snapshot
// with state (declared to cover every record with lsn <= mark), then
// truncates segments fully covered by the mark. A crash between the
// two steps is safe — the new snapshot's mark makes the stale records
// no-ops on replay.
func (w *WAL) WriteSnapshot(state any, mark uint64) error {
	if w.closed.Load() {
		return ErrWALClosed
	}
	if err := w.writeSnapshotFile(state, mark); err != nil {
		return err
	}
	w.mark.Store(mark)
	for i, s := range w.segs {
		s.mu.Lock()
		if s.err != nil || s.lastLSN > mark {
			s.mu.Unlock()
			continue
		}
		if err := s.f.Truncate(segHeaderSize); err != nil {
			s.err = fmt.Errorf("persist: wal compact seg %d: %w", i, err)
			s.mu.Unlock()
			return s.err
		}
		if _, err := s.f.Seek(segHeaderSize, io.SeekStart); err != nil {
			s.err = fmt.Errorf("persist: wal compact seek seg %d: %w", i, err)
			s.mu.Unlock()
			return s.err
		}
		if err := s.f.Sync(); err != nil {
			s.err = fmt.Errorf("persist: wal compact sync seg %d: %w", i, err)
			s.mu.Unlock()
			return s.err
		}
		s.size = segHeaderSize
		s.mu.Unlock()
	}
	return nil
}

// writeSnapshotFile marshals state into the snapshot envelope and
// saves it atomically (SaveJSON's temp+fsync+rename).
func (w *WAL) writeSnapshotFile(state any, mark uint64) error {
	raw, err := json.Marshal(state)
	if err != nil {
		return fmt.Errorf("persist: wal snapshot marshal: %w", err)
	}
	snap := walSnapshot{Version: walSnapVersion, Mark: mark, State: raw}
	if err := SaveJSON(filepath.Join(w.dir, snapshotFile), &snap); err != nil {
		return err
	}
	return nil
}

// Close fsyncs and closes every segment. The first error — including
// sticky append failures — is returned; the WAL is unusable after.
func (w *WAL) Close() error {
	if !w.closed.CompareAndSwap(false, true) {
		return ErrWALClosed
	}
	var first error
	for i, s := range w.segs {
		s.mu.Lock()
		if s.err != nil && first == nil {
			first = s.err
		}
		if s.f != nil {
			if err := s.f.Sync(); err != nil && first == nil {
				first = fmt.Errorf("persist: wal close sync seg %d: %w", i, err)
			}
			if err := s.f.Close(); err != nil && first == nil {
				first = fmt.Errorf("persist: wal close seg %d: %w", i, err)
			}
			s.f = nil
		}
		s.mu.Unlock()
	}
	return first
}

// closeSegments releases partially-initialized segments on a failed
// CreateWAL/RecoverWAL; errors are irrelevant because the WAL was
// never handed out.
func (w *WAL) closeSegments() {
	for _, s := range w.segs {
		if s != nil && s.f != nil {
			_ = s.f.Close()
		}
	}
}
