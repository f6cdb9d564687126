package persist

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// batchPayloads are the records of the test batch: small ones around
// one larger than the scan buffer, so a tear can land in either.
func batchPayloads() [][]byte {
	sizes := []int{7, 1, 300, scanBufSize + 10, 64}
	out := make([][]byte, len(sizes))
	for i, n := range sizes {
		out[i] = scanPayload(i+1, n)
	}
	return out
}

// TestWALAppendBatchSameBytes: a batch is on disk exactly the records
// appended one by one — each with its own length, checksum and LSN —
// so recovery cannot tell the two apart.
func TestWALAppendBatchSameBytes(t *testing.T) {
	payloads := batchPayloads()
	one := filepath.Join(t.TempDir(), "one")
	w := mustCreate(t, one, 1, walKV{})
	for _, p := range payloads {
		if err := w.Append(0, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	batch := filepath.Join(t.TempDir(), "batch")
	w = mustCreate(t, batch, 1, walKV{})
	if err := w.AppendBatch(0, payloads); err != nil {
		t.Fatal(err)
	}
	if got := w.LSN(); got != uint64(len(payloads)) {
		t.Fatalf("LSN after a batch of %d = %d", len(payloads), got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(segPath(one, 0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(segPath(batch, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("batch segment (%d bytes) differs from one-by-one appends (%d bytes)", len(b), len(a))
	}
	checkRecovered(t, batch, payloads, int64(len(b)))
}

// TestWALAppendBatchRefusals: an oversize payload refuses the whole
// batch before anything is written, an empty batch writes nothing, and
// a closed WAL refuses batches as it refuses appends.
func TestWALAppendBatchRefusals(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	w := mustCreate(t, dir, 1, walKV{})
	big := make([]byte, MaxWALRecordSize+1)
	if err := w.AppendBatch(0, [][]byte{kvRec("a", "1"), big}); !errors.Is(err, ErrRecordSize) {
		t.Fatalf("oversize batch = %v, want ErrRecordSize", err)
	}
	if err := w.AppendBatch(0, nil); err != nil {
		t.Fatalf("empty batch = %v", err)
	}
	if w.LSN() != 0 || w.SizeSinceSnapshot() != 0 {
		t.Fatalf("refused batches left LSN %d and %d bytes", w.LSN(), w.SizeSinceSnapshot())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch(0, [][]byte{kvRec("a", "1")}); !errors.Is(err, ErrWALClosed) {
		t.Fatalf("batch after close = %v, want ErrWALClosed", err)
	}
}

// TestWALAppendBatchTornAtEveryBoundary writes one record and then a
// batch, and cuts the segment at every record boundary of the batch
// and at a stride of byte offsets through it, as a crash mid-write
// would. Every record wholly before the cut is recovered, the file
// ends at the last of them, and the next append gets the LSN after
// the highest one recovered.
func TestWALAppendBatchTornAtEveryBoundary(t *testing.T) {
	src := filepath.Join(t.TempDir(), "src")
	w := mustCreate(t, src, 1, walKV{})
	first := kvRec("k0", "v0")
	if err := w.Append(0, first); err != nil {
		t.Fatal(err)
	}
	batch := batchPayloads()
	if err := w.AppendBatch(0, batch); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want := append([][]byte{first}, batch...)
	ends := []int64{segHeaderSize}
	for _, p := range want {
		ends = append(ends, ends[len(ends)-1]+int64(4+recHeaderSize+len(p)))
	}
	pristine, err := os.ReadFile(segPath(src, 0))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(pristine)) != ends[len(ends)-1] {
		t.Fatalf("segment is %d bytes, want %d", len(pristine), ends[len(ends)-1])
	}
	snap, err := os.ReadFile(filepath.Join(src, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	const stride = 4099
	for cut := ends[1]; cut <= ends[len(ends)-1]; cut++ {
		k := 0 // records wholly before the cut
		for k+1 < len(ends) && ends[k+1] <= cut {
			k++
		}
		if cut != ends[k] && (cut-ends[1])%stride != 0 && cut-ends[k] > 4+recHeaderSize {
			continue
		}
		t.Run(fmt.Sprintf("at%d", cut), func(t *testing.T) {
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
			checkRecovered(t, dir, want[:k], ends[k])
		})
	}
}
