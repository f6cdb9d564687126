package persist

import (
	"path/filepath"
	"testing"
)

// BenchmarkWALReplayScan100k times the persist layer's half of a
// recovery — open, read, checksum, hand over — on 100,000 records of
// 64 bytes spread over 17 segments (an ISP's 16 stripes plus meta),
// with an apply that only counts. It reports the cost per record.
func BenchmarkWALReplayScan100k(b *testing.B) {
	const records, segs = 100_000, 17
	dir := filepath.Join(b.TempDir(), "wal")
	w, err := CreateWAL(dir, segs, walKV{})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64)
	for i := 0; i < records; i++ {
		payload[0] = byte(i)
		if err := w.Append(i%segs, payload); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st walKV
		n := 0
		w, err := RecoverWAL(dir, segs, &st, func(int, []byte) error {
			n++
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if n != records {
			b.Fatalf("replayed %d records, want %d", n, records)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*records), "ns/record")
}
