package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
BenchmarkEngineSend-8   	 1000000	      1100 ns/op	     512 B/op	       7 allocs/op
BenchmarkEngineSubmitAsync-8   	 4000000	       275 ns/op	     128 B/op	       3 allocs/op
BenchmarkWALCheckpointJSON100k-8	      10	 120000000 ns/op
BenchmarkWALCheckpointWAL100k-8 	    1000	   1000000 ns/op
BenchmarkWALReplayScan100k-8   	     100	  10000000 ns/op	       100.0 ns/record	  272000 B/op	     187 allocs/op
PASS
ok  	zmail	1.234s
`

func TestRunEmbedsClusterReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run(strings.NewReader(benchOutput), out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rec record
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatalf("record is not valid JSON: %v\n%s", err, raw)
	}
	if len(rec.Benchmarks) != 5 {
		t.Fatalf("parsed %d benchmarks, want 5", len(rec.Benchmarks))
	}
	if scan := rec.Benchmarks[4]; scan.Metrics["ns/record"] != 100 || scan.AllocsPerOp != 187 {
		t.Fatalf("custom metric lost: %+v", scan)
	}
	if rec.Benchmarks[0].Name != "EngineSend" {
		t.Fatalf("GOMAXPROCS suffix not stripped: %q", rec.Benchmarks[0].Name)
	}
	if got := rec.Derived["walCheckpointSpeedupVsJSON"]; got != 120 {
		t.Fatalf("derived checkpoint speedup = %v, want 120", got)
	}
	if got := rec.Derived["admissionSpeedupVsSync"]; got != 4 {
		t.Fatalf("derived admission speedup = %v, want 4", got)
	}
}

func TestRunClusterErrors(t *testing.T) {
	if err := run(strings.NewReader("no benchmarks here\n"), ""); err == nil {
		t.Error("empty benchmark input accepted")
	}
}

// TestRunFoldsRepeatedRuns: a benchmark run five times is one entry with
// the median of each value and the spread of the standard three, and
// the record names the machine the output says it ran on.
func TestRunFoldsRepeatedRuns(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: zmail
cpu: Intel(R) Xeon(R) Processor
BenchmarkMailCodec/decode-2   	 100	  300 ns/op	 90.0 MB/s	 64 B/op	 3 allocs/op
BenchmarkMailCodec/decode-2   	 120	  100 ns/op	 70.0 MB/s	 64 B/op	 3 allocs/op
BenchmarkNodeRelay-2          	 10	 2000 ns/op	 1600 B/op	 22 allocs/op
BenchmarkMailCodec/decode-2   	 110	  500 ns/op	 10.0 MB/s	 48 B/op	 2 allocs/op
BenchmarkMailCodec/decode-2   	 130	  200 ns/op	 80.0 MB/s	 64 B/op	 3 allocs/op
BenchmarkMailCodec/decode-2   	 140	  400 ns/op	 60.0 MB/s	 80 B/op	 4 allocs/op
pkg: zmail/internal/bank
cpu: Intel(R) Xeon(R) Processor
`
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run(strings.NewReader(in), out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rec record
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.GOOS != "linux" || rec.GOARCH != "amd64" || rec.CPU != "Intel(R) Xeon(R) Processor" {
		t.Errorf("machine = %q %q %q", rec.GOOS, rec.GOARCH, rec.CPU)
	}
	if len(rec.Benchmarks) != 2 || rec.Benchmarks[0].Name != "MailCodec/decode" || rec.Benchmarks[1].Runs != 1 {
		t.Fatalf("benchmarks = %+v, want MailCodec/decode then NodeRelay", rec.Benchmarks)
	}
	want := benchResult{Name: "MailCodec/decode", Runs: 5, Iterations: 120,
		NsPerOp: 300, NsPerOpMin: 100, NsPerOpMax: 500,
		BytesPerOp: 64, BytesMin: 48, BytesMax: 80,
		AllocsPerOp: 3, AllocsMin: 2, AllocsMax: 4,
		Metrics: map[string]float64{"MB/s": 70}}
	if got := rec.Benchmarks[0]; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("folded runs = %+v\nwant %+v", got, want)
	}
}
