package main

import (
	"encoding/json"
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
