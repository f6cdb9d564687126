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
PASS
ok  	zmail	1.234s
`

func TestRunEmbedsClusterReport(t *testing.T) {
	dir := t.TempDir()
	clusterPath := filepath.Join(dir, "zload.json")
	clusterJSON := `{"offered": 1000, "sent": 998, "achieved_rate": 199.5}`
	if err := os.WriteFile(clusterPath, []byte(clusterJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "bench.json")
	if err := run(strings.NewReader(benchOutput), out, clusterPath); err != nil {
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
	if len(rec.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(rec.Benchmarks))
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
	var embedded struct {
		Offered      int64   `json:"offered"`
		AchievedRate float64 `json:"achieved_rate"`
	}
	if err := json.Unmarshal(rec.Cluster, &embedded); err != nil {
		t.Fatalf("embedded cluster section invalid: %v", err)
	}
	if embedded.Offered != 1000 || embedded.AchievedRate != 199.5 {
		t.Fatalf("cluster section mangled: %+v", embedded)
	}
}

func TestRunClusterErrors(t *testing.T) {
	if err := run(strings.NewReader(benchOutput), "", filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing -cluster file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(strings.NewReader(benchOutput), "", bad); err == nil {
		t.Error("invalid -cluster JSON accepted")
	}
	if err := run(strings.NewReader("no benchmarks here\n"), "", ""); err == nil {
		t.Error("empty benchmark input accepted")
	}
}
