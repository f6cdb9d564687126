// Command benchjson converts `go test -bench` output on stdin into a
// stable JSON record (see `make bench-record`, which writes
// BENCH_<n>.json). Only the standard library is used; the parser
// accepts the textual benchmark lines emitted by the testing package:
//
//	BenchmarkName-8   	     100	  11234 ns/op	  512 B/op	  7 allocs/op
//
// Any further value/unit pair — a b.ReportMetric such as ns/record —
// is kept under its unit in the result's metrics.
//
// The trailing -N GOMAXPROCS suffix is stripped so benchmark names are
// the same on every machine. When both WAL checkpoint benchmarks are
// present, a derived speedup ratio (whole-state JSON ns/op over WAL
// ns/op) is included. Likewise, when both
// EngineSend and EngineSubmitAsync are present, the derived
// admissionSpeedupVsSync ratio (synchronous commit ns/op over async
// admission ns/op) records how far the mempool queue moved the SMTP
// accept path off the ledger commit.
//
// A record is a profile of one machine at one commit, not a gate: two
// records compare only when they were taken on the same machine, and
// end-to-end claims are made with the federation benchmark under
// bench/ (`make bench-pair`).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	// Metrics holds the benchmark's own b.ReportMetric values by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type record struct {
	GeneratedBy string             `json:"generatedBy"`
	Benchmarks  []benchResult      `json:"benchmarks"`
	Derived     map[string]float64 `json:"derived,omitempty"`
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	flag.Parse()
	if err := run(os.Stdin, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(in io.Reader, out string) error {
	rec := record{GeneratedBy: "make bench-record"}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		if r, ok := parseLine(sc.Text()); ok {
			rec.Benchmarks = append(rec.Benchmarks, r)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(rec.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines on stdin")
	}
	rec.Derived = make(map[string]float64)
	if ratio, ok := checkpointSpeedup(rec.Benchmarks); ok {
		rec.Derived["walCheckpointSpeedupVsJSON"] = ratio
	}
	if ratio, ok := admissionSpeedup(rec.Benchmarks); ok {
		rec.Derived["admissionSpeedupVsSync"] = ratio
	}
	if len(rec.Derived) == 0 {
		rec.Derived = nil
	}
	data, err := json.MarshalIndent(&rec, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// parseLine extracts one benchmark result; non-benchmark lines (build
// banners, PASS/ok trailers) report ok=false.
func parseLine(line string) (benchResult, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return benchResult{}, false
	}
	name := strings.TrimPrefix(f[0], "Benchmark")
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return benchResult{}, false
	}
	r := benchResult{Name: name, Iterations: iters}
	// The remainder is value/unit pairs.
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return benchResult{}, false
		}
		switch f[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[f[i+1]] = v
		}
	}
	if r.NsPerOp == 0 {
		return benchResult{}, false
	}
	return r, true
}

// checkpointSpeedup derives the PR-6 acceptance ratio when both 100k
// checkpoint benchmarks are present.
func checkpointSpeedup(bs []benchResult) (float64, bool) {
	var jsonNs, walNs float64
	for _, b := range bs {
		switch b.Name {
		case "WALCheckpointJSON100k":
			jsonNs = b.NsPerOp
		case "WALCheckpointWAL100k":
			walNs = b.NsPerOp
		}
	}
	if jsonNs == 0 || walNs == 0 {
		return 0, false
	}
	return jsonNs / walNs, true
}

// admissionSpeedup derives the PR-10 acceptance ratio — how much
// cheaper async admission (mempool enqueue) is than a synchronous
// ledger commit on the SMTP accept path — when both benchmarks are
// present.
func admissionSpeedup(bs []benchResult) (float64, bool) {
	var syncNs, asyncNs float64
	for _, b := range bs {
		switch b.Name {
		case "EngineSend":
			syncNs = b.NsPerOp
		case "EngineSubmitAsync":
			asyncNs = b.NsPerOp
		}
	}
	if syncNs == 0 || asyncNs == 0 {
		return 0, false
	}
	return syncNs / asyncNs, true
}
