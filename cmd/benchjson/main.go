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
// the same on every machine. A benchmark run several times (`go test
// -count=5`, as `make bench-record` does) is recorded once: its median
// of each value, and the min and max of ns/op, B/op and allocs/op, so
// that a record carries its own spread. The goos, goarch and cpu lines
// of the output name the machine. When both WAL checkpoint benchmarks are
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
	"slices"
	"strconv"
	"strings"
)

// benchResult is one benchmark: the median of its runs, and the
// spread of the three standard values across them.
type benchResult struct {
	Name        string  `json:"name"`
	Runs        int     `json:"runs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"nsPerOp"`
	NsPerOpMin  float64 `json:"nsPerOpMin"`
	NsPerOpMax  float64 `json:"nsPerOpMax"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	BytesMin    int64   `json:"bytesPerOpMin"`
	BytesMax    int64   `json:"bytesPerOpMax"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	AllocsMin   int64   `json:"allocsPerOpMin"`
	AllocsMax   int64   `json:"allocsPerOpMax"`
	// Metrics holds the benchmark's own b.ReportMetric values by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type record struct {
	GeneratedBy string             `json:"generatedBy"`
	GOOS        string             `json:"goos,omitempty"`
	GOARCH      string             `json:"goarch,omitempty"`
	CPU         string             `json:"cpu,omitempty"`
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
	runs := make(map[string][]benchResult) // by name, in input order
	var names []string
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := sc.Text()
		switch k, v, _ := strings.Cut(line, ": "); k {
		case "goos":
			rec.GOOS = v
		case "goarch":
			rec.GOARCH = v
		case "cpu":
			rec.CPU = v
		}
		if r, ok := parseLine(line); ok {
			if runs[r.Name] == nil {
				names = append(names, r.Name)
			}
			runs[r.Name] = append(runs[r.Name], r)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(names) == 0 {
		return fmt.Errorf("no benchmark lines on stdin")
	}
	for _, name := range names {
		rec.Benchmarks = append(rec.Benchmarks, summarize(runs[name]))
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

// summarize folds the runs of one benchmark into its median of every
// value, and the min and max of ns/op, B/op and allocs/op.
func summarize(rs []benchResult) benchResult {
	out := benchResult{Name: rs[0].Name, Runs: len(rs)}
	field := func(get func(benchResult) float64) (med, lo, hi float64) {
		v := make([]float64, len(rs))
		for i, r := range rs {
			v[i] = get(r)
		}
		slices.Sort(v)
		n := len(v)
		return (v[(n-1)/2] + v[n/2]) / 2, v[0], v[n-1]
	}
	it, _, _ := field(func(r benchResult) float64 { return float64(r.Iterations) })
	out.Iterations = int64(it)
	out.NsPerOp, out.NsPerOpMin, out.NsPerOpMax = field(func(r benchResult) float64 { return r.NsPerOp })
	b, bmin, bmax := field(func(r benchResult) float64 { return float64(r.BytesPerOp) })
	out.BytesPerOp, out.BytesMin, out.BytesMax = int64(b), int64(bmin), int64(bmax)
	a, amin, amax := field(func(r benchResult) float64 { return float64(r.AllocsPerOp) })
	out.AllocsPerOp, out.AllocsMin, out.AllocsMax = int64(a), int64(amin), int64(amax)
	for unit := range rs[0].Metrics {
		if out.Metrics == nil {
			out.Metrics = make(map[string]float64)
		}
		out.Metrics[unit], _, _ = field(func(r benchResult) float64 { return r.Metrics[unit] })
	}
	return out
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
