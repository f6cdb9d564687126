package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"syscall"
)

// spec is BENCHMARK.json: the metric names, units, directions and
// regression bounds every report is checked against.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specLoad   `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec finds BENCHMARK.json in the working directory or its parent
// (the benchmark runs from the repository root or from bench/) and
// returns it with the directory that holds it.
func loadSpec() (*spec, string, error) {
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, "", err
		}
		var s spec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		abs, err := filepath.Abs(dir)
		return &s, abs, err
	}
	return nil, "", errors.New("BENCHMARK.json not found in . or ..")
}

// stamp says where and on what a report was measured.
type stamp struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	WALFS      string  `json:"wal_filesystem"`
	Placement  string  `json:"placement"`
}

func newStamp(walDir string, seed int64, seconds float64) stamp {
	return stamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     vcsRevision(),
		Seed:       seed,
		Seconds:    seconds,
		WALFS:      fsName(walDir),
		Placement:  "loopback, in-process client: client, both ISPs and all banks share the cores",
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func vcsRevision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("fs-%#x", int64(st.Type))
}

// report is what -out writes and -compare reads.
type report struct {
	Stamp stamp     `json:"stamp"`
	Runs  []*result `json:"runs"`
}

func sortedKeys[V any](m map[string]V) []string { return slices.Sorted(maps.Keys(m)) }

// printRun prints one run for a reader.
func printRun(w io.Writer, sp *spec, r *result) {
	fmt.Fprintf(w, "== %s seed=%d seconds=%g choices=%s audit_rounds=%d\n",
		r.Workload, r.Seed, r.Seconds, r.ChoiceHash, r.AuditRounds)
	c := r.Counts
	fmt.Fprintf(w, "   recipients: attempted=%d accepted=%d rejected_5xx=%d deferred_451=%d transport_errors=%d lost=%d failed_share=%g\n",
		c.Attempted, c.Accepted, c.Rejected, c.Deferred, c.Transport, c.Lost, r.FailedShare)
	fmt.Fprintf(w, "   transactions=%d delivered=%d acked=%d stray=%d\n", c.Txns, c.Delivered, c.Acked, c.Stray)
	bounds := map[string]float64{}
	for _, m := range sp.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	for _, k := range sortedKeys(r.Metrics) {
		fmt.Fprintf(w, "   %-22s %14.6g %-5s (bound %g)\n", k, r.Metrics[k].Value, r.Metrics[k].Unit, bounds[k])
	}
	for _, k := range sortedKeys(r.Reported) {
		fmt.Fprintf(w, "   %-22s %14.6g %-5s (reported, not gated)\n", k, r.Reported[k].Value, r.Reported[k].Unit)
	}
	samples := make([]string, 0, len(r.Samples))
	for k, n := range r.Samples {
		samples = append(samples, fmt.Sprintf("%s=%d", k, n))
	}
	sort.Strings(samples)
	fmt.Fprintf(w, "   samples: %s\n", strings.Join(samples, " "))
	if len(r.LayerTable) > 0 {
		printLayerTable(w, r)
	}
	fmt.Fprintf(w, "   \"valid\": %v\n", r.Valid)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "   problem: %s\n", p)
	}
}

// quantiled is one metric over the runs of a workload.
type quantiled struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"-"`
}

func quantile(unit string, v []float64) quantiled {
	q1, q3 := quartiles(v)
	return quantiled{Unit: unit, Median: median(v), Q1: q1, Q3: q3, Values: v}
}

// byWorkload groups one metric map of every run by workload and metric.
func byWorkload(runs []*result, pick func(*result) map[string]metric) map[string]map[string]quantiled {
	vals := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
		}
		for k, m := range pick(r) {
			vals[r.Workload][k] = append(vals[r.Workload][k], m.Value)
			units[k] = m.Unit
		}
	}
	out := map[string]map[string]quantiled{}
	for w, ms := range vals {
		out[w] = map[string]quantiled{}
		for k, v := range ms {
			out[w][k] = quantile(units[k], v)
		}
	}
	return out
}

// printSummary closes every invocation: the stamp, then one line per
// workload and metric with its median and quartiles over the runs. It
// is one JSON object. This benchmark defines the baseline and claims no
// gain, so the object ends with a null claim.
func printSummary(w io.Writer, rep report) {
	valid := true
	for _, r := range rep.Runs {
		valid = valid && r.Valid
	}
	stampJSON, _ := json.Marshal(rep.Stamp)
	fmt.Fprintf(w, "{\n  \"stamp\": %s,\n  \"runs\": %d,\n  \"valid\": %v,\n", stampJSON, len(rep.Runs), valid)
	sections := []struct {
		name string
		pick func(*result) map[string]metric
	}{
		{"end_to_end", func(r *result) map[string]metric { return r.Metrics }},
		{"reported", func(r *result) map[string]metric { return r.Reported }},
		{"per_layer", func(r *result) map[string]metric { return r.Layers }},
	}
	for _, sec := range sections {
		fmt.Fprintf(w, "  %q: {\n", sec.name)
		by := byWorkload(rep.Runs, sec.pick)
		names := sortedKeys(by)
		for i, name := range names {
			fmt.Fprintf(w, "    %q: {\n", name)
			keys := sortedKeys(by[name])
			for j, k := range keys {
				q, _ := json.Marshal(by[name][k])
				fmt.Fprintf(w, "      %q: %s%s\n", k, q, comma(j, len(keys)))
			}
			fmt.Fprintf(w, "    }%s\n", comma(i, len(names)))
		}
		fmt.Fprintf(w, "  },\n")
	}
	fmt.Fprintf(w, "  \"claim\": null\n}\n")
}

func comma(i, n int) string {
	if i < n-1 {
		return ","
	}
	return ""
}

// printResultLine prints the one-line object a harness reads: whether
// the outputs were correct, recipients attempted and failed, and the
// median of every end-to-end metric (or, for a traced run, of every
// per-layer metric) BENCHMARK.json names.
func printResultLine(w io.Writer, sp *spec, rep report, traced bool) error {
	want, pick := sp.EndToEnd, func(r *result) map[string]metric { return r.Metrics }
	if traced {
		want, pick = sp.PerLayer, func(r *result) map[string]metric { return r.Layers }
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, r := range rep.Runs {
		line.Correct = line.Correct && r.Valid
		line.Attempted += r.Counts.Attempted
		line.Failed += r.Counts.failed()
	}
	got := byWorkload(rep.Runs, pick)[rep.Runs[0].Workload]
	for _, m := range want {
		q, ok := got[m.Name]
		if !ok {
			return fmt.Errorf("metric %s of BENCHMARK.json was not measured", m.Name)
		}
		if q.Unit != m.Unit {
			return fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", m.Name, q.Unit, m.Unit)
		}
		line.Metrics[m.Name] = metric{q.Median, q.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// compareReports prints one row per workload and bounded metric of
// BENCHMARK.json: report a's and b's medians, how much worse b is, and
// a verdict. A metric whose run-to-run spread on either side exceeds
// its bound is unresolved, not unchanged. Any regressed row is an error.
func compareReports(sp *spec, a, b string) error {
	load := func(path string) (map[string]map[string]quantiled, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return byWorkload(rep.Runs, func(r *result) map[string]metric { return r.Metrics }), nil
	}
	ra, err := load(a)
	if err != nil {
		return err
	}
	rb, err := load(b)
	if err != nil {
		return err
	}
	fmt.Printf("%-13s %-18s %5s %12s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "unit", "median A", "median B", "worse", "spread", "bound", "verdict")
	regressed := 0
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			qa, oka := ra[w.Name][m.Name]
			qb, okb := rb[w.Name][m.Name]
			if !oka || !okb {
				fmt.Printf("%-13s %-18s missing from a report\n", w.Name, m.Name)
				continue
			}
			worse := (qb.Median - qa.Median) / qa.Median
			if m.Better == "higher" {
				worse = -worse
			}
			wide := max(spread(qa.Values), spread(qb.Values))
			verdict := "ok"
			switch {
			case wide > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Printf("%-13s %-18s %5s %12.6g %12.6g %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, m.Unit, qa.Median, qb.Median, 100*worse, 100*wide, 100*m.Bound, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed", regressed)
	}
	return nil
}
