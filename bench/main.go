// Command bench is the repository's end-to-end benchmark: it boots a
// real-TCP Zmail federation in the production configuration inside this
// process, drives it over SMTP with one of four workloads, checks the
// ledgers afterwards and prints every metric by name and unit. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errInvalid = errors.New("run is not valid")

func mainErr() error {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed for every sender and recipient choice")
		seconds = flag.Float64("seconds", 0, "measurement interval (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "1: traced run, printing the per-layer metrics")
		repeat  = flag.Int("repeat", 1, "runs per workload; medians and quartiles are reported")
		out     = flag.String("out", "", "write every run of this invocation to this JSON file")
		spans   = flag.String("spans", "", "traced run: write the spans here (default .bench_build/spans_<workload>.json)")
		compare = flag.Bool("compare", false, "compare two -out files: bench -compare A.json B.json")
	)
	flag.Parse()

	spec, root, err := loadSpec()
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare takes two report files")
		}
		return compareReports(spec, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *seconds <= 0 || *repeat < 1 {
		return errors.New("-seconds and -repeat must be positive")
	}
	todo := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		todo = []workload{w}
	}
	workDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}

	rep := report{Stamp: newStamp(workDir, *seed, *seconds)}
	valid := true
	for _, w := range todo {
		for k := 0; k < *repeat; k++ {
			rc := runConfig{
				fed: production(), w: w, seed: *seed + int64(k), seconds: *seconds,
				warm: time.Second, conns: runtime.NumCPU(), setups: 5,
				recoveryMsgs: recoveryMsgs, recoveries: recoveries,
				trace: *trace == 1, sampleMsgs: 10_000, workDir: workDir,
				spansOut: *spans,
			}
			if rc.trace && rc.spansOut == "" {
				rc.spansOut = filepath.Join(workDir, "spans_"+w.name+".json")
			}
			res, err := run(rc)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			printRun(os.Stdout, spec, res)
			rep.Runs = append(rep.Runs, res)
			valid = valid && res.Valid
		}
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			return err
		}
	}
	printSummary(os.Stdout, rep)
	if len(todo) == 1 {
		// The last line is the one object a harness reads.
		if err := printResultLine(os.Stdout, spec, rep, *trace == 1); err != nil {
			return err
		}
	}
	if !valid {
		return errInvalid
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
