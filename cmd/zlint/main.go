// Command zlint runs zmail's project-specific static analysis over the
// module: two passes (lockorder, errdrop) that machine-check the
// invariants the reproduction depends on where its tests cannot. See
// internal/lint for what each pass guards and DESIGN.md decision 8 for
// the mutations only each one catches.
//
// Usage:
//
//	zlint                  # analyze the whole module, exit 1 on findings
//	zlint -pass lockorder,errdrop
//	zlint -v               # package count, pass set, per-pass wall time
//	zlint -list            # show the passes and their one-line docs
//	zlint -format github   # emit GitHub Actions ::error annotations
//	zlint -format json     # one JSON object per finding, one per line
//	zlint -testdata internal/lint/testdata -expect 42
//	                       # self-test: sweep the fixture corpus and
//	                       # pin the total finding count
//
// Findings print as file:line:col: pass: message. A finding that is
// intentional is silenced in place:
//
//	//zlint:ignore <pass>[,<pass>...] <reason>
//
// on the flagged line or the line above. Exit status: 0 clean, 1 on
// unsuppressed findings (or an -expect mismatch), 2 on load/usage
// errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"zmail/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("zlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		passNames = fs.String("pass", "", "comma-separated subset of passes to run (default: all)")
		root      = fs.String("root", ".", "directory inside the module to analyze")
		list      = fs.Bool("list", false, "list available passes and exit")
		verbose   = fs.Bool("v", false, "report package count, pass set and per-pass wall time")
		format    = fs.String("format", "text", "finding output format: text, json, or github")
		testdata  = fs.String("testdata", "", "sweep fixture packages under this directory instead of the module (self-test mode)")
		expect    = fs.Int("expect", -1, "with -testdata: require exactly this many findings")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *format {
	case "text", "json", "github":
	default:
		fmt.Fprintf(stderr, "zlint: unknown -format %q (want text, json, or github)\n", *format)
		return 2
	}

	all := lint.Passes()
	if *list {
		for _, p := range all {
			fmt.Fprintf(stdout, "%-12s %s\n", p.Name, p.Doc)
		}
		return 0
	}

	passes := all
	if *passNames != "" {
		byName := make(map[string]lint.Pass, len(all))
		for _, p := range all {
			byName[p.Name] = p
		}
		passes = nil
		for _, name := range strings.Split(*passNames, ",") {
			p, ok := byName[name]
			if !ok {
				fmt.Fprintf(stderr, "zlint: unknown pass %q (have %s)\n", name, strings.Join(lint.PassNames(), ", "))
				return 2
			}
			passes = append(passes, p)
		}
	}

	if *testdata != "" {
		return runTestdata(*testdata, *root, passes, *format, *expect, *verbose, stdout, stderr)
	}

	loader, err := lint.NewLoader(*root)
	if err != nil {
		fmt.Fprintln(stderr, "zlint:", err)
		return 2
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		fmt.Fprintln(stderr, "zlint:", err)
		return 2
	}
	if *verbose {
		var names []string
		for _, p := range passes {
			names = append(names, p.Name)
		}
		fmt.Fprintf(stderr, "zlint: %d packages, passes: %s\n", len(pkgs), strings.Join(names, ","))
	}

	diags, timings := lint.RunTimed(pkgs, passes, lint.DefaultConfig())
	if *verbose {
		printTimings(stderr, timings)
	}
	for _, d := range diags {
		emit(stdout, *format, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "zlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// runTestdata is the self-test sweep: every fixture package under dir
// is analyzed as its own one-package module with FixtureConfig, the
// same policy the internal/lint tests use. Findings here are expected
// — the corpus exists to produce them — so the exit status reflects
// only load errors and the -expect pin, which CI uses to prove the
// analyzer still sees exactly the corpus it is supposed to. With
// verbose, each pass's wall time is summed over the fixtures.
func runTestdata(dir, root string, passes []lint.Pass, format string, expect int, verbose bool, stdout, stderr io.Writer) int {
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "zlint:", err)
		return 2
	}

	var dirs []string
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(stderr, "zlint:", err)
		return 2
	}
	if len(dirs) == 0 {
		fmt.Fprintf(stderr, "zlint: no fixture packages under %s\n", dir)
		return 2
	}
	sort.Strings(dirs)

	importPath := func(d string) (string, error) {
		abs, err := filepath.Abs(d)
		if err != nil {
			return "", err
		}
		rel, err := filepath.Rel(loader.ModuleRoot(), abs)
		if err != nil {
			return "", err
		}
		return loader.ModulePath() + "/" + filepath.ToSlash(rel), nil
	}

	total := 0
	var sum []lint.PassTiming
	for _, d := range dirs {
		ip, err := importPath(d)
		if err != nil {
			fmt.Fprintln(stderr, "zlint:", err)
			return 2
		}
		pkg, err := loader.LoadDir(d, ip)
		if err != nil {
			fmt.Fprintln(stderr, "zlint:", err)
			return 2
		}
		diags, timings := lint.RunTimed([]*lint.Package{pkg}, passes, lint.FixtureConfig(ip))
		for _, diag := range diags {
			emit(stdout, format, diag)
			total++
		}
		if sum == nil {
			sum = timings
			continue
		}
		for i := range sum {
			sum[i].Elapsed += timings[i].Elapsed
		}
	}
	if verbose {
		printTimings(stderr, sum)
	}
	fmt.Fprintf(stderr, "zlint: %d finding(s) across %d fixture packages\n", total, len(dirs))
	if expect >= 0 && total != expect {
		fmt.Fprintf(stderr, "zlint: fixture finding count %d != expected %d — the analyzer or the corpus changed; re-pin -expect if intentional\n", total, expect)
		return 1
	}
	return 0
}

// printTimings writes the -v per-pass wall-time report.
func printTimings(w io.Writer, timings []lint.PassTiming) {
	for _, pt := range timings {
		fmt.Fprintf(w, "zlint: %-12s %v\n", pt.Name, pt.Elapsed.Round(time.Millisecond))
	}
}

// emit writes one finding in the selected format.
func emit(w io.Writer, format string, d lint.Diagnostic) {
	switch format {
	case "json":
		out, _ := json.Marshal(struct {
			File string `json:"file"`
			Line int    `json:"line"`
			Col  int    `json:"col"`
			Pass string `json:"pass"`
			Msg  string `json:"msg"`
		}{d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Pass, d.Msg})
		fmt.Fprintln(w, string(out))
	case "github":
		// GitHub Actions workflow-command annotation; the property list
		// needs %, comma-free values, the message only % and newlines
		// escaped (findings are single-line already).
		fmt.Fprintf(w, "::error file=%s,line=%d,col=%d,title=zlint %s::%s\n",
			ghEscape(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Pass, ghEscape(d.Msg))
	default:
		fmt.Fprintln(w, d)
	}
}

// ghEscape escapes workflow-command metacharacters per the GitHub
// Actions toolkit.
func ghEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}
