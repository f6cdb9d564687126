// Package lint is zmail's project-specific static analyzer. It encodes
// two invariants the reproduction depends on and its tests cannot see
// on every path — the isp lock hierarchy and never-dropped
// persistence/crypto errors — as compile-time checks, so a violation
// is a build failure instead of a chaos-harness bisect. Everything
// else is a runtime check: determinism (the byte-identical zsim
// golden), replay protection (the replay tests), ledger encapsulation
// (the unexported restore paths), WAL completeness (the
// recover-after-every-step WAL tests), spec/wire agreement (the spec's
// kind-agreement test), lock scope and shutdown (the stall and stop
// tests of core, bank, isp, zbank and zmaild), the guard discipline of
// shared state (the -race hammers that call every exported method of
// bank, isp, mempool and core during traffic) and e-penny
// conservation on refusal paths (the money-neutral refusal properties
// of isp and bank). DESIGN.md decision 8 records, per pass, the
// mutations only that pass catches.
//
// The analyzer is stdlib-only (go/parser, go/ast, go/types with the
// source importer); go.mod stays dependency-free. Two passes run over
// every package in the module:
//
//   - lockorder: within internal/isp, mutex acquisitions must respect
//     freeze → stripes → cold order, never double-acquire a rank, and
//     every Lock needs a matching Unlock. It is a predicate over the
//     must-hold lockset (lockset.go), computed once per function body
//     on the CFG of cfg.go;
//   - errdrop: errors returned by internal/persist, internal/wire and
//     internal/crypto APIs must not be discarded — silent failure there
//     breaks crash recovery and replay protection.
//
// A finding that is intentional is silenced in place with
//
//	//zlint:ignore <pass>[,<pass>...] <reason>
//
// on the flagged line or the line directly above it. The reason is
// mandatory: the suppression is the documentation. Deleting a
// suppression re-surfaces the finding, so the set of accepted
// exceptions is itself under review on every run.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"time"
)

// A Diagnostic is one finding from one pass.
type Diagnostic struct {
	Pos  token.Position
	Pass string
	Msg  string
}

// String renders the finding in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Pass, d.Msg)
}

// A Pass inspects type-checked packages, one at a time, and reports
// findings.
type Pass struct {
	Name string
	Doc  string
	Run  func(u *Unit) []Diagnostic
}

// Unit is the per-package input handed to a pass. Besides the package
// and policy it memoizes the function units and their locksets, so one
// Run builds them once (the module is likewise loaded and type-checked
// once per invocation, in Loader).
type Unit struct {
	Pkg *Package
	Cfg Config

	units    []*flowUnit
	locksets map[*ast.BlockStmt][]heldAt
}

// diag is the helper passes use to report at a token.Pos.
func (u *Unit) diag(pass string, pos token.Pos, format string, args ...any) Diagnostic {
	return Diagnostic{
		Pos:  u.Pkg.Fset.Position(pos),
		Pass: pass,
		Msg:  fmt.Sprintf(format, args...),
	}
}

// Config scopes the passes. The zero value runs nothing; DefaultConfig
// returns the project policy. Tests point the path lists at fixture
// packages instead.
type Config struct {
	// LockOrderPkgs are import-path prefixes where lockorder applies
	// (the striped-ledger engine).
	LockOrderPkgs []string
	// ErrDropPkgs are package paths whose error results must never be
	// discarded, anywhere in the tree.
	ErrDropPkgs []string
}

// DefaultConfig is the project policy enforced by `make lint`.
func DefaultConfig() Config {
	return Config{
		LockOrderPkgs: []string{
			"zmail/internal/isp",
		},
		ErrDropPkgs: []string{
			"zmail/internal/persist",
			"zmail/internal/wire",
			"zmail/internal/crypto",
			"zmail/internal/promtext",
			"zmail/internal/obsv",
		},
	}
}

// FixtureConfig is DefaultConfig with lockorder also pointed at one
// fixture package (errdrop already applies everywhere). It is shared by
// the fixture tests and `zlint -testdata`, so both harnesses see
// identical findings.
func FixtureConfig(fixturePkg string) Config {
	cfg := DefaultConfig()
	cfg.LockOrderPkgs = append(cfg.LockOrderPkgs, fixturePkg)
	return cfg
}

// Passes returns the full pass set, in reporting order.
func Passes() []Pass {
	return []Pass{LockOrder(), ErrDrop()}
}

// PassNames lists the valid pass names (used to validate suppression
// directives and the -pass flag).
func PassNames() []string {
	var names []string
	for _, p := range Passes() {
		names = append(names, p.Name)
	}
	return names
}

// pathMatches reports whether an import path falls under any of the
// given prefixes (exact match or a "/"-delimited subpackage).
func pathMatches(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// A PassTiming records one pass's wall-clock cost in a run, for the
// CLI's verbose report. Shared work (loading, type-checking) is paid
// before the first pass.
type PassTiming struct {
	Name    string
	Elapsed time.Duration
}

// Run executes the given passes over the packages, filters suppressed
// findings, and appends diagnostics for malformed or unknown
// suppression directives. Results are sorted by position.
func Run(pkgs []*Package, passes []Pass, cfg Config) []Diagnostic {
	diags, _ := RunTimed(pkgs, passes, cfg)
	return diags
}

// RunTimed is Run plus per-pass wall time, in pass order.
func RunTimed(pkgs []*Package, passes []Pass, cfg Config) ([]Diagnostic, []PassTiming) {
	var out []Diagnostic
	valid := make(map[string]bool)
	for _, p := range passes {
		valid[p.Name] = true
	}
	for _, name := range PassNames() {
		valid[name] = true
	}
	// Suppressions merge across packages up front, so a finding is
	// matched against the directives of whichever file it names.
	merged := suppressionSet{byFileLine: make(map[string][]suppression)}
	units := make([]*Unit, 0, len(pkgs))
	for _, pkg := range pkgs {
		units = append(units, &Unit{Pkg: pkg, Cfg: cfg})
		sup, bad := collectSuppressions(pkg, valid)
		out = append(out, bad...)
		for file, sups := range sup.byFileLine {
			merged.byFileLine[file] = append(merged.byFileLine[file], sups...)
		}
	}
	timings := make([]PassTiming, 0, len(passes))
	for _, p := range passes {
		start := time.Now()
		var diags []Diagnostic
		for _, u := range units {
			diags = append(diags, p.Run(u)...)
		}
		timings = append(timings, PassTiming{Name: p.Name, Elapsed: time.Since(start)})
		for _, d := range diags {
			if merged.covers(d) {
				continue
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if out[i].Pass != out[j].Pass {
			return out[i].Pass < out[j].Pass
		}
		return a.Column < b.Column
	})
	return out, timings
}
