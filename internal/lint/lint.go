// Package lint is zmail's project-specific static analyzer. It encodes
// the invariants the reproduction depends on and its tests cannot see
// on every path — the isp lock hierarchy, e-penny conservation on
// rarely run paths, never-dropped persistence/crypto errors, and the
// guard discipline of shared state — as compile-time checks, so a
// violation is a build failure instead of a chaos-harness bisect.
// Determinism, replay protection, ledger encapsulation, WAL
// completeness, spec/wire agreement and the daemons' lock scope and
// shutdown are left to runtime checks: the byte-identical zsim golden,
// the replay tests, the unexported restore paths, the
// recover-after-every-step WAL tests, the spec's kind-agreement test,
// and the stall and stop tests of core, bank, isp, zbank and zmaild.
// DESIGN.md decision 8 records, per pass, the mutations only that pass
// catches.
//
// The analyzer is stdlib-only (go/parser, go/ast, go/types with the
// source importer); go.mod stays dependency-free. Four passes run
// over every package in the module:
//
//   - lockorder: within internal/isp, mutex acquisitions must respect
//     freeze → stripes → cold order, never double-acquire a rank, and
//     every Lock needs a matching Unlock;
//   - errdrop: errors returned by internal/persist, internal/wire and
//     internal/crypto APIs must not be discarded — silent failure there
//     breaks crash recovery and replay protection;
//   - moneyflow: CFG dataflow proving e-penny conservation — every
//     ledger debit pairs with an equal credit on every path, with
//     mint/burn allowed only at the blessed bank-exchange functions;
//   - guardflow: Eraser-style lockset dataflow — every access to a
//     declared shared field (Config.GuardedFields) happens with its
//     guard provably held on every path, with transitive call
//     summaries ("callee requires guard G"); fields touched via
//     sync/atomic are never also accessed plainly; and variables
//     captured into go bodies are guarded, channel-transferred,
//     per-iteration, or explicitly blessed.
//
// lockorder and guardflow are predicates over one lockset engine
// (lockset.go: a must-hold dataflow computed once per function body).
// moneyflow keeps its own path-set summaries (moneyflow.go) on the
// summary memo guardflow uses.
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
	"go/types"
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
// and policy it memoizes the artifacts the flow-sensitive passes share
// — flow units, the call graph, per-body CFGs and locksets, the lock
// call summaries — so one Run builds them once instead of once per
// pass (the module is likewise loaded and type-checked once per
// invocation, in Loader).
type Unit struct {
	Pkg *Package
	Cfg Config

	flowUnits  []*flowUnit
	flowByFunc map[*types.Func]*flowUnit
	flowByBody map[*ast.BlockStmt]*flowUnit
	flowCalls  map[*flowUnit][]*flowUnit
	cfgs       map[*ast.BlockStmt]*cfg
	locksets   map[*ast.BlockStmt][]heldAt
	summaries  *gfAnalyzer
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

	// MoneyflowPkgs are import-path prefixes where moneyflow applies:
	// everywhere the e-penny economy is implemented or modeled.
	MoneyflowPkgs []string
	// MoneyFields are the conserved e-penny fields. `account` is
	// deliberately not one: it is real pennies, the open boundary where
	// value enters and leaves the e-penny economy.
	MoneyFields []string
	// MintFuncs ("importpath:FuncName" or "importpath:action-label" for
	// AP closures) are the sanctioned mint/burn points — the bank
	// exchange paths where e-pennies are created against real pennies.
	MintFuncs []string

	// GuardflowPkgs are import-path prefixes where guardflow applies:
	// every package whose structs are mutated from more than one
	// goroutine.
	GuardflowPkgs []string
	// GuardedFields maps each shared field, as
	// "importpath.Owner.field", to the guards that protect it, each
	// "importpath.Owner.lockfield". Listing several guards means any
	// one of them satisfies an access (the freeze write side dominates
	// the whole engine, for example). A guard suffixed ":W" is
	// satisfied only when write-held — for RWMutex-guarded fields
	// where the read side merely observes. Guard identity is by lock
	// *type and field*, not instance: the discipline "hold some
	// accountStripe.mu" is what stripe striping makes checkable.
	GuardedFields map[string][]string
	// GuardExemptFuncs ("importpath:FuncName") are blessed
	// single-threaded paths: constructors and restore/replay code that
	// touch state before (or while frozen such that) no other
	// goroutine can see it.
	GuardExemptFuncs []string
	// GuardCaptureAllowed ("importpath:FuncName.var") are variables
	// blessed for capture into a go body despite being written on both
	// sides of the spawn.
	GuardCaptureAllowed []string
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
		MoneyflowPkgs: []string{
			"zmail/internal/isp",
			"zmail/internal/bank",
			"zmail/internal/ap/zmailspec",
			"zmail/internal/money",
		},
		MoneyFields: []string{"balance", "credit", "avail"},
		MintFuncs: []string{
			// ISP side of the bank exchange: the order reply mints pool
			// e-pennies against the bank account, and the tick escrows
			// an order's sell side out of the pool at send.
			"zmail/internal/isp:tick",
			"zmail/internal/isp:handleBank",
			// The AP model's equivalents, registered as closures.
			"zmail/internal/ap/zmailspec:rcv-buyreply",
			"zmail/internal/ap/zmailspec:bank-sell",
			"zmail/internal/ap/zmailspec:rcv-sellreply",
			// The rate conversion between pennies and e-pennies.
			"zmail/internal/money:FromPennies",
		},
		GuardflowPkgs: []string{
			"zmail/internal/isp",
			"zmail/internal/bank",
			"zmail/internal/core",
			"zmail/internal/cluster",
			"zmail/internal/mempool",
		},
		GuardedFields: map[string][]string{
			// ISP hot state: stripe maps and user rows live under the
			// owning stripe's mutex; the freeze write side stops the
			// world (snapshot/restore), so it satisfies any access too.
			"zmail/internal/isp.accountStripe.users": {"zmail/internal/isp.accountStripe.mu", "zmail/internal/isp.Engine.freezeMu:W"},
			"zmail/internal/isp.user.account":        {"zmail/internal/isp.accountStripe.mu", "zmail/internal/isp.Engine.freezeMu:W"},
			"zmail/internal/isp.user.balance":        {"zmail/internal/isp.accountStripe.mu", "zmail/internal/isp.Engine.freezeMu:W"},
			"zmail/internal/isp.user.sent":           {"zmail/internal/isp.accountStripe.mu", "zmail/internal/isp.Engine.freezeMu:W"},
			"zmail/internal/isp.user.limit":          {"zmail/internal/isp.accountStripe.mu", "zmail/internal/isp.Engine.freezeMu:W"},
			"zmail/internal/isp.user.warnedToday":    {"zmail/internal/isp.accountStripe.mu", "zmail/internal/isp.Engine.freezeMu:W"},
			"zmail/internal/isp.user.journal":        {"zmail/internal/isp.accountStripe.mu", "zmail/internal/isp.Engine.freezeMu:W"},
			"zmail/internal/isp.user.pending":        {"zmail/internal/isp.accountStripe.mu", "zmail/internal/isp.Engine.freezeMu:W"},
			// ISP cold state under Engine.mu.
			"zmail/internal/isp.Engine.avail":  {"zmail/internal/isp.Engine.mu", "zmail/internal/isp.Engine.freezeMu:W"},
			"zmail/internal/isp.Engine.outbox": {"zmail/internal/isp.Engine.mu", "zmail/internal/isp.Engine.freezeMu:W"},
			"zmail/internal/isp.Engine.seq":    {"zmail/internal/isp.Engine.mu", "zmail/internal/isp.Engine.freezeMu:W"},
			// Pool-order cold state (DESIGN decision 15): one
			// outstanding BatchOrder slot per engine.
			"zmail/internal/isp.Engine.canOrder": {"zmail/internal/isp.Engine.mu", "zmail/internal/isp.Engine.freezeMu:W"},
			"zmail/internal/isp.Engine.ordNonce": {"zmail/internal/isp.Engine.mu", "zmail/internal/isp.Engine.freezeMu:W"},
			"zmail/internal/isp.Engine.ordBuy":   {"zmail/internal/isp.Engine.mu", "zmail/internal/isp.Engine.freezeMu:W"},
			"zmail/internal/isp.Engine.ordAt":    {"zmail/internal/isp.Engine.mu", "zmail/internal/isp.Engine.freezeMu:W"},
			"zmail/internal/isp.Engine.ordTrace": {"zmail/internal/isp.Engine.mu", "zmail/internal/isp.Engine.freezeMu:W"},
			// The freeze flag itself: the write side flips it, the read
			// side observes it.
			"zmail/internal/isp.Engine.frozen": {"zmail/internal/isp.Engine.freezeMu"},
			// Admission queue internals: the FIFO, the in-flight commit
			// count, and the stop flag all live under the queue mutex; the
			// counters are atomics and stay out of the lockset discipline.
			"zmail/internal/mempool.Queue.buf":      {"zmail/internal/mempool.Queue.mu"},
			"zmail/internal/mempool.Queue.inflight": {"zmail/internal/mempool.Queue.mu"},
			"zmail/internal/mempool.Queue.stopped":  {"zmail/internal/mempool.Queue.mu"},
			// Bank: everything mutable lives under Bank.mu.
			"zmail/internal/bank.Bank.account":       {"zmail/internal/bank.Bank.mu"},
			"zmail/internal/bank.Bank.compliant":     {"zmail/internal/bank.Bank.mu"},
			"zmail/internal/bank.Bank.ispSealers":    {"zmail/internal/bank.Bank.mu"},
			"zmail/internal/bank.Bank.seenNonces":    {"zmail/internal/bank.Bank.mu"},
			"zmail/internal/bank.Bank.seq":           {"zmail/internal/bank.Bank.mu"},
			"zmail/internal/bank.Bank.verify":        {"zmail/internal/bank.Bank.mu"},
			"zmail/internal/bank.Bank.replied":       {"zmail/internal/bank.Bank.mu"},
			"zmail/internal/bank.Bank.total":         {"zmail/internal/bank.Bank.mu"},
			"zmail/internal/bank.Bank.gathering":     {"zmail/internal/bank.Bank.mu"},
			"zmail/internal/bank.Bank.roundTrace":    {"zmail/internal/bank.Bank.mu"},
			"zmail/internal/bank.Bank.violations":    {"zmail/internal/bank.Bank.mu"},
			"zmail/internal/bank.Bank.lastTransfers": {"zmail/internal/bank.Bank.mu"},
			"zmail/internal/bank.Bank.lastRoundSum":  {"zmail/internal/bank.Bank.mu"},
			"zmail/internal/bank.Bank.stats":         {"zmail/internal/bank.Bank.mu"},
			"zmail/internal/bank.Bank.wal":           {"zmail/internal/bank.Bank.mu"},
			"zmail/internal/bank.Bank.walErrs":       {"zmail/internal/bank.Bank.mu"},
			"zmail/internal/bank.Bank.emitq":         {"zmail/internal/bank.Bank.mu"},
			"zmail/internal/bank.Root.rounds":        {"zmail/internal/bank.Root.mu"},
			"zmail/internal/bank.Root.violations":    {"zmail/internal/bank.Root.mu"},
			"zmail/internal/bank.Root.stats":         {"zmail/internal/bank.Root.mu"},
			// Core daemons.
			"zmail/internal/core.BankServer.conns":   {"zmail/internal/core.BankServer.mu"},
			"zmail/internal/core.BankServer.forward": {"zmail/internal/core.BankServer.mu"},
			"zmail/internal/core.BankServer.ln":      {"zmail/internal/core.BankServer.mu"},
			"zmail/internal/core.BankServer.closed":  {"zmail/internal/core.BankServer.mu"},
			"zmail/internal/core.Node.inboxes":       {"zmail/internal/core.Node.mu"},
			"zmail/internal/core.Node.relays":        {"zmail/internal/core.Node.mu"},
			"zmail/internal/core.Node.bankTx":        {"zmail/internal/core.Node.mu"},
			"zmail/internal/core.Node.closed":        {"zmail/internal/core.Node.mu"},
			// A peer's relay: address, FIFO and session accounting under the
			// relay mutex, which is never held across a dial or a send.
			"zmail/internal/core.relay.addr":    {"zmail/internal/core.relay.mu"},
			"zmail/internal/core.relay.queue":   {"zmail/internal/core.relay.mu"},
			"zmail/internal/core.relay.running": {"zmail/internal/core.relay.mu"},
			"zmail/internal/core.relay.parked":  {"zmail/internal/core.relay.mu"},
			"zmail/internal/core.relay.closing": {"zmail/internal/core.relay.mu"},
			"zmail/internal/core.Uplink.conn":   {"zmail/internal/core.Uplink.mu"},
			"zmail/internal/core.Uplink.closed": {"zmail/internal/core.Uplink.mu"},
		},
		GuardExemptFuncs: []string{
			// Constructors publish the object only on return;
			// restore/replay paths run before the daemon is shared (the
			// engine's run under the freeze write lock, which the
			// dataflow also proves where it is taken locally).
			"zmail/internal/isp:New", "zmail/internal/isp:restoreState",
			"zmail/internal/bank:New", "zmail/internal/bank:restoreState",
			"zmail/internal/bank:NewRoot",
		},
		GuardCaptureAllowed: nil,
	}
}

// FixtureConfig is DefaultConfig with every path-scoped pass also
// pointed at one fixture package. It is shared by the fixture tests and
// `zlint -testdata`, so both harnesses see identical findings. The
// fixture package may bless a mint function named "blessedMint".
func FixtureConfig(fixturePkg string) Config {
	cfg := DefaultConfig()
	cfg.LockOrderPkgs = append(cfg.LockOrderPkgs, fixturePkg)
	cfg.MoneyflowPkgs = append(cfg.MoneyflowPkgs, fixturePkg)
	cfg.MintFuncs = append(cfg.MintFuncs, fixturePkg+":blessedMint")
	// Lockset tier: fixtures guard "vault.coins" with a plain mutex and
	// "vault.open" with an RWMutex, bless "blessedInit" as a
	// single-threaded path and "relay"'s captured counter.
	cfg.GuardflowPkgs = append(cfg.GuardflowPkgs, fixturePkg)
	cfg.GuardedFields[fixturePkg+".vault.coins"] = []string{fixturePkg + ".vault.mu"}
	cfg.GuardedFields[fixturePkg+".vault.open"] = []string{fixturePkg + ".vault.gate"}
	cfg.GuardExemptFuncs = append(cfg.GuardExemptFuncs, fixturePkg+":blessedInit")
	cfg.GuardCaptureAllowed = append(cfg.GuardCaptureAllowed, fixturePkg+":Relay.blessed")
	return cfg
}

// Passes returns the full pass set, in reporting order.
func Passes() []Pass {
	return []Pass{LockOrder(), ErrDrop(), MoneyFlow(), GuardFlow()}
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
// CLI's verbose report. Shared work (loading, type-checking, the
// flow-unit and CFG caches) lands in whichever pass touches it first.
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
