package lint

import (
	"go/ast"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// locksetCases is one small package: each function ends in probe(),
// and the table below pins the must-hold state the engine computes at
// that call.
const locksetCases = `package cases

import "sync"

type accountStripe struct{ mu sync.Mutex }

type engine struct {
	mu       sync.Mutex
	freezeMu sync.RWMutex
}

// ticket is a user type whose method happens to be called Lock.
type ticket struct{}

func (ticket) Lock() {}

type desk struct{ mu ticket }

func (e *engine) lockStripe(s *accountStripe)        {}
func (e *engine) lockTwoStripes(a, b *accountStripe) {}
func unlockTwoStripes(a, b *accountStripe)           {}
func probe()                                         {}

func lock(e *engine)    { e.mu.Lock(); probe() }
func unlock(e *engine)  { e.mu.Lock(); e.mu.Unlock(); probe() }
func rlock(e *engine)   { e.freezeMu.RLock(); probe() }
func runlock(e *engine) { e.freezeMu.RLock(); e.freezeMu.RUnlock(); probe() }

func stripe(e *engine, s *accountStripe)       { e.lockStripe(s); probe() }
func stripes(e *engine, a, b *accountStripe)   { e.lockTwoStripes(a, b); probe() }
func unstripes(e *engine, a, b *accountStripe) { e.lockTwoStripes(a, b); unlockTwoStripes(a, b); probe() }

func deferred(e *engine, c bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if c {
		return
	}
	probe()
}

func notALock(d *desk) { d.mu.Lock(); probe() }

func onePath(e *engine, c bool) {
	if c {
		e.mu.Lock()
	}
	probe()
}

func bothPaths(e *engine, c bool) {
	if c {
		e.freezeMu.RLock()
	} else {
		e.freezeMu.Lock()
	}
	probe()
}
`

// TestLocksetClassifier pins the one lock-operation classifier and the
// must-hold lattice through the cached per-node lockset.
func TestLocksetClassifier(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "cases.go"), []byte(locksetCases), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := sharedLoader(t).LoadDir(dir, "cases")
	if err != nil {
		t.Fatal(err)
	}
	u := &Unit{Pkg: pkg, Cfg: DefaultConfig()}
	_, byFunc, _ := u.flowInfo()
	units := map[string]*flowUnit{}
	for _, fu := range byFunc {
		units[fu.name] = fu
	}

	for _, c := range []struct {
		fn   string
		want gfState
	}{
		{"lock", gfState{"engine.mu": gfHeldW}},
		{"unlock", gfState{"engine.mu": gfReleased}},
		{"rlock", gfState{"engine.freezeMu": gfHeldR}},
		// The read side is shared: after RUnlock a caller may still hold
		// it, so the lock is unknown rather than released.
		{"runlock", gfState{}},
		{"stripe", gfState{"accountStripe.mu": gfHeldW}},
		{"stripes", gfState{"accountStripe.mu": gfHeldW}},
		{"unstripes", gfState{"accountStripe.mu": gfReleased}},
		// A deferred Unlock runs at return: the lock is held to the end.
		{"deferred", gfState{"engine.mu": gfHeldW}},
		// Only sync methods are lock operations.
		{"notALock", gfState{}},
		{"onePath", gfState{}},
		{"bothPaths", gfState{"engine.freezeMu": gfHeldR}},
	} {
		fu := units[c.fn]
		if fu == nil {
			t.Fatalf("no function %s in the cases", c.fn)
		}
		var got gfState
		for _, h := range u.lockset(fu.body) {
			if es, ok := h.n.(*ast.ExprStmt); ok && isProbe(es) {
				got = gfState{}
				for k, m := range h.held {
					got[strings.TrimPrefix(k, "cases.")] = m
				}
			}
		}
		if got == nil {
			t.Fatalf("%s: probe() not reached", c.fn)
		}
		if !maps.Equal(got, c.want) {
			t.Errorf("%s: lockset at probe() = %v, want %v", c.fn, got, c.want)
		}
	}
}

// isProbe reports whether the statement is the cases' probe() call.
func isProbe(es *ast.ExprStmt) bool {
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "probe"
}

// TestLockPassesSeeISP runs the lockset clients and the summary pass
// moneyflow straight through Pass.Run, before suppression filtering,
// over the real packages that carry the tree's moneyflow directives.
// The raw result must be exactly the four findings those directives
// exist for, each on the line just below its directive; through Run,
// the directives must silence every one.
func TestLockPassesSeeISP(t *testing.T) {
	type want struct{ pass, file, msg string }
	cases := []struct {
		pkg  string
		want []want
	}{
		{"zmail/internal/isp", []want{
			{"moneyflow", "banklink.go", "cannot prove e-penny conservation in thaw"},
			{"moneyflow", "isp.go", "unbalanced e-penny flow in RegisterUser"},
			// charge's E4 cheat-mode debit, first reached from the literal
			// that commits each of a list transaction's acks.
			{"moneyflow", "send.go", "unbalanced e-penny flow in generateAcks.func"},
		}},
		{"zmail/internal/bank", nil},
		{"zmail/internal/ap/zmailspec", []want{
			{"moneyflow", "spec.go", "unbalanced e-penny flow in send-email"},
		}},
	}
	pkgs := map[string]*Package{}
	for _, pkg := range loadModule(t) {
		pkgs[pkg.ImportPath] = pkg
	}
	passes := []Pass{LockOrder(), GuardFlow(), MoneyFlow()}
	total := 0
	for _, c := range cases {
		pkg := pkgs[c.pkg]
		if pkg == nil {
			t.Fatalf("%s not loaded", c.pkg)
		}
		u := &Unit{Pkg: pkg, Cfg: DefaultConfig()}
		var raw []Diagnostic
		for _, p := range passes {
			raw = append(raw, p.Run(u)...)
		}
		sort.Slice(raw, func(i, j int) bool {
			a, b := raw[i].Pos, raw[j].Pos
			return a.Filename < b.Filename || a.Filename == b.Filename && a.Line < b.Line
		})
		total += len(raw)
		if len(raw) != len(c.want) {
			t.Errorf("%s: want %d raw findings, got %d: %v", c.pkg, len(c.want), len(raw), raw)
			continue
		}
		for i, d := range raw {
			w := c.want[i]
			if d.Pass != w.pass || filepath.Base(d.Pos.Filename) != w.file || !strings.Contains(d.Msg, w.msg) {
				t.Errorf("%s: raw finding %d is %s, want %s in %s saying %q", c.pkg, i, d, w.pass, w.file, w.msg)
				continue
			}
			src, err := os.ReadFile(d.Pos.Filename)
			if err != nil {
				t.Fatal(err)
			}
			if lines := strings.Split(string(src), "\n"); d.Pos.Line < 2 || !strings.Contains(lines[d.Pos.Line-2], "//zlint:ignore "+w.pass) {
				t.Errorf("the line above %s carries no %s directive", d, w.pass)
			}
		}
		if diags := Run([]*Package{pkg}, passes, DefaultConfig()); len(diags) != 0 {
			t.Errorf("%s: the directives must silence every finding, got %v", c.pkg, diags)
		}
	}
	if total != 4 {
		t.Errorf("want four raw findings across the packages, got %d", total)
	}
}
