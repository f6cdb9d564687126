package lint

import (
	"go/ast"
	"maps"
	"os"
	"path/filepath"
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

// TestLockPassesSeeISP runs the three lockset clients straight through
// Pass.Run, before suppression filtering, over the real internal/isp.
// The raw result must be exactly the one finding the tree's lockscope
// directive exists for — the spam filter, a func-valued field, called
// under the freezeMu read side in send.go — and nothing from lockorder
// or guardflow; through Run, the directive must silence it.
func TestLockPassesSeeISP(t *testing.T) {
	var isp *Package
	for _, pkg := range loadModule(t) {
		if pkg.ImportPath == "zmail/internal/isp" {
			isp = pkg
		}
	}
	if isp == nil {
		t.Fatal("zmail/internal/isp not loaded")
	}
	passes := []Pass{LockOrder(), LockScope(), GuardFlow()}
	u := &Unit{Pkg: isp, Cfg: DefaultConfig()}
	var raw []Diagnostic
	for _, p := range passes {
		raw = append(raw, p.Run(u)...)
	}
	if len(raw) != 1 {
		t.Fatalf("want exactly one raw finding, got %d: %v", len(raw), raw)
	}
	d := raw[0]
	if d.Pass != "lockscope" || filepath.Base(d.Pos.Filename) != "send.go" ||
		!strings.Contains(d.Msg, "func-valued field Filter") || !strings.Contains(d.Msg, "isp.Engine.freezeMu") {
		t.Errorf("raw finding is not the spam-filter call under freezeMu: %s", d)
	}
	src, err := os.ReadFile(d.Pos.Filename)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(string(src), "\n"); d.Pos.Line < 2 || !strings.Contains(lines[d.Pos.Line-2], "//zlint:ignore lockscope") {
		t.Errorf("the line above %s carries no lockscope directive", d)
	}
	if diags := Run([]*Package{isp}, passes, DefaultConfig()); len(diags) != 0 {
		t.Errorf("the directive must silence the finding, got %v", diags)
	}
}
