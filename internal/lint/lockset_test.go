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
	units := map[string]*flowUnit{}
	for _, fu := range u.flowUnits() {
		if fu.fn != nil {
			units[fu.fn.Name()] = fu
		}
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

// TestLockPassesSeeISP runs lockorder straight through Pass.Run, before
// suppression filtering, over the package it guards. The isp engine
// must be clean with no directive to help it, and the lockset must see
// the engine take every rank of its hierarchy somewhere, so a
// classifier that went blind to the real lock calls fails here rather
// than passing silently.
func TestLockPassesSeeISP(t *testing.T) {
	var pkg *Package
	for _, p := range loadModule(t) {
		if p.ImportPath == "zmail/internal/isp" {
			pkg = p
		}
	}
	if pkg == nil {
		t.Fatal("zmail/internal/isp not loaded")
	}
	u := &Unit{Pkg: pkg, Cfg: DefaultConfig()}
	if raw := LockOrder().Run(u); len(raw) != 0 {
		t.Errorf("lockorder over internal/isp: want no raw findings, got %v", raw)
	}
	var acquired [numRanks]int
	for _, fu := range u.flowUnits() {
		for _, h := range u.lockset(fu.body) {
			for _, op := range h.ops {
				if r, ok := lockRank(op.key); ok && op.acquire {
					acquired[r]++
				}
			}
		}
	}
	for r, n := range acquired {
		if n == 0 {
			t.Errorf("the lockset saw no %s acquisition in internal/isp", rankNames[r])
		}
	}
}
