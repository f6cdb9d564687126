package lint

// The lockset engine: a forward must-hold dataflow over each function
// body's CFG, run once per body and cached on the Unit; lockorder is a
// predicate over its per-node state. A lock is keyed by type and field
// ("importpath.Owner.field"), not by instance. Deferred unlocks are not
// applied: the lock stays held to the end of the function, as it does
// at run time.

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// A flowUnit is one function body analyzed on its own CFG. Function
// literals are their own units — their statements are excluded from
// the enclosing function's graph, and a goroutine body starts from an
// empty lockset because the spawner's locks do not transfer.
type flowUnit struct {
	body *ast.BlockStmt
	pos  token.Pos
	fn   *types.Func // nil for literals
}

// flowUnits enumerates every function declaration and function literal
// in the package, once per Unit.
func (u *Unit) flowUnits() []*flowUnit {
	if u.units != nil {
		return u.units
	}
	u.units = []*flowUnit{}
	for _, f := range u.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					fn, _ := u.Pkg.Info.Defs[n.Name].(*types.Func)
					u.units = append(u.units, &flowUnit{body: n.Body, pos: n.Pos(), fn: fn})
				}
			case *ast.FuncLit:
				u.units = append(u.units, &flowUnit{body: n.Body, pos: n.Pos()})
			}
			return true
		})
	}
	return u.units
}

// inspectShallow walks n without descending into function literals,
// whose bodies are separate analysis units.
func inspectShallow(n ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return true
		}
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		return visit(m)
	})
}

// namedTypeOf unwraps pointers and returns the named type of t, if any.
func namedTypeOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// gfMode is the per-lock must-state.
type gfMode uint8

const (
	gfHeldR    gfMode = iota + 1 // read side provably held
	gfHeldW                      // write side (or plain Mutex) provably held
	gfReleased                   // provably not held (a local acquire/release cycle completed)
)

// gfState maps lock keys ("importpath.Owner.field") to their must-
// state; absent keys are unknown (possibly held by a caller). States
// are shared between nodes and never mutated once built.
type gfState map[string]gfMode

// held reports whether the lock is provably held, on either side.
func (s gfState) held(key string) bool {
	return s[key] == gfHeldR || s[key] == gfHeldW
}

func gfJoin(x, y gfState) gfState {
	out := gfState{}
	for k, mx := range x {
		switch my := y[k]; {
		case my == mx:
			out[k] = mx
		case x.held(k) && y.held(k):
			out[k] = gfHeldR // one path holds only the read side
		}
		// held on one path, released or unknown on the other: drop.
	}
	return out
}

// lockOp is one classified lock operation.
type lockOp struct {
	key     string // "importpath.Owner.field"
	acquire bool
	read    bool // RLock/RUnlock
	pos     token.Pos
}

// stripeHelpers are internal/isp's stripe primitives, which take and
// release accountStripe.mu for their caller; lockorder trusts their
// bodies (lockTwoStripes orders two stripes by index internally).
var stripeHelpers = map[string]bool{"lockStripe": true, "lockTwoStripes": true, "unlockTwoStripes": true}

// classifyLockCall is the package's one lock-operation classifier: a
// sync-package Lock/RLock/Unlock/RUnlock on a struct field (e.freezeMu,
// s.mu), or a stripe helper.
func classifyLockCall(u *Unit, call *ast.CallExpr) (lockOp, bool) {
	op := lockOp{pos: call.Pos()}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	name := ""
	if isSel {
		name = sel.Sel.Name
	} else if id, ok := call.Fun.(*ast.Ident); ok {
		name = id.Name
	}
	switch {
	case stripeHelpers[name]:
		op.key = u.Pkg.ImportPath + ".accountStripe.mu"
		op.acquire = name != "unlockTwoStripes"
		return op, true
	case isSel && (name == "Lock" || name == "RLock" || name == "Unlock" || name == "RUnlock"):
		field, ok := sel.X.(*ast.SelectorExpr)
		fn, isFn := u.Pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok || !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return op, false
		}
		owner := namedTypeOf(u.Pkg.Info.TypeOf(field.X))
		if owner == nil {
			return op, false
		}
		op.key = u.Pkg.ImportPath + "." + owner.Obj().Name() + "." + field.Sel.Name
		op.acquire = name == "Lock" || name == "RLock"
		op.read = name == "RLock" || name == "RUnlock"
		return op, true
	}
	return op, false
}

// apply returns s after ops; s itself is not modified.
func (s gfState) apply(ops []lockOp) gfState {
	if len(ops) == 0 {
		return s
	}
	ns := maps.Clone(s)
	for _, op := range ops {
		switch {
		case op.acquire && !op.read:
			ns[op.key] = gfHeldW
		case op.acquire:
			if ns[op.key] != gfHeldW {
				ns[op.key] = gfHeldR
			}
		case !op.read:
			// A write unlock proves no caller holds the lock either (a
			// caller-held Mutex could not have been re-locked here).
			ns[op.key] = gfReleased
		default:
			// RUnlock: the read side is shared, a caller may still hold
			// it — back to unknown.
			delete(ns, op.key)
		}
	}
	return ns
}

// heldAt pairs a CFG node with the must-hold state at its entry and
// the lock operations the node itself performs.
type heldAt struct {
	n    ast.Node
	held gfState
	ops  []lockOp
}

// lockset returns heldAt for every reachable node of one function body,
// in block order.
func (u *Unit) lockset(body *ast.BlockStmt) []heldAt {
	if hs, ok := u.locksets[body]; ok {
		return hs
	}
	// Classify each node's lock operations once, skipping deferred calls
	// (they run at return) and function literals (their own units).
	g := buildCFG(body)
	ops := map[ast.Node][]lockOp{}
	for _, blk := range g.blocks {
		for _, n := range blk.nodes {
			inspectShallow(n, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if op, ok := classifyLockCall(u, call); ok {
						ops[n] = append(ops[n], op)
					}
				}
				_, deferred := m.(*ast.DeferStmt)
				return !deferred
			})
		}
	}
	transfer := func(s gfState, n ast.Node) gfState { return s.apply(ops[n]) }
	in := forwardFlow(g, gfState{}, flowLattice[gfState]{transfer: transfer, join: gfJoin, equal: maps.Equal[gfState, gfState]})
	var hs []heldAt
	for _, blk := range g.blocks {
		s, ok := in[blk]
		if !ok {
			continue // unreachable
		}
		for _, n := range blk.nodes {
			hs = append(hs, heldAt{n: n, held: s, ops: ops[n]})
			s = transfer(s, n)
		}
	}
	if u.locksets == nil {
		u.locksets = make(map[*ast.BlockStmt][]heldAt)
	}
	u.locksets[body] = hs
	return hs
}
