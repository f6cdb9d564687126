package lint

// lockscope: no blocking work under a held mutex, anywhere in the
// federation. lockorder proves the ISP's lock *hierarchy*; this pass
// generalizes the other half of the discipline — what a critical
// section may contain — to every Config.GuardflowPkgs package
// (internal/isp, bank, core, cluster, mempool). A dial, a wire
// read/write, an SMTP send, a channel operation, or a transport
// callback executed while a stripe, bank, or node mutex is held turns
// one slow peer into a stall for every contender of that lock (the §3
// audit round and the SMTP accept path both funnel through them).
//
// The pass is a predicate over the shared must-hold lockset
// (lockset.go). Wherever a lock is provably held it reports a channel
// send or receive; a select with no default (its comm-clause heads are
// the select's own operation: with a default it never parks); any
// net-package call that can touch the wire or a configured blocking
// call (Config.LockScopeBlockingFuncs: wire codec, SMTP, transport
// callbacks, time.Sleep, WaitGroup.Wait); a call through a func-valued
// struct field (forward hooks, injected loggers: arbitrary caller
// code); and a call to an in-package function or directly invoked
// literal whose summary may block — guardflow's memoised bottom-up
// summary walk (resultOf) records each unit's first such operation.
// Deferred calls run at return and are not checked. Function literals
// are their own units, so `go` bodies and closures passed as arguments
// (the emit-queue idiom — queued closures run after unlock) start from
// an empty held set. Locks whose documented job is serializing a
// connection (core.Uplink.mu) are excused via
// Config.LockScopeAllowedLocks.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockScope returns the lock-held-blocking-call pass.
func LockScope() Pass {
	return Pass{
		Name: "lockscope",
		Doc:  "no network I/O, channel ops, or other blocking calls under a held mutex across the federation",
		Run:  runLockScope,
	}
}

// lsNonBlockingNetMethods are net-package calls that do not wait on the
// wire: closes, address accessors, deadline setters.
var lsNonBlockingNetMethods = map[string]bool{
	"Close": true, "LocalAddr": true, "RemoteAddr": true, "Addr": true,
	"SetDeadline": true, "SetReadDeadline": true, "SetWriteDeadline": true,
	"Network": true, "String": true, "Error": true, "Timeout": true,
	"Temporary": true, "JoinHostPort": true, "SplitHostPort": true,
	"ParseIP": true, "ParseCIDR": true,
}

func runLockScope(u *Unit) []Diagnostic {
	if !pathMatches(u.Pkg.ImportPath, u.Cfg.GuardflowPkgs) {
		return nil
	}
	a := u.guardSummaries()
	var out []Diagnostic
	for _, fu := range a.units {
		for _, h := range u.lockset(fu.body) {
			if lock := disallowedHeld(u, h.held); lock != "" {
				a.blockingOps(h.n, func(pos token.Pos, what, _ string) {
					out = append(out, u.diag("lockscope", pos, "%s while holding %s: every contender of the lock stalls behind this operation; move it outside the critical section (the emit-queue idiom), or allow the lock via Config.LockScopeAllowedLocks", what, lock))
				})
			}
		}
	}
	return out
}

// disallowedHeld returns the first provably held lock, in key order,
// that Config.LockScopeAllowedLocks does not excuse, or "".
func disallowedHeld(u *Unit, s gfState) string {
	first := ""
	for key := range s {
		if s.held(key) && !inStringList(key, u.Cfg.LockScopeAllowedLocks) && (first == "" || key < first) {
			first = key
		}
	}
	return first
}

// blockingOps yields every operation in one CFG node that may park the
// goroutine: what describes it in a finding, why in a caller's summary.
func (a *gfAnalyzer) blockingOps(n ast.Node, yield func(pos token.Pos, what, why string)) {
	if sel, ok := a.commHeads[n]; ok {
		if sel != nil {
			yield(sel.Select, "select with no default (parks the goroutine)", "parks in a select with no default")
		}
		return
	}
	inspectShallow(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.DeferStmt, *ast.GoStmt:
			return false // runs at return, or on another goroutine
		case *ast.SendStmt:
			yield(m.Arrow, "channel send", "performs a channel send")
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				yield(m.Pos(), "channel receive", "performs a channel receive")
			}
		case *ast.CallExpr:
			if what, why := a.blockingCall(m); what != "" {
				yield(m.Pos(), what, why)
			}
		}
		return true
	})
}

// blockingCall says why one call may block, or returns "".
func (a *gfAnalyzer) blockingCall(call *ast.CallExpr) (what, why string) {
	info := a.u.Pkg.Info
	switch fn := calleeFunc(info, call); {
	case fn == nil:
		// A called field selection can only be a func-valued field.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				return "call through func-valued field " + sel.Sel.Name, "calls through func-valued field " + sel.Sel.Name
			}
		}
	case inStringList(qualifiedFuncName(fn), a.u.Cfg.LockScopeBlockingFuncs):
		what = qualifiedFuncName(fn) + " blocks"
		return what, "calls " + what
	case fn.Pkg() != nil && fn.Pkg().Path() == "net" && !lsNonBlockingNetMethods[fn.Name()]:
		what = "net." + fn.Name() + " touches the wire"
		return what, "calls " + what
	}
	if callee, name := a.calleeUnit(call); callee != nil {
		if why := a.resultOf(callee).mayBlock; why != "" {
			return "call to " + name + ", which " + why, "calls " + name + ", which " + why
		}
	}
	return "", ""
}
