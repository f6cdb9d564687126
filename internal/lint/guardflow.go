package lint

// guardflow: an Eraser-style lockset proof that shared ledger state is
// guard-protected on every schedule. `make race` samples the schedules
// that happened to run; this pass closes the gap statically before the
// hot-path batching refactor rewrites the concurrency structure. Three
// checks share one config (Config.GuardedFields et al.):
//
//  1. Lockset dataflow. Each declared shared field maps to the guards
//     that may protect it. The shared must-hold lockset (lockset.go)
//     says, per lock, whether it is provably held (read- or
//     write-side), provably released, or unknown at every CFG node. A
//     guarded access with no satisfying guard held becomes an
//     obligation; obligations propagate bottom-up through in-package
//     calls as summaries ("callee requires guard G held") and are
//     reported at the roots — exported functions, functions with no
//     static caller, goroutine bodies — where no caller remains to
//     discharge them. Accesses through locals freshly built from a
//     composite literal (the constructor idiom) are unshared and
//     skipped; whole functions are blessed via Config.GuardExemptFuncs.
//
//  2. Atomic/plain mixing. A field updated through sync/atomic — a
//     typed atomic.Int64/Bool/Pointer or an old-style atomic.AddInt64
//     call — must never be read or written plainly anywhere: the plain
//     site races with every atomic one, and the mixed discipline loses
//     atomicity on every architecture.
//
//  3. Goroutine capture. A variable captured into a `go func(){...}`
//     body and written on either side of the spawn boundary must be a
//     channel, a sync-package type, a pointer to a self-synchronized
//     struct (one with guarded fields or its own mutex), a
//     per-iteration loop variable (go >= 1.22), or blessed via
//     Config.GuardCaptureAllowed.
//
// Guard identity is by lock type and field ("importpath.Owner.field"),
// not by instance — the stripe discipline "hold *some* accountStripe's
// mu" is exactly what striping makes checkable; cross-instance
// confusion inside one package is what lockorder's rank rules cover.
// Like Eraser, the analysis is unsound in the small (freshness and the
// type-level guard identity are heuristics) but its findings are
// schedule-independent, which the race detector's cannot be.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// GuardFlow returns the lockset pass.
func GuardFlow() Pass {
	return Pass{
		Name: "guardflow",
		Doc:  "every declared shared field is accessed with its guard held on all paths; atomics are never mixed with plain access; go-body captures are sanctioned",
		Run:  runGuardFlow,
	}
}

// gfGuard is one alternative from a GuardedFields entry. writeOnly
// marks the ":W" suffix: only the write-held side satisfies, whatever
// the access kind (the freeze world-stop dominator).
type gfGuard struct {
	key       string
	writeOnly bool
}

func gfParseGuards(specs []string) []gfGuard {
	out := make([]gfGuard, 0, len(specs))
	for _, sp := range specs {
		g := gfGuard{key: sp}
		if strings.HasSuffix(sp, ":W") {
			g.key, g.writeOnly = strings.TrimSuffix(sp, ":W"), true
		}
		out = append(out, g)
	}
	return out
}

// gfObligation is one guarded access (or a call reaching one) that the
// local lockset did not discharge. guards are alternatives: any one
// held (with sufficient mode) satisfies the access.
type gfObligation struct {
	guards []gfGuard
	write  bool
	pos    token.Pos // where to report in the current unit
	desc   string    // description of the ultimate access, with its source position
	via    string    // immediate callee the obligation arrived through, "" for direct accesses
}

// gfSatisfied reports whether the held set discharges the obligation.
func gfSatisfied(s gfState, ob gfObligation) bool {
	for _, g := range ob.guards {
		switch s[g.key] {
		case gfHeldW:
			return true
		case gfHeldR:
			if !g.writeOnly && !ob.write {
				return true
			}
		}
	}
	return false
}

// gfDoomed reports whether every alternative guard is provably
// released: no caller can discharge the obligation either, so it is
// reported where it stands.
func gfDoomed(s gfState, ob gfObligation) bool {
	for _, g := range ob.guards {
		if s[g.key] != gfReleased {
			return false
		}
	}
	return true
}

func gfGuardNames(guards []gfGuard) string {
	parts := make([]string, 0, len(guards))
	for _, g := range guards {
		short := g.key
		if i := strings.LastIndex(short, "/"); i >= 0 {
			short = short[i+1:]
		}
		if i := strings.Index(short, "."); i >= 0 {
			short = short[i+1:]
		}
		if g.writeOnly {
			short += " (write-held)"
		}
		parts = append(parts, short)
	}
	return strings.Join(parts, " or ")
}

// gfResult is one unit's summary: the obligations its callers must
// discharge.
type gfResult struct {
	requires []gfObligation
}

type gfAnalyzer struct {
	u      *Unit
	units  []*flowUnit
	byFunc map[*types.Func]*flowUnit
	byBody map[*ast.BlockStmt]*flowUnit
	// memo holds the summaries; a recursive cycle assumes no
	// requirements for the back edge, as the summary passes do.
	memo summaryMemo[*gfResult]

	invoked map[*ast.BlockStmt]bool // literal bodies invoked (or deferred) directly
	goCalls map[*ast.CallExpr]bool  // the Call of every go statement
	calls   map[*types.Func]int     // static in-package call-position uses
	uses    map[*types.Func]int     // all in-package uses

	diags []Diagnostic
	seen  map[token.Pos]bool
}

// guardSummaries runs the summary walk once per Unit, over every flow
// unit in order.
func (u *Unit) guardSummaries() *gfAnalyzer {
	if u.summaries != nil {
		return u.summaries
	}
	a := &gfAnalyzer{
		u:       u,
		invoked: map[*ast.BlockStmt]bool{},
		goCalls: map[*ast.CallExpr]bool{},
		calls:   map[*types.Func]int{},
		uses:    map[*types.Func]int{},
		seen:    map[token.Pos]bool{},
	}
	a.memo = summaryMemo[*gfResult]{analyze: a.analyze, cycle: &gfResult{}}
	u.summaries = a
	a.units, a.byFunc, a.byBody = u.flowInfo()
	a.scanRefs()
	for _, fu := range a.units {
		a.memo.of(fu)
	}
	return a
}

func runGuardFlow(u *Unit) []Diagnostic {
	if !pathMatches(u.Pkg.ImportPath, u.Cfg.GuardflowPkgs) {
		return nil
	}
	a := u.guardSummaries()
	for _, fu := range a.units {
		if !a.isRoot(fu) {
			continue
		}
		for _, ob := range a.memo.of(fu).requires {
			a.reportObligation(ob)
		}
	}
	a.checkAtomics()
	a.checkCaptures()
	return a.diags
}

func (a *gfAnalyzer) report(pos token.Pos, format string, args ...any) {
	if a.seen[pos] {
		return
	}
	a.seen[pos] = true
	a.diags = append(a.diags, a.u.diag("guardflow", pos, format, args...))
}

func (a *gfAnalyzer) reportObligation(ob gfObligation) {
	if ob.via != "" {
		a.report(ob.pos, "call to %s reaches %s without %s held on this path; acquire the guard around the call, push it into the callee, or bless the root via Config.GuardExemptFuncs", ob.via, ob.desc, gfGuardNames(ob.guards))
		return
	}
	a.report(ob.pos, "%s without %s held on this path; acquire the guard, or bless the function via Config.GuardExemptFuncs if the object is provably unshared here", ob.desc, gfGuardNames(ob.guards))
}

// scanRefs walks the package once to classify literals (invoked vs
// root) and count named-function uses vs call-position uses (a use
// outside call position means unknown callers: the function is a root
// even if also called directly).
func (a *gfAnalyzer) scanRefs() {
	info := a.u.Pkg.Info
	for _, f := range a.u.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				a.goCalls[n.Call] = true
			case *ast.CallExpr:
				if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
					// A go-statement literal runs on a fresh lockset and
					// stays a root; anything else is checked inline at
					// its invocation site.
					if !a.goCalls[n] {
						a.invoked[lit.Body] = true
					}
				}
				if fn := calleeFunc(info, n); fn != nil {
					if _, inPkg := a.byFunc[fn]; inPkg {
						a.calls[fn]++
					}
				}
			case *ast.Ident:
				if fn, ok := info.Uses[n].(*types.Func); ok {
					if _, inPkg := a.byFunc[fn]; inPkg {
						a.uses[fn]++
					}
				}
			}
			return true
		})
	}
}

// isRoot reports whether fu's remaining obligations are reported here
// rather than propagated: no analyzable caller exists.
func (a *gfAnalyzer) isRoot(fu *flowUnit) bool {
	if fu.isClosure {
		return !a.invoked[fu.body]
	}
	if fu.fn == nil || fu.fn.Exported() {
		return true
	}
	if a.calls[fu.fn] == 0 {
		return true
	}
	// Address-taken: some use is not a direct call, so callers are
	// unknown (handler tables, method values).
	return a.uses[fu.fn] > a.calls[fu.fn]
}

// analyze walks one unit's lockset and collects the unmet obligations
// (none for a Config.GuardExemptFuncs function).
func (a *gfAnalyzer) analyze(fu *flowUnit) *gfResult {
	res := &gfResult{}
	if fu.fn != nil && inStringList(fu.qualifiedName(a.u.Pkg.ImportPath), a.u.Cfg.GuardExemptFuncs) {
		return res
	}
	fresh := a.freshLocals(fu)
	for _, h := range a.u.lockset(fu.body) {
		a.checkNode(h.n, h.held, fresh, res)
	}
	return res
}

// calleeUnit resolves a call to the in-package unit it runs — a named
// function or a directly invoked literal — and the name findings use.
func (a *gfAnalyzer) calleeUnit(call *ast.CallExpr) (*flowUnit, string) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return a.byBody[lit.Body], "the function literal"
	}
	if fn := calleeFunc(a.u.Pkg.Info, call); fn != nil {
		return a.byFunc[fn], fn.Name()
	}
	return nil, ""
}

// freshLocals approximates Eraser's virgin state: a local assigned
// from a composite literal or new() in this unit is not yet shared, so
// accesses through it need no guard. This is what keeps constructors
// and test builders quiet without blessing each by name.
func (a *gfAnalyzer) freshLocals(fu *flowUnit) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	info := a.u.Pkg.Info
	inspectShallow(fu.body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			rhs := ast.Unparen(as.Rhs[i])
			isFresh := false
			switch r := rhs.(type) {
			case *ast.CompositeLit:
				isFresh = true
			case *ast.UnaryExpr:
				if r.Op == token.AND {
					_, isFresh = ast.Unparen(r.X).(*ast.CompositeLit)
				}
			case *ast.CallExpr:
				if fid, ok := r.Fun.(*ast.Ident); ok && fid.Name == "new" {
					_, isFresh = info.Uses[fid].(*types.Builtin)
				}
			}
			if !isFresh {
				continue
			}
			var obj types.Object
			if as.Tok == token.DEFINE {
				obj = info.Defs[id]
			} else {
				obj = info.Uses[id]
			}
			if obj != nil {
				fresh[obj] = true
			}
		}
		return true
	})
	return fresh
}

// gfBaseIdent unwraps a selector/index/deref chain to its root
// identifier, or nil when the base is a call or other expression.
func gfBaseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

// fieldGuards resolves a selector to its GuardedFields entry.
func (a *gfAnalyzer) fieldGuards(sel *ast.SelectorExpr) (string, []gfGuard, bool) {
	s, ok := a.u.Pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", nil, false
	}
	named := namedTypeOf(s.Recv())
	if named == nil {
		return "", nil, false
	}
	key := qualifiedTypeName(named) + "." + sel.Sel.Name
	specs, ok := a.u.Cfg.GuardedFields[key]
	if !ok {
		return "", nil, false
	}
	return named.Obj().Name() + "." + sel.Sel.Name, gfParseGuards(specs), true
}

// checkNode checks every guarded-field access and in-package call in
// one CFG node against the lockset s.
func (a *gfAnalyzer) checkNode(n ast.Node, s gfState, fresh map[types.Object]bool, res *gfResult) {
	info := a.u.Pkg.Info

	// First sweep: which selectors are written?
	writes := map[*ast.SelectorExpr]bool{}
	markWrite := func(e ast.Expr) {
		if sel, ok := fieldSelection(info, e); ok {
			writes[sel] = true
		}
	}
	inspectShallow(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			for _, lhs := range m.Lhs {
				markWrite(lhs)
			}
		case *ast.IncDecStmt:
			markWrite(m.X)
		case *ast.UnaryExpr:
			if m.Op == token.AND {
				markWrite(m.X) // the address escapes: assume writes
			}
		case *ast.CallExpr:
			if id, ok := m.Fun.(*ast.Ident); ok && id.Name == "delete" && len(m.Args) > 0 {
				markWrite(m.Args[0]) // builtin delete mutates the map field
			}
		}
		return true
	})

	// Second sweep: every guarded selector is an access.
	inspectShallow(n, func(m ast.Node) bool {
		sel, ok := m.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fieldName, guards, ok := a.fieldGuards(sel)
		if !ok {
			return true
		}
		if base := gfBaseIdent(sel.X); base != nil {
			if obj := info.Uses[base]; obj != nil && fresh[obj] {
				return true
			}
			if obj := info.Defs[base]; obj != nil && fresh[obj] {
				return true
			}
		}
		kind := "read of"
		if writes[sel] {
			kind = "write to"
		}
		a.checkAccess(s, res, gfObligation{
			guards: guards,
			write:  writes[sel],
			pos:    sel.Pos(),
			desc:   fmt.Sprintf("%s %s", kind, fieldName),
		})
		return true
	})

	// Third sweep: calls whose callee carries obligations. A go
	// statement's callee runs on a fresh lockset, so its requirements
	// can never be met by the spawner — check against empty state.
	inspectShallow(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		state := s
		if a.goCalls[call] {
			if _, isLit := ast.Unparen(call.Fun).(*ast.FuncLit); isLit {
				return true // the literal is its own root
			}
			state = gfState{}
		}
		callee, name := a.calleeUnit(call)
		if callee == nil {
			return true
		}
		reqs := a.memo.of(callee).requires
		reported := map[string]bool{}
		for _, req := range reqs {
			ob := req
			ob.pos = call.Pos()
			ob.via = name
			sig := fmt.Sprintf("%v|%t|%s", ob.guards, ob.write, ob.desc)
			if reported[sig] {
				continue
			}
			reported[sig] = true
			a.checkAccess(state, res, ob)
		}
		return true
	})
}

// checkAccess discharges, dooms, or records one obligation. The
// position baked into desc survives propagation, so a root-level
// finding names the ultimate access site.
func (a *gfAnalyzer) checkAccess(s gfState, res *gfResult, ob gfObligation) {
	if gfSatisfied(s, ob) {
		return
	}
	if ob.via == "" && !strings.Contains(ob.desc, " at ") {
		ob.desc = fmt.Sprintf("%s at %s", ob.desc, a.shortPos(ob.pos))
	}
	if gfDoomed(s, ob) {
		if ob.via != "" {
			a.report(ob.pos, "call to %s reaches %s after %s was released: the critical section ended too early", ob.via, ob.desc, gfGuardNames(ob.guards))
		} else {
			a.report(ob.pos, "%s after %s was released: the critical section ended too early", ob.desc, gfGuardNames(ob.guards))
		}
		return
	}
	res.requires = append(res.requires, ob)
}

func (a *gfAnalyzer) shortPos(pos token.Pos) string {
	p := a.u.Pkg.Fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}

// --- atomic/plain mixing ---------------------------------------------

func gfIsAtomicType(t types.Type) bool {
	n, _ := t.(*types.Named)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// checkAtomics enforces the all-or-nothing atomic discipline per
// package: values of sync/atomic types only ever appear as method
// receivers, and fields passed to old-style atomic functions are never
// accessed plainly.
func (a *gfAnalyzer) checkAtomics() {
	info := a.u.Pkg.Info
	oldStyle := map[types.Object]string{} // field object → first atomic site
	sanctioned := map[ast.Node]bool{}     // receiver/arg exprs used through the atomic API

	for _, f := range a.u.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				sanctioned[ast.Unparen(sel.X)] = true
				return true
			}
			// Old-style atomic.AddInt64(&x.f, ...): the field joins the
			// atomic discipline; the &arg itself is sanctioned.
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				fsel, ok := fieldSelection(info, un.X)
				if !ok {
					continue
				}
				if s, ok := info.Selections[fsel]; ok {
					obj := s.Obj()
					if _, have := oldStyle[obj]; !have {
						oldStyle[obj] = a.shortPos(fsel.Pos())
					}
					sanctioned[fsel] = true
				}
			}
			return true
		})
	}

	for _, f := range a.u.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				s, ok := info.Selections[n]
				if !ok || s.Kind() != types.FieldVal || sanctioned[n] {
					return true
				}
				if gfIsAtomicType(info.TypeOf(n)) {
					a.report(n.Pos(), "field %s has a sync/atomic type but is used outside its atomic API here (copied, assigned, or aliased): every access must go through Load/Store/Add/Swap or the atomicity guarantee is lost", n.Sel.Name)
					return true
				}
				if site, mixed := oldStyle[s.Obj()]; mixed {
					a.report(n.Pos(), "field %s is accessed via sync/atomic (first at %s) but plainly here: a plain read or write races with every atomic site; use the atomic API everywhere", n.Sel.Name, site)
				}
			case *ast.IndexExpr:
				// e.credit[i] where credit is []atomic.Int64: the element
				// is the atomic value.
				if sanctioned[n] || !gfIsAtomicType(info.TypeOf(n)) {
					return true
				}
				if sel, ok := fieldSelection(info, n.X); ok {
					a.report(n.Pos(), "element of atomic field %s is used outside its atomic API here: every access must go through Load/Store/Add/Swap or the atomicity guarantee is lost", sel.Sel.Name)
				}
			}
			return true
		})
	}
}

// --- goroutine captures ----------------------------------------------

// checkCaptures flags enclosing-function locals captured by a
// go-statement literal and written concurrently: inside the body, or
// in the spawner after (or in a loop around) the spawn.
func (a *gfAnalyzer) checkCaptures() {
	for _, f := range a.u.Pkg.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if g, ok := n.(*ast.GoStmt); ok {
				if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
					a.checkCapture(g, lit, stack)
				}
			}
			stack = append(stack, n)
			return true
		})
	}
}

func (a *gfAnalyzer) checkCapture(g *ast.GoStmt, lit *ast.FuncLit, stack []ast.Node) {
	info := a.u.Pkg.Info

	// Enclosing function (for the blessing name and the write scan) and
	// nearest enclosing loop (writes anywhere in its body straddle the
	// spawn of every iteration).
	var encl ast.Node
	enclName := "func"
	var loop ast.Node
	for i := len(stack) - 1; i >= 0; i-- {
		switch s := stack[i].(type) {
		case *ast.FuncDecl:
			if encl == nil {
				encl, enclName = s, s.Name.Name
			}
		case *ast.FuncLit:
			if encl == nil {
				encl = s
			}
		case *ast.ForStmt, *ast.RangeStmt:
			if encl == nil && loop == nil {
				loop = s
			}
		}
	}
	if encl == nil {
		return
	}

	captured := map[*types.Var][]*ast.Ident{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // declared inside the literal
		}
		if v.Pos() < encl.Pos() || v.Pos() >= encl.End() {
			return true // package-level or outer-scope state, out of scope here
		}
		captured[v] = append(captured[v], id)
		return true
	})

	var vars []*types.Var
	for v := range captured {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Pos() < vars[j].Pos() })

	for _, v := range vars {
		if inStringList(a.u.Pkg.ImportPath+":"+enclName+"."+v.Name(), a.u.Cfg.GuardCaptureAllowed) {
			continue
		}
		if a.captureSafeType(v.Type()) {
			continue
		}
		if a.loopClauseVar(v, stack) {
			continue // per-iteration since go 1.22: each spawn captures its own copy
		}
		reason, racy := a.captureRaces(encl, lit, g, loop, v)
		if !racy {
			continue
		}
		use := captured[v][0]
		a.report(use.Pos(), "variable %s is captured by this goroutine and %s: share it through a channel, a guarded struct, or a sync type, copy it per iteration, or bless it via Config.GuardCaptureAllowed", v.Name(), reason)
	}
}

// captureSafeType reports whether values of t synchronize themselves:
// channels and funcs (invocation-only), sync/sync-atomic types, and
// pointers to structs that carry guarded fields or their own locks.
func (a *gfAnalyzer) captureSafeType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Chan, *types.Signature:
		return true
	}
	named := namedTypeOf(t)
	if named == nil {
		return false
	}
	if pkg := named.Obj().Pkg(); pkg != nil && (pkg.Path() == "sync" || pkg.Path() == "sync/atomic") {
		return true
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	prefix := qualifiedTypeName(named) + "."
	for key := range a.u.Cfg.GuardedFields {
		if strings.HasPrefix(key, prefix) {
			return true
		}
	}
	for i := 0; i < st.NumFields(); i++ {
		ft := namedTypeOf(st.Field(i).Type())
		if ft == nil {
			continue
		}
		if pkg := ft.Obj().Pkg(); pkg != nil && (pkg.Path() == "sync" || pkg.Path() == "sync/atomic") {
			return true
		}
	}
	return false
}

// loopClauseVar reports whether v is declared in the clause of an
// enclosing for/range statement — per-iteration variables under the
// go.mod language version (>= 1.22), so each goroutine sees its own.
func (a *gfAnalyzer) loopClauseVar(v *types.Var, stack []ast.Node) bool {
	for _, n := range stack {
		switch s := n.(type) {
		case *ast.ForStmt:
			if s.Init != nil && v.Pos() >= s.Init.Pos() && v.Pos() < s.Body.Pos() {
				return true
			}
		case *ast.RangeStmt:
			if v.Pos() >= s.Pos() && v.Pos() < s.Body.Pos() {
				return true
			}
		}
	}
	return false
}

// captureRaces looks for writes to v that straddle the spawn: inside
// the literal, after the go statement, or anywhere in a loop enclosing
// it (the next iteration writes while the last goroutine reads).
func (a *gfAnalyzer) captureRaces(encl ast.Node, lit *ast.FuncLit, g *ast.GoStmt, loop ast.Node, v *types.Var) (string, bool) {
	info := a.u.Pkg.Info
	writesV := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && info.Uses[id] == v
	}
	var inLit, after bool
	ast.Inspect(encl, func(n ast.Node) bool {
		pos := token.NoPos
		hit := false
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if writesV(lhs) {
					hit, pos = true, s.Pos()
				}
			}
		case *ast.IncDecStmt:
			if writesV(s.X) {
				hit, pos = true, s.Pos()
			}
		case *ast.UnaryExpr:
			if s.Op == token.AND && writesV(s.X) {
				hit, pos = true, s.Pos()
			}
		}
		if !hit {
			return true
		}
		switch {
		case pos >= lit.Pos() && pos < lit.End():
			inLit = true
		case pos > g.End():
			after = true
		case loop != nil && pos >= loop.Pos() && pos < loop.End():
			after = true
		}
		return true
	})
	switch {
	case inLit:
		return "written inside its body while remaining visible to the spawner", true
	case after:
		return "written by the spawner after (or in the loop around) the spawn", true
	}
	return "", false
}
