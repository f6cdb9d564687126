package lint

// nonceflow: replay-protection taint analysis over the bank exchange
// path. The paper's Abstract Protocol makes every buy/sell exchange
// nonce-protected (§4.4): a replayed request must not move value twice.
// Two rules, both scoped to Config.NonceflowPkgs:
//
// Outbound: every construction of a bank request message
// (Config.NonceRequestTypes) must populate its nonce field, and the
// value must trace back — through local assignments inside the same
// function — to a draw from a nonce source (Config.NonceSourceFuncs,
// i.e. crypto.Source.Next or the spec's counter). A hardcoded or
// recycled nonce is a replayable request.
//
// Inbound: decoding a nonce- or seq-bearing message (an UnmarshalBinary
// call or a type assertion whose target struct has a nonce/seq field)
// taints the path. The taint must be cleared by a replay check — a
// branch condition that mentions a nonce/seq value — before any ledger
// mutation (a write to a Config.LedgerFields field, directly or via a
// same-package call). The check runs on the CFG, so a guard that only
// covers one branch still flags the unguarded path.
//
// Known limits, accepted for this tree: the guard test is syntactic
// (any condition naming a nonce/seq), and outbound taint does not chase
// values across function boundaries — both directions are pinned by
// fixtures.

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// NonceFlow returns the replay-protection pass.
func NonceFlow() Pass {
	return Pass{
		Name: "nonceflow",
		Doc:  "bank requests carry fresh crypto.Source nonces; handlers replay-check before mutating the ledger",
		Run:  runNonceFlow,
	}
}

// nonceState is the set of decode sites whose replay check has not yet
// happened on this path: position → decoded type name.
type nonceState map[token.Pos]string

func nfJoin(a, b nonceState) nonceState {
	n := make(nonceState, len(a)+len(b))
	for k, v := range a {
		n[k] = v
	}
	for k, v := range b {
		n[k] = v
	}
	return n
}

func nfEqual(a, b nonceState) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

type nfAnalyzer struct {
	u       *Unit
	byFunc  map[*types.Func]*flowUnit
	mutates map[*flowUnit]bool
}

func runNonceFlow(u *Unit) []Diagnostic {
	if !pathMatches(u.Pkg.ImportPath, u.Cfg.NonceflowPkgs) {
		return nil
	}
	units, byFunc, _ := u.flowInfo()
	a := &nfAnalyzer{u: u, byFunc: byFunc}
	a.computeMutates(units)

	var out []Diagnostic
	seen := map[token.Pos]bool{}
	report := func(pos token.Pos, format string, args ...any) {
		if pos == 0 || seen[pos] {
			return
		}
		seen[pos] = true
		out = append(out, u.diag("nonceflow", pos, format, args...))
	}

	for _, fu := range units {
		a.checkOutbound(fu, report)
		a.checkInbound(fu, report)
	}
	return out
}

// computeMutates marks every unit that writes a ledger field, directly
// or through same-package calls (transitively, to a fixpoint). It is a
// fixpoint rather than the summary memo: the memo's optimistic cycle
// value would leave a unit unmarked whose mutual-recursion partner is
// the one that mutates.
func (a *nfAnalyzer) computeMutates(units []*flowUnit) {
	a.mutates = make(map[*flowUnit]bool, len(units))
	for _, fu := range units {
		a.mutates[fu] = a.directMutation(fu.body) != 0
	}
	calls := a.u.callGraph()
	for changed := true; changed; {
		changed = false
		for _, fu := range units {
			if !a.mutates[fu] && slices.ContainsFunc(calls[fu], func(c *flowUnit) bool { return a.mutates[c] }) {
				a.mutates[fu] = true
				changed = true
			}
		}
	}
}

// directMutation returns the position of the first ledger-field write
// inside n (0 if none). Unlike moneyflow, plain assignment counts: any
// overwrite after an unchecked decode is replay-exploitable.
func (a *nfAnalyzer) directMutation(n ast.Node) token.Pos {
	info := a.u.Pkg.Info
	fields := a.u.Cfg.LedgerFields
	var pos token.Pos
	inspectShallow(n, func(m ast.Node) bool {
		if pos != 0 {
			return false
		}
		switch m := m.(type) {
		case *ast.AssignStmt:
			if m.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range m.Lhs {
				if sel, ok := isFieldNamed(info, lhs, fields); ok {
					pos = sel.Pos()
					return false
				}
			}
		case *ast.IncDecStmt:
			if sel, ok := isFieldNamed(info, m.X, fields); ok {
				pos = sel.Pos()
				return false
			}
		case *ast.CallExpr:
			if sel, _, ok := atomicAddField(info, m, fields); ok {
				pos = sel.Pos()
				return false
			}
		}
		return true
	})
	return pos
}

// mutationIn reports the first ledger mutation inside one CFG node,
// including mutations reached through same-package calls.
func (a *nfAnalyzer) mutationIn(n ast.Node) token.Pos {
	if pos := a.directMutation(n); pos != 0 {
		return pos
	}
	var pos token.Pos
	inspectShallow(n, func(m ast.Node) bool {
		if pos != 0 {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok {
			if fn := calleeFunc(a.u.Pkg.Info, call); fn != nil {
				if target, ok := a.byFunc[fn]; ok && a.mutates[target] {
					pos = call.Pos()
					return false
				}
			}
		}
		return true
	})
	return pos
}

// replayProtectedType reports whether t is a named struct carrying a
// nonce or sequence field — the message shapes whose decode demands a
// replay check.
func replayProtectedType(t types.Type) (string, bool) {
	n := namedTypeOf(t)
	if n == nil {
		return "", false
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return "", false
	}
	for i := 0; i < st.NumFields(); i++ {
		name := strings.ToLower(st.Field(i).Name())
		if strings.Contains(name, "nonce") || strings.Contains(name, "seq") {
			return n.Obj().Name(), true
		}
	}
	return "", false
}

// anchorsIn finds the decode anchors inside one CFG node: calls to
// UnmarshalBinary on a replay-protected type, and type assertions (or
// type-switch case types — the node is then the type expression) to
// one.
func (a *nfAnalyzer) anchorsIn(n ast.Node) []struct {
	pos  token.Pos
	name string
} {
	info := a.u.Pkg.Info
	var anchors []struct {
		pos  token.Pos
		name string
	}
	add := func(pos token.Pos, name string) {
		anchors = append(anchors, struct {
			pos  token.Pos
			name string
		}{pos, name})
	}
	if e, ok := n.(ast.Expr); ok {
		if tv, ok := info.Types[e]; ok && tv.IsType() {
			if name, ok := replayProtectedType(tv.Type); ok {
				add(e.Pos(), name)
			}
			return anchors
		}
	}
	inspectShallow(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(m.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "UnmarshalBinary" {
				if name, ok := replayProtectedType(info.TypeOf(sel.X)); ok {
					add(m.Pos(), name)
				}
			}
		case *ast.TypeAssertExpr:
			if m.Type != nil {
				if name, ok := replayProtectedType(info.TypeOf(m.Type)); ok {
					add(m.Pos(), name)
				}
			}
		}
		return true
	})
	return anchors
}

// mentionsReplayCheck reports whether a condition expression inspects a
// nonce or sequence value — the syntactic shape of a replay guard.
func mentionsReplayCheck(e ast.Expr) bool {
	found := false
	inspectShallow(e, func(m ast.Node) bool {
		if found {
			return false
		}
		var name string
		switch m := m.(type) {
		case *ast.Ident:
			name = m.Name
		default:
			return true
		}
		lower := strings.ToLower(name)
		if strings.Contains(lower, "nonce") || strings.Contains(lower, "seq") {
			found = true
			return false
		}
		return true
	})
	return found
}

// nfTransfer is the dataflow transfer function; emit, when non-nil,
// receives (mutation position, outstanding anchors) for findings.
func (a *nfAnalyzer) nfTransfer(s nonceState, n ast.Node, emit func(token.Pos, nonceState)) nonceState {
	anchors := a.anchorsIn(n)
	if len(anchors) > 0 {
		next := make(nonceState, len(s)+len(anchors))
		for k, v := range s {
			next[k] = v
		}
		for _, anc := range anchors {
			next[anc.pos] = anc.name
		}
		s = next
	}
	if len(s) > 0 && emit != nil {
		if pos := a.mutationIn(n); pos != 0 {
			emit(pos, s)
		}
	}
	if e, ok := n.(ast.Expr); ok {
		if tv, tok := a.u.Pkg.Info.Types[e]; (!tok || !tv.IsType()) && mentionsReplayCheck(e) {
			return nonceState{}
		}
	}
	return s
}

// checkInbound runs the replay-check dataflow over one unit.
func (a *nfAnalyzer) checkInbound(fu *flowUnit, report func(token.Pos, string, ...any)) {
	// Fast path: no anchors anywhere, nothing to do.
	hasAnchor := false
	inspectShallow(fu.body, func(n ast.Node) bool {
		if hasAnchor {
			return false
		}
		if len(a.anchorsIn(n)) > 0 {
			// anchorsIn descends itself; stopping here is fine.
			hasAnchor = true
			return false
		}
		return true
	})
	if !hasAnchor {
		return
	}

	g := a.u.cfgOf(fu.body)
	lat := flowLattice[nonceState]{
		transfer: func(s nonceState, n ast.Node) nonceState { return a.nfTransfer(s, n, nil) },
		join:     nfJoin,
		equal:    nfEqual,
	}
	in := forwardFlow(g, nonceState{}, lat)

	for _, blk := range g.reversePostorder() {
		s, ok := in[blk]
		if !ok {
			continue
		}
		for _, n := range blk.nodes {
			s = a.nfTransfer(s, n, func(pos token.Pos, dirty nonceState) {
				names := make([]string, 0, len(dirty))
				for _, v := range dirty {
					names = append(names, v)
				}
				sort.Strings(names)
				names = dedupStrings(names)
				report(pos, "ledger mutation in %s is reachable after decoding %s with no replay check on this path; a replayed message would re-apply it — compare the nonce/seq first", fu.name, strings.Join(names, ", "))
			})
		}
	}
}

// checkOutbound verifies every request-message construction in the
// unit: nonce field present, value traced to a nonce source.
func (a *nfAnalyzer) checkOutbound(fu *flowUnit, report func(token.Pos, string, ...any)) {
	info := a.u.Pkg.Info
	inspectShallow(fu.body, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		named := namedTypeOf(info.TypeOf(lit))
		if named == nil || !inStringList(qualifiedTypeName(named), a.u.Cfg.NonceRequestTypes) {
			return true
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			return true
		}
		nonceVal := nonceFieldValue(st, lit)
		if nonceVal == nil {
			report(lit.Pos(), "outbound %s is constructed without its nonce field; bank requests must carry a fresh crypto.Source nonce for replay protection", named.Obj().Name())
			return true
		}
		if !a.tainted(fu, nonceVal, 4) {
			report(nonceVal.Pos(), "nonce for outbound %s is %s, which does not derive from a nonce source (crypto.Source); a fixed or recycled nonce makes the request replayable", named.Obj().Name(), types.ExprString(nonceVal))
		}
		return true
	})
}

// nonceFieldValue extracts the expression assigned to the struct's
// nonce field in a composite literal, keyed or positional.
func nonceFieldValue(st *types.Struct, lit *ast.CompositeLit) ast.Expr {
	isNonce := func(name string) bool {
		return strings.Contains(strings.ToLower(name), "nonce")
	}
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && isNonce(id.Name) {
				return kv.Value
			}
			continue
		}
		if i < st.NumFields() && isNonce(st.Field(i).Name()) {
			return elt
		}
	}
	return nil
}

// tainted walks local assignments backwards (up to depth hops) asking
// whether e ultimately comes from a configured nonce source.
func (a *nfAnalyzer) tainted(fu *flowUnit, e ast.Expr, depth int) bool {
	if depth == 0 {
		return false
	}
	info := a.u.Pkg.Info
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
			continue
		case *ast.UnaryExpr:
			e = x.X
			continue
		case *ast.CallExpr:
			if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
				e = x.Args[0] // conversion
				continue
			}
			fn := calleeFunc(info, x)
			if fn == nil || fn.Pkg() == nil {
				return false
			}
			return inStringList(fn.Pkg().Path()+"."+fn.Name(), a.u.Cfg.NonceSourceFuncs)
		}
		break
	}

	match := func(lhs ast.Expr) bool {
		switch target := e.(type) {
		case *ast.Ident:
			id, ok := lhs.(*ast.Ident)
			return ok && info.ObjectOf(id) != nil && info.ObjectOf(id) == info.ObjectOf(target)
		case *ast.SelectorExpr:
			sel, ok := lhs.(*ast.SelectorExpr)
			return ok && types.ExprString(sel) == types.ExprString(target)
		}
		return false
	}
	if _, isIdent := e.(*ast.Ident); !isIdent {
		if _, isSel := e.(*ast.SelectorExpr); !isSel {
			return false
		}
	}

	found := false
	inspectShallow(fu.body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if !match(lhs) {
					continue
				}
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					rhs = n.Rhs[0]
				}
				if rhs != nil && a.tainted(fu, rhs, depth-1) {
					found = true
					return false
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if !match(ast.Expr(name)) || i >= len(n.Values) {
					continue
				}
				if a.tainted(fu, n.Values[i], depth-1) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

func dedupStrings(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || sorted[i-1] != s {
			out = append(out, s)
		}
	}
	return out
}
