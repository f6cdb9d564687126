package lint

// moneyflow: path-sensitive e-penny conservation. The paper's economy
// is zero-sum — every send moves exactly one e-penny, so every debit of
// a conserved ledger field (balance, credit, avail) must be paired with
// an equal credit before the function returns, on every control-flow
// path. Anything else mints or destroys value. The only sanctioned
// mint/burn points are the bank exchange paths, listed in
// Config.MintFuncs.
//
// The pass runs one CFG dataflow per flow unit (function or literal);
// function literals are units of their own — the AP spec registers its
// whole economy as closures, labeled by their registration name. A
// path's fact is its net ledger delta, a multiset of canonical amount
// expressions with signed counts: `e.avail -= e.sellVal` adds
// ("e.sellVal", -1) and a later `e.avail += e.sellVal` cancels it. The
// state is the set of deltas reaching a point, each tagged with the
// error outcome of the last summarized call whose error the path bound;
// past mwMaxPaths distinct paths, or once a delta outgrows mwMaxTerms,
// the state widens to top ("cannot prove").
//
// A same-package call applies the callee's summary: its possible exit
// deltas, split by whether the path returned a nil error. A callee's
// delta composes onto the caller's by addition, with amounts that are
// the callee's own parameters renamed to the caller's arguments (a
// debit of `n` in `charge` is a debit of `k` at `charge(…, k, …)`).
// The result is tagged with the caller's error variable
// (`n, err := charge(…)`), and an `if err != nil` branch drops the
// combinations it rules out, so a callee's failure outcome does not
// leak into the caller's success path. Summaries are memoised bottom
// up; a recursive call and a blessed mint unit read as "nothing
// happens" (the empty delta).
//
// Reported at roots — closures, and functions no other unit in the
// package calls: every exit path, error exits included, whose net
// delta is not zero, and any delta the analysis cannot bound (it grows
// inside a loop). Direct assignments (`e.avail = x`) are
// initialization, not flow; the `account` field is real pennies — the
// open boundary where value enters and leaves the e-penny economy — so
// it is deliberately outside the conserved set.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"sort"
	"strings"
)

// MoneyFlow returns the e-penny conservation pass.
func MoneyFlow() Pass {
	return Pass{
		Name: "moneyflow",
		Doc:  "ledger debits must pair with equal credits on every path (e-penny conservation)",
		Run:  runMoneyFlow,
	}
}

const (
	// mwMaxTerms is the number of distinct amounts in one delta before
	// the state widens to top.
	mwMaxTerms = 8
	// mwMaxPaths is the number of distinct paths a state holds before
	// it widens to top.
	mwMaxPaths = 16
)

func runMoneyFlow(u *Unit) []Diagnostic {
	if !pathMatches(u.Pkg.ImportPath, u.Cfg.MoneyflowPkgs) {
		return nil
	}
	a := &mwAnalyzer{u: u}
	zero := newDeltaSet()
	a.memo = summaryMemo[*mwSummary]{
		analyze: a.analyze,
		cycle:   &mwSummary{ok: []*deltaSet{zero}, err: []*deltaSet{zero}},
	}
	called := map[*flowUnit]bool{}
	for _, callees := range u.callGraph() {
		for _, c := range callees {
			called[c] = true
		}
	}

	var out []Diagnostic
	seen := map[token.Pos]bool{}
	report := func(pos token.Pos, format string, args ...any) {
		if pos != 0 && !seen[pos] {
			seen[pos] = true
			out = append(out, u.diag("moneyflow", pos, format, args...))
		}
	}
	units, _, _ := u.flowInfo()
	for _, fu := range units {
		if !fu.isClosure && called[fu] || a.exempted(fu) {
			continue
		}
		sum := a.memo.of(fu)
		if sum.top {
			report(sum.topPos, "cannot prove e-penny conservation in %s: the net ledger delta is unbounded (grows across a loop); restructure or suppress with a reason", fu.name)
		}
		var residue []*deltaSet
		for _, d := range sum.exits {
			if d.size() > 0 {
				residue = append(residue, d)
			}
		}
		// Delta-key order decides which finding wins an anchor that two
		// exits share.
		sort.Slice(residue, func(i, j int) bool { return residue[i].key() < residue[j].key() })
		for _, d := range residue {
			report(d.firstPos(), "unbalanced e-penny flow in %s: a path can exit with net delta %s; pair the debit with an equal credit, or bless intentional mint/burn via Config.MintFuncs", fu.name, d.render())
		}
	}
	return out
}

// A deltaSet is one possible net ledger delta: canonical amount → signed
// count, with a representative source position per amount. Deltas are
// values: every operation returns a new one.
type deltaSet struct {
	net map[string]int64
	pos map[string]token.Pos
}

func newDeltaSet() *deltaSet {
	return &deltaSet{net: map[string]int64{}, pos: map[string]token.Pos{}}
}

func (d *deltaSet) clone() *deltaSet {
	return &deltaSet{net: maps.Clone(d.net), pos: maps.Clone(d.pos)}
}

// add returns a copy with coef×amt applied; fully cancelled amounts
// vanish so {-1, +1} and {} compare equal.
func (d *deltaSet) add(amt string, coef int64, pos token.Pos) *deltaSet {
	n := d.clone()
	n.net[amt] += coef
	if n.net[amt] == 0 {
		delete(n.net, amt)
		delete(n.pos, amt)
	} else if _, ok := n.pos[amt]; !ok || pos < n.pos[amt] {
		n.pos[amt] = pos
	}
	return n
}

// merge returns d ⊎ o.
func (d *deltaSet) merge(o *deltaSet) *deltaSet {
	n := d
	for amt, c := range o.net {
		n = n.add(amt, c, o.pos[amt])
	}
	return n
}

func (d *deltaSet) size() int { return len(d.net) }

// key identifies the delta: deltas with equal keys are one path.
func (d *deltaSet) key() string {
	terms := make([]string, 0, len(d.net))
	for amt, c := range d.net {
		terms = append(terms, fmt.Sprintf("%s*%d", amt, c))
	}
	sort.Strings(terms)
	return strings.Join(terms, "&")
}

// render prints the net delta for a finding message, e.g. "-1" or
// "-e.sellVal" or "+2*st.BuyValue".
func (d *deltaSet) render() string {
	terms := make([]string, 0, len(d.net))
	for amt, c := range d.net {
		t := amt
		switch {
		case isDecimal(amt) && abs64(c) != 1:
			t = fmt.Sprint(abs64(c) * atoi64(amt))
		case abs64(c) != 1:
			t = fmt.Sprintf("%d*%s", abs64(c), amt)
		}
		if c < 0 {
			t = "-" + t
		} else {
			t = "+" + t
		}
		terms = append(terms, t)
	}
	sort.Strings(terms)
	return strings.Join(terms, " ")
}

// firstPos is the earliest contributing source position, the anchor for
// the finding (and therefore for its suppression directive).
func (d *deltaSet) firstPos() token.Pos {
	var best token.Pos
	for _, p := range d.pos {
		if best == 0 || p < best {
			best = p
		}
	}
	return best
}

func isDecimal(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

func abs64(n int64) int64 {
	if n < 0 {
		return -n
	}
	return n
}

func atoi64(s string) int64 {
	var n int64
	for _, r := range s {
		n = n*10 + int64(r-'0')
	}
	return n
}

// An mwPath is one path in a state: its delta and the error-outcome tag
// of the last summarized call whose error it bound.
type mwPath struct {
	delta  *deltaSet
	errVar string // error variable the tag binds to ("" = untagged)
	errOut bool   // true: this path only happens when errVar != nil
}

func (p mwPath) key() string {
	tag := p.errVar
	if p.errOut {
		tag += "!"
	}
	return p.delta.key() + "|" + tag
}

// mwState is the dataflow fact: the possible paths by key, or top when
// the set could not be bounded.
type mwState struct {
	paths  map[string]mwPath
	top    bool
	topPos token.Pos
}

// mwWith returns the state holding paths, widened to top at pos when
// there are more than mwMaxPaths of them.
func mwWith(paths []mwPath, pos token.Pos) *mwState {
	n := &mwState{paths: make(map[string]mwPath, len(paths))}
	for _, p := range paths {
		n.paths[p.key()] = p
	}
	if len(n.paths) > mwMaxPaths {
		n.top, n.topPos = true, pos
	}
	return n
}

func mwTop(pos token.Pos) *mwState { return &mwState{top: true, topPos: pos} }

func mwJoin(a, b *mwState) *mwState {
	n := &mwState{
		paths:  make(map[string]mwPath, len(a.paths)+len(b.paths)),
		top:    a.top || b.top,
		topPos: a.topPos,
	}
	maps.Copy(n.paths, a.paths)
	maps.Copy(n.paths, b.paths)
	if !a.top && b.top {
		n.topPos = b.topPos
	}
	return n
}

func mwEqual(a, b *mwState) bool {
	if a.top != b.top || len(a.paths) != len(b.paths) {
		return false
	}
	for k := range a.paths {
		if _, ok := b.paths[k]; !ok {
			return false
		}
	}
	return true
}

// mwGate drops the paths whose error-outcome tag contradicts the
// branch: inside `if err != nil`, a path tagged "only when err == nil"
// is impossible, and vice versa.
func mwGate(s *mwState, errVar string, wantErr bool) *mwState {
	n := &mwState{paths: make(map[string]mwPath, len(s.paths)), top: s.top, topPos: s.topPos}
	for k, p := range s.paths {
		if p.errVar != errVar || p.errOut == wantErr {
			n.paths[k] = p
		}
	}
	return n
}

// An mwSummary is a unit's distinct exit deltas, tags dropped: every
// exit, and the nil-error and error exits separately (a naked return
// counts as both). top is set, at the first such exit, when some exit
// state was unbounded.
type mwSummary struct {
	exits, ok, err []*deltaSet
	top            bool
	topPos         token.Pos
}

// An mwEvent is one action inside a CFG node, in source order: a ledger
// delta of coef×amt, or (callee set) a call to an in-package unit whose
// summary applies.
type mwEvent struct {
	pos    token.Pos
	amt    string
	coef   int64
	callee *flowUnit
	args   []ast.Expr
	errVar string
}

type mwAnalyzer struct {
	u    *Unit
	memo summaryMemo[*mwSummary]
}

func (a *mwAnalyzer) exempted(fu *flowUnit) bool {
	return inStringList(fu.qualifiedName(a.u.Pkg.ImportPath), a.u.Cfg.MintFuncs)
}

// analyze computes one unit's summary from the states at its exits.
func (a *mwAnalyzer) analyze(fu *flowUnit) *mwSummary {
	if a.exempted(fu) {
		return a.memo.cycle
	}
	sum := &mwSummary{}
	lat := flowLattice[*mwState]{transfer: a.transfer, join: mwJoin, equal: mwEqual, gate: mwGate}
	entry := mwWith([]mwPath{{delta: newDeltaSet()}}, 0)
	flowExits(a.u.cfgOf(fu.body), entry, lat, func(s *mwState, ret *ast.ReturnStmt) {
		okOut, errOut := true, false
		if ret != nil {
			okOut, errOut = classifyReturnOutcome(fu.sig, ret)
		}
		if s.top {
			if !sum.top {
				sum.top, sum.topPos = true, s.topPos
			}
			return
		}
		for _, k := range slices.Sorted(maps.Keys(s.paths)) {
			d := s.paths[k].delta
			sum.exits = appendDelta(sum.exits, d)
			if okOut {
				sum.ok = appendDelta(sum.ok, d)
			}
			if errOut {
				sum.err = appendDelta(sum.err, d)
			}
		}
	})
	return sum
}

func appendDelta(list []*deltaSet, d *deltaSet) []*deltaSet {
	for _, x := range list {
		if x.key() == d.key() {
			return list
		}
	}
	return append(list, d)
}

// classifyReturnOutcome decides which error outcome a return statement
// represents: `return ..., nil` is the ok outcome, returning anything
// else in an error-typed last slot is the err outcome, and a naked
// return (or a non-error signature) could be either.
func classifyReturnOutcome(sig *types.Signature, ret *ast.ReturnStmt) (okOut, errOut bool) {
	if sig == nil || sig.Results().Len() == 0 {
		return true, false
	}
	last := sig.Results().At(sig.Results().Len() - 1)
	if !types.Identical(last.Type(), errorType) {
		return true, false
	}
	if len(ret.Results) == 0 {
		return true, true // naked return with named results: unknown
	}
	lastExpr := ast.Unparen(ret.Results[len(ret.Results)-1])
	if len(ret.Results) != sig.Results().Len() {
		return true, true // return f() passthrough: unknown
	}
	if id, ok := lastExpr.(*ast.Ident); ok && id.Name == "nil" {
		return true, false
	}
	return false, true
}

// transfer applies every event inside one CFG node.
func (a *mwAnalyzer) transfer(s *mwState, n ast.Node) *mwState {
	if s.top {
		return s
	}
	for _, ev := range a.events(n) {
		var next []mwPath
		if ev.callee == nil {
			for _, p := range s.paths {
				p.delta = p.delta.add(ev.amt, ev.coef, ev.pos)
				if p.delta.size() > mwMaxTerms {
					return mwTop(ev.pos)
				}
				next = append(next, p)
			}
		} else {
			sum := a.memo.of(ev.callee)
			if sum.top {
				return mwTop(ev.pos)
			}
			for i, deltas := range [][]*deltaSet{sum.ok, sum.err} {
				for _, base := range s.paths {
					for _, d := range deltas {
						p := mwPath{delta: base.delta.merge(a.bindArgs(d, ev.callee.sig, ev.args))}
						if ev.errVar != "" {
							p.errVar, p.errOut = ev.errVar, i == 1
						}
						if p.delta.size() > mwMaxTerms {
							return mwTop(ev.pos)
						}
						next = append(next, p)
					}
				}
			}
		}
		if s = mwWith(next, ev.pos); s.top {
			return s
		}
	}
	return s
}

// events extracts the ledger deltas of one statement or condition, in
// source order, without descending into function literals, plus a
// call event for every other in-package call, whose summary applies.
func (a *mwAnalyzer) events(n ast.Node) []mwEvent {
	info := a.u.Pkg.Info
	_, byFunc, _ := a.u.flowInfo()
	var events []mwEvent
	errVarOf := map[*ast.CallExpr]string{}
	inspectShallow(n, func(m ast.Node) bool {
		own, ok := a.scan(m)
		if ok {
			events = append(events, own)
		}
		switch m := m.(type) {
		case *ast.AssignStmt:
			// Remember `..., err := call(...)` so the call's event can
			// carry the error-outcome tag.
			if len(m.Rhs) == 1 {
				if call, isCall := ast.Unparen(m.Rhs[0]).(*ast.CallExpr); isCall {
					if id, isID := m.Lhs[len(m.Lhs)-1].(*ast.Ident); isID && id.Name != "_" {
						if tv := info.TypeOf(id); tv != nil && types.Identical(tv, errorType) {
							errVarOf[call] = id.Name
						}
					}
				}
			}
		case *ast.CallExpr:
			if target := byFunc[calleeFunc(info, m)]; target != nil && !ok {
				events = append(events, mwEvent{pos: m.Pos(), callee: target, args: m.Args, errVar: errVarOf[m]})
			}
		}
		return true
	})
	return events
}

// bindArgs renames the amounts of a callee's delta that are its own
// parameters to the caller's argument expressions, so a helper that
// debits its parameter n debits "1" at `charge(…, 1, …)` and "k" at
// `charge(…, k, …)`, and pairs with the caller's credit of the same.
func (a *mwAnalyzer) bindArgs(d *deltaSet, sig *types.Signature, args []ast.Expr) *deltaSet {
	if sig == nil || sig.Variadic() || sig.Params().Len() != len(args) {
		return d
	}
	var out *deltaSet
	for i := 0; i < len(args); i++ {
		name := sig.Params().At(i).Name()
		c, ok := d.net[name]
		if !ok || name == "_" {
			continue
		}
		if out == nil {
			out = d.clone()
		}
		amt, sign := canonAmount(a.u.Pkg.Info, args[i])
		pos := out.pos[name]
		delete(out.net, name)
		delete(out.pos, name)
		out = out.add(amt, sign*c, pos)
	}
	if out == nil {
		return d
	}
	return out
}

// scan returns the ledger delta at one AST node, if it makes one.
func (a *mwAnalyzer) scan(n ast.Node) (mwEvent, bool) {
	info := a.u.Pkg.Info
	fields := a.u.Cfg.MoneyFields
	switch n := n.(type) {
	case *ast.AssignStmt:
		if n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN {
			if sel, ok := isFieldNamed(info, n.Lhs[0], fields); ok {
				amt, sign := canonAmount(info, n.Rhs[0])
				if n.Tok == token.SUB_ASSIGN {
					sign = -sign
				}
				return mwEvent{pos: sel.Pos(), amt: amt, coef: sign}, true
			}
		}
	case *ast.IncDecStmt:
		if sel, ok := isFieldNamed(info, n.X, fields); ok {
			coef := int64(1)
			if n.Tok == token.DEC {
				coef = -1
			}
			return mwEvent{pos: sel.Pos(), amt: "1", coef: coef}, true
		}
	case *ast.CallExpr:
		if sel, arg, ok := atomicAddField(info, n, fields); ok {
			amt, sign := canonAmount(info, arg)
			return mwEvent{pos: sel.Pos(), amt: amt, coef: sign}, true
		}
	}
	return mwEvent{}, false
}
