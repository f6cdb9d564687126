package lint

// moneyflow: path-sensitive e-penny conservation. The paper's economy
// is zero-sum — every send moves exactly one e-penny, so every debit of
// a conserved ledger field (balance, credit, avail) must be paired with
// an equal credit before the function returns, on every control-flow
// path. Anything else mints or destroys value. The only sanctioned
// mint/burn points are the bank exchange paths, listed in
// Config.MintFuncs.
//
// The analysis runs one CFG dataflow per function (and per function
// literal — the AP spec registers its whole economy as closures, so
// literals are first-class units labeled by their registration name).
// The state is a set of possible net ledger deltas along the paths
// reaching a point, where a delta is a multiset of canonical amount
// expressions with signed counts: `e.avail -= e.sellVal` adds
// ("e.sellVal", -1) and a later `e.avail += e.sellVal` cancels it.
// Same-package calls apply the callee's summary (its possible exit
// deltas) interprocedurally, with amounts that are the callee's own
// parameters renamed to the caller's arguments (a debit of `n` in
// `charge` is a debit of `k` at `charge(…, k, …)`), split by error
// outcome: sets produced by a
// callee's `return ..., <err>` paths are tagged with the caller's error
// variable, and an `if err != nil` branch filters the impossible
// combination — so `n, err := charge(); if err != nil { return }` does
// not leak charge's failure outcome into the success path.
//
// Reported at a root (a function no other function in the package
// calls, or any closure): every return path whose net delta is not
// zero, and any delta the analysis cannot bound (it grows inside a
// loop). Direct assignments (`e.avail = x`) are initialization, not
// flow, and are ledgerguard's concern; the `account` field is real
// pennies — the open boundary where value enters and leaves the
// e-penny economy — so it is deliberately outside the conserved set.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
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
	mwMaxSets  = 16 // distinct per-path deltas before widening to top
	mwMaxTerms = 8  // distinct amounts in one delta before widening
)

// A deltaSet is one possible net ledger delta: canonical amount → signed
// count, with a representative source position per amount and an
// optional error-outcome tag from the most recent summarized call.
type deltaSet struct {
	net map[string]int64
	pos map[string]token.Pos

	errVar     string // error variable the outcome tag binds to ("" = untagged)
	errOutcome bool   // true: this delta only happens when errVar != nil
}

func newDeltaSet() *deltaSet {
	return &deltaSet{net: map[string]int64{}, pos: map[string]token.Pos{}}
}

func (d *deltaSet) clone() *deltaSet {
	n := &deltaSet{
		net: make(map[string]int64, len(d.net)),
		pos: make(map[string]token.Pos, len(d.pos)),

		errVar:     d.errVar,
		errOutcome: d.errOutcome,
	}
	for k, v := range d.net {
		n.net[k] = v
	}
	for k, v := range d.pos {
		n.pos[k] = v
	}
	return n
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

// merge returns d ⊎ o (summary application), keeping o's tag semantics
// to the caller.
func (d *deltaSet) merge(o *deltaSet) *deltaSet {
	n := d.clone()
	for amt, c := range o.net {
		n.net[amt] += c
		if n.net[amt] == 0 {
			delete(n.net, amt)
			delete(n.pos, amt)
			continue
		}
		if p, ok := o.pos[amt]; ok {
			if q, have := n.pos[amt]; !have || p < q {
				n.pos[amt] = p
			}
		}
	}
	return n
}

func (d *deltaSet) zero() bool { return len(d.net) == 0 }

// key is the canonical identity used for state-set dedup.
func (d *deltaSet) key() string {
	terms := make([]string, 0, len(d.net))
	for amt, c := range d.net {
		terms = append(terms, fmt.Sprintf("%s*%d", amt, c))
	}
	sort.Strings(terms)
	tag := ""
	if d.errVar != "" {
		tag = d.errVar
		if d.errOutcome {
			tag += "!"
		}
	}
	return strings.Join(terms, "&") + "|" + tag
}

// render prints the net delta for a finding message, e.g. "-1" or
// "-e.sellVal" or "+2*st.BuyValue".
func (d *deltaSet) render() string {
	terms := make([]string, 0, len(d.net))
	for amt, c := range d.net {
		var t string
		switch {
		case isDecimal(amt) && (c == 1 || c == -1):
			t = amt
		case c == 1 || c == -1:
			t = amt
		default:
			t = fmt.Sprintf("%d*%s", abs64(c), amt)
		}
		if isDecimal(amt) && abs64(c) != 1 {
			t = fmt.Sprintf("%d", abs64(c)*atoi64(amt))
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

// moneyState is the dataflow fact: the set of possible deltas, or top
// when the set could not be bounded.
type moneyState struct {
	sets   map[string]*deltaSet
	top    bool
	topPos token.Pos
}

func mwEntryState() *moneyState {
	e := newDeltaSet()
	return &moneyState{sets: map[string]*deltaSet{e.key(): e}}
}

func (s *moneyState) withSets(sets []*deltaSet, capPos token.Pos) *moneyState {
	n := &moneyState{sets: map[string]*deltaSet{}, top: s.top, topPos: s.topPos}
	for _, d := range sets {
		n.sets[d.key()] = d
	}
	if len(n.sets) > mwMaxSets && !n.top {
		n.top, n.topPos = true, capPos
	}
	return n
}

func mwJoin(a, b *moneyState) *moneyState {
	n := &moneyState{sets: make(map[string]*deltaSet, len(a.sets)+len(b.sets))}
	for k, v := range a.sets {
		n.sets[k] = v
	}
	for k, v := range b.sets {
		n.sets[k] = v
	}
	n.top = a.top || b.top
	n.topPos = a.topPos
	if !a.top && b.top {
		n.topPos = b.topPos
	}
	return n
}

func mwEqual(a, b *moneyState) bool {
	if a.top != b.top || len(a.sets) != len(b.sets) {
		return false
	}
	for k := range a.sets {
		if _, ok := b.sets[k]; !ok {
			return false
		}
	}
	return true
}

// mwGate drops deltas whose error-outcome tag contradicts the branch:
// inside `if err != nil`, deltas tagged "only when err == nil" are
// impossible, and vice versa.
func mwGate(s *moneyState, errVar string, wantErr bool) *moneyState {
	n := &moneyState{sets: make(map[string]*deltaSet, len(s.sets)), top: s.top, topPos: s.topPos}
	for k, d := range s.sets {
		if d.errVar == errVar && d.errOutcome != wantErr {
			continue
		}
		n.sets[k] = d
	}
	return n
}

// mwSummary is a callee's possible exit deltas, split by whether the
// path returned a nil error.
type mwSummary struct {
	ok, err []*deltaSet
	top     bool
	topPos  token.Pos
}

// mwResult is the full per-unit analysis product: the summary for
// callers plus every exit delta for findings.
type mwResult struct {
	sum    *mwSummary
	exits  []*deltaSet
	top    bool
	topPos token.Pos
}

// mwEvent is one ledger-relevant action inside a statement, in source
// order: a field delta or a call that may carry a summary.
type mwEvent struct {
	isCall  bool
	amt     string
	coef    int64
	pos     token.Pos
	callee  *types.Func
	args    []ast.Expr
	errVar  string
	callPos token.Pos
}

type mwAnalyzer struct {
	u       *Unit
	byFunc  map[*types.Func]*flowUnit
	results map[*flowUnit]*mwResult
	busy    map[*flowUnit]bool
	errType types.Type
}

func runMoneyFlow(u *Unit) []Diagnostic {
	if !pathMatches(u.Pkg.ImportPath, u.Cfg.MoneyflowPkgs) {
		return nil
	}
	units, byFunc, _ := u.flowInfo()
	a := &mwAnalyzer{
		u:       u,
		byFunc:  byFunc,
		results: map[*flowUnit]*mwResult{},
		busy:    map[*flowUnit]bool{},
		errType: types.Universe.Lookup("error").Type(),
	}

	// A unit with an in-package caller is not a root: its residual is
	// the caller's to absorb (or report). Closures are always roots —
	// nothing calls them by name.
	called := map[*flowUnit]bool{}
	for _, fu := range units {
		fu := fu
		inspectShallow(fu.body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := calleeFunc(u.Pkg.Info, call); fn != nil {
				if target, ok := a.byFunc[fn]; ok && target != fu {
					called[target] = true
				}
			}
			return true
		})
	}

	var out []Diagnostic
	seen := map[token.Pos]bool{}
	report := func(pos token.Pos, format string, args ...any) {
		if pos == 0 || seen[pos] {
			return
		}
		seen[pos] = true
		out = append(out, a.u.diag("moneyflow", pos, format, args...))
	}

	for _, fu := range units {
		if fu.isClosure || !called[fu] {
			if a.blessed(fu) {
				continue
			}
			res := a.resultOf(fu)
			if res.top {
				report(res.topPos, "cannot prove e-penny conservation in %s: the net ledger delta is unbounded (grows across a loop); restructure or suppress with a reason", fu.name)
			}
			sorted := make([]*deltaSet, 0, len(res.exits))
			for _, d := range res.exits {
				if !d.zero() {
					sorted = append(sorted, d)
				}
			}
			sort.Slice(sorted, func(i, j int) bool { return sorted[i].key() < sorted[j].key() })
			for _, d := range sorted {
				report(d.firstPos(), "unbalanced e-penny flow in %s: a path can exit with net delta %s; pair the debit with an equal credit, or bless intentional mint/burn via Config.MintFuncs", fu.name, d.render())
			}
		}
	}
	return out
}

func (a *mwAnalyzer) blessed(fu *flowUnit) bool {
	return inStringList(fu.qualifiedName(a.u.Pkg.ImportPath), a.u.Cfg.MintFuncs)
}

// zeroResult is the summary of a blessed or recursive unit: no
// observable delta (for blessed mint/burn points, conservation is
// intentionally broken and accepted there, not propagated).
func zeroMwResult() *mwResult {
	return &mwResult{sum: &mwSummary{ok: []*deltaSet{newDeltaSet()}, err: []*deltaSet{newDeltaSet()}}}
}

func (a *mwAnalyzer) resultOf(fu *flowUnit) *mwResult {
	if r, ok := a.results[fu]; ok {
		return r
	}
	if a.busy[fu] || a.blessed(fu) {
		return zeroMwResult()
	}
	a.busy[fu] = true
	r := a.analyze(fu)
	a.busy[fu] = false
	a.results[fu] = r
	return r
}

func (a *mwAnalyzer) analyze(fu *flowUnit) *mwResult {
	g := a.u.cfgOf(fu.body)
	lat := flowLattice[*moneyState]{
		transfer: func(s *moneyState, n ast.Node) *moneyState { return a.transfer(s, n) },
		join:     mwJoin,
		equal:    mwEqual,
		gate:     mwGate,
	}
	in := forwardFlow(g, mwEntryState(), lat)

	res := &mwResult{sum: &mwSummary{}}
	addExit := func(s *moneyState, okOutcome, errOutcome bool) {
		if s.top {
			if !res.top {
				res.top, res.topPos = true, s.topPos
			}
			res.sum.top, res.sum.topPos = true, s.topPos
			return
		}
		keys := make([]string, 0, len(s.sets))
		for k := range s.sets {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			d := s.sets[k].clone()
			d.errVar, d.errOutcome = "", false
			res.exits = appendUniqueDelta(res.exits, d)
			if okOutcome {
				res.sum.ok = appendUniqueDelta(res.sum.ok, d)
			}
			if errOutcome {
				res.sum.err = appendUniqueDelta(res.sum.err, d)
			}
		}
	}

	for _, blk := range g.reversePostorder() {
		s, ok := in[blk]
		if !ok {
			continue
		}
		endsInReturn := false
		endsInPanic := false
		for _, n := range blk.nodes {
			s = a.transfer(s, n)
			switch n := n.(type) {
			case *ast.ReturnStmt:
				okOut, errOut := a.classifyReturn(fu, n)
				addExit(s, okOut, errOut)
				endsInReturn = true
			case *ast.ExprStmt:
				if isPanicCall(n.X) {
					endsInPanic = true
				}
			}
		}
		if endsInReturn || endsInPanic {
			continue
		}
		for _, succ := range blk.succs {
			if succ == g.exit {
				// Falling off the end of the body: a nil-error outcome.
				addExit(s, true, false)
				break
			}
		}
	}
	return res
}

// classifyReturn decides which error outcome a return statement
// represents: `return ..., nil` is the ok outcome, returning anything
// else in an error-typed last slot is the err outcome, and a naked
// return (or a non-error signature) could be either.
func (a *mwAnalyzer) classifyReturn(fu *flowUnit, ret *ast.ReturnStmt) (okOut, errOut bool) {
	sig := fu.sig
	if sig == nil || sig.Results().Len() == 0 {
		return true, false
	}
	last := sig.Results().At(sig.Results().Len() - 1)
	if !types.Identical(last.Type(), a.errType) {
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

func appendUniqueDelta(list []*deltaSet, d *deltaSet) []*deltaSet {
	for _, x := range list {
		if x.key() == d.key() {
			return list
		}
	}
	return append(list, d)
}

// transfer applies every ledger event inside one CFG node.
func (a *mwAnalyzer) transfer(s *moneyState, n ast.Node) *moneyState {
	if s.top {
		return s
	}
	events := a.scanNode(n)
	for _, ev := range events {
		if s.top {
			return s
		}
		if !ev.isCall {
			next := make([]*deltaSet, 0, len(s.sets))
			for _, d := range s.sets {
				nd := d.add(ev.amt, ev.coef, ev.pos)
				if len(nd.net) > mwMaxTerms {
					return &moneyState{top: true, topPos: ev.pos}
				}
				next = append(next, nd)
			}
			s = s.withSets(next, ev.pos)
			continue
		}
		target, ok := a.byFunc[ev.callee]
		if !ok {
			continue // out-of-package or dynamic: no ledger effect assumed
		}
		sum := a.resultOf(target).sum
		if sum.top {
			return &moneyState{top: true, topPos: ev.callPos}
		}
		var next []*deltaSet
		topped := false
		apply := func(callee []*deltaSet, errOutcome bool) {
			for _, base := range s.sets {
				for _, d := range callee {
					m := base.merge(a.bindArgs(d, target.sig, ev.args))
					if ev.errVar != "" {
						m.errVar, m.errOutcome = ev.errVar, errOutcome
					} else {
						m.errVar, m.errOutcome = "", false
					}
					if len(m.net) > mwMaxTerms {
						topped = true
						return
					}
					next = append(next, m)
				}
			}
		}
		apply(sum.ok, false)
		if !topped {
			apply(sum.err, true)
		}
		if topped {
			return &moneyState{top: true, topPos: ev.callPos}
		}
		s = s.withSets(next, ev.callPos)
	}
	return s
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

// scanNode extracts the ledger events of one statement or condition, in
// source order, without descending into function literals.
func (a *mwAnalyzer) scanNode(n ast.Node) []mwEvent {
	info := a.u.Pkg.Info
	fields := a.u.Cfg.MoneyFields
	var events []mwEvent
	errVarOf := map[*ast.CallExpr]string{}
	inspectShallow(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			switch m.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN:
				if sel, ok := isFieldNamed(info, m.Lhs[0], fields); ok {
					amt, sign := canonAmount(info, m.Rhs[0])
					if m.Tok == token.SUB_ASSIGN {
						sign = -sign
					}
					events = append(events, mwEvent{amt: amt, coef: sign, pos: sel.Pos()})
				}
			case token.ASSIGN, token.DEFINE:
				// Remember `..., err := call(...)` so the call event can
				// carry the error-outcome tag.
				if len(m.Rhs) == 1 {
					if call, ok := ast.Unparen(m.Rhs[0]).(*ast.CallExpr); ok {
						if id, ok := m.Lhs[len(m.Lhs)-1].(*ast.Ident); ok && id.Name != "_" {
							if tv := info.TypeOf(id); tv != nil && types.Identical(tv, a.errType) {
								errVarOf[call] = id.Name
							}
						}
					}
				}
			}
		case *ast.IncDecStmt:
			if sel, ok := isFieldNamed(info, m.X, fields); ok {
				coef := int64(1)
				if m.Tok == token.DEC {
					coef = -1
				}
				events = append(events, mwEvent{amt: "1", coef: coef, pos: sel.Pos()})
			}
		case *ast.CallExpr:
			if sel, arg, ok := atomicAddField(info, m, fields); ok {
				amt, sign := canonAmount(info, arg)
				events = append(events, mwEvent{amt: amt, coef: sign, pos: sel.Pos()})
				return true
			}
			if fn := calleeFunc(info, m); fn != nil {
				events = append(events, mwEvent{
					isCall: true, callee: fn, args: m.Args,
					errVar: errVarOf[m], callPos: m.Pos(),
				})
			}
		}
		return true
	})
	return events
}
