package lint

// pathflow: the path-set summary engine behind moneyflow and walflow.
// Both passes ask one question of every function body — what can a
// path carry to an exit — and differ only in what a path carries: a
// net ledger delta, or the WAL-logged fields mutated since the last
// append. The engine runs one CFG dataflow per flow unit (function or
// literal). Its state is the set of per-path facts reaching a point,
// each tagged with the error outcome of the last summarized call whose
// error the path bound; past pfMaxSets distinct paths, or once a fact
// outgrows the pass's cap, the state widens to top ("cannot prove").
//
// A same-package call applies the callee's summary: its possible exit
// facts, split by whether the path returned a nil error. The pass says
// how a callee fact composes onto the caller's; the engine tags the
// result with the caller's error variable (`n, err := charge(…)`), and
// an `if err != nil` branch drops the combinations it rules out, so a
// callee's failure outcome does not leak into the caller's success
// path. Summaries are memoised bottom-up; a recursive call and a unit
// on the pass's exempt list read as "nothing happens" (the zero fact).
//
// Findings are reported at roots — closures, and functions no other
// unit in the package calls: any unbounded state, and every reported
// exit whose fact is non-empty.

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"sort"
)

// pfMaxSets is the number of distinct paths a state holds before it
// widens to top.
const pfMaxSets = 16

// A pathFact is what a summary pass tracks along one path. Facts are
// values: a pass builds new ones and never mutates one it has handed
// to the engine.
type pathFact interface {
	key() string         // identity: facts with equal keys are one path
	size() int           // 0: nothing to report; past the pass's cap: top
	render() string      // the fact in a finding message
	firstPos() token.Pos // the finding's anchor
}

// A pathPass is what a summary pass supplies to the engine.
type pathPass[F pathFact] struct {
	name    string
	zero    F        // the entry fact, and the summary of exempt and recursive units
	maxSize int      // a fact larger than this widens the state to top
	exempt  []string // "<importpath>:<unit>" names neither analyzed nor reported
	// scan returns the pass's own events at one AST node. A call it
	// returns events for is not also applied as a summarized call.
	scan func(n ast.Node) []pfEvent[F]
	// compose applies a callee's exit fact at a call to the caller's.
	compose  func(caller, callee F, target *flowUnit, args []ast.Expr) F
	errExits bool   // report error exits too, not only nil-error ones
	topMsg   string // format; argument: the unit name
	exitMsg  string // format; arguments: the unit name, the rendered fact
}

// A pfEvent is one action inside a CFG node, in source order: a step
// the pass applies to every path's fact, or (step nil) a call to an
// in-package unit whose summary applies.
type pfEvent[F pathFact] struct {
	pos    token.Pos
	step   func(F) F
	callee *flowUnit
	args   []ast.Expr
	errVar string
}

// A pfPath is one path in a state: its fact and the error-outcome tag
// of the last summarized call whose error it bound.
type pfPath[F pathFact] struct {
	fact   F
	errVar string // error variable the tag binds to ("" = untagged)
	errOut bool   // true: this path only happens when errVar != nil
}

func (p pfPath[F]) key() string {
	tag := p.errVar
	if p.errOut {
		tag += "!"
	}
	return p.fact.key() + "|" + tag
}

// pfState is the dataflow fact: the possible paths by key, or top when
// the set could not be bounded.
type pfState[F pathFact] struct {
	paths  map[string]pfPath[F]
	top    bool
	topPos token.Pos
}

// pfWith returns the state holding paths, widened to top at pos when
// there are more than pfMaxSets of them.
func pfWith[F pathFact](paths []pfPath[F], pos token.Pos) *pfState[F] {
	n := &pfState[F]{paths: make(map[string]pfPath[F], len(paths))}
	for _, p := range paths {
		n.paths[p.key()] = p
	}
	if len(n.paths) > pfMaxSets {
		n.top, n.topPos = true, pos
	}
	return n
}

func pfJoin[F pathFact](a, b *pfState[F]) *pfState[F] {
	n := &pfState[F]{
		paths:  make(map[string]pfPath[F], len(a.paths)+len(b.paths)),
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

func pfEqual[F pathFact](a, b *pfState[F]) bool {
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

// pfGate drops the paths whose error-outcome tag contradicts the
// branch: inside `if err != nil`, a path tagged "only when err == nil"
// is impossible, and vice versa.
func pfGate[F pathFact](s *pfState[F], errVar string, wantErr bool) *pfState[F] {
	n := &pfState[F]{paths: make(map[string]pfPath[F], len(s.paths)), top: s.top, topPos: s.topPos}
	for k, p := range s.paths {
		if p.errVar != errVar || p.errOut == wantErr {
			n.paths[k] = p
		}
	}
	return n
}

// A pfSummary is a unit's distinct exit facts, tags dropped: every
// exit, and the nil-error and error exits separately (a naked return
// counts as both). top is set, at the first such exit, when some exit
// state was unbounded.
type pfSummary[F pathFact] struct {
	exits, ok, err []F
	top            bool
	topPos         token.Pos
}

// A summaryMemo computes each flow unit's summary once, on first
// demand, so an analysis that reads its callees' summaries runs bottom
// up through the call graph. A unit asked for while its own summary is
// still being computed — recursion — gets the cycle value instead.
type summaryMemo[R any] struct {
	analyze func(*flowUnit) R
	cycle   R
	done    map[*flowUnit]R
	busy    map[*flowUnit]bool
}

func (m *summaryMemo[R]) of(fu *flowUnit) R {
	if r, ok := m.done[fu]; ok {
		return r
	}
	if m.busy[fu] {
		return m.cycle
	}
	if m.done == nil {
		m.done, m.busy = map[*flowUnit]R{}, map[*flowUnit]bool{}
	}
	m.busy[fu] = true
	r := m.analyze(fu)
	delete(m.busy, fu)
	m.done[fu] = r
	return r
}

type pathEngine[F pathFact] struct {
	pathPass[F]
	u    *Unit
	memo summaryMemo[*pfSummary[F]]
}

// runPathPass runs a summary pass over one package and reports at its
// roots.
func runPathPass[F pathFact](u *Unit, p pathPass[F]) []Diagnostic {
	e := &pathEngine[F]{pathPass: p, u: u}
	e.memo = summaryMemo[*pfSummary[F]]{
		analyze: e.analyze,
		cycle:   &pfSummary[F]{ok: []F{p.zero}, err: []F{p.zero}},
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
			out = append(out, u.diag(p.name, pos, format, args...))
		}
	}
	units, _, _ := u.flowInfo()
	for _, fu := range units {
		if !fu.isClosure && called[fu] || e.exempted(fu) {
			continue
		}
		sum := e.memo.of(fu)
		if sum.top {
			report(sum.topPos, p.topMsg, fu.name)
		}
		exits := sum.ok
		if p.errExits {
			exits = sum.exits
		}
		var residue []F
		for _, f := range exits {
			if f.size() > 0 {
				residue = append(residue, f)
			}
		}
		// Path-key order decides which finding wins an anchor that two
		// exits share.
		sort.Slice(residue, func(i, j int) bool {
			return pfPath[F]{fact: residue[i]}.key() < pfPath[F]{fact: residue[j]}.key()
		})
		for _, f := range residue {
			report(f.firstPos(), p.exitMsg, fu.name, f.render())
		}
	}
	return out
}

func (e *pathEngine[F]) exempted(fu *flowUnit) bool {
	return inStringList(fu.qualifiedName(e.u.Pkg.ImportPath), e.exempt)
}

// analyze computes one unit's summary from the states at its exits.
func (e *pathEngine[F]) analyze(fu *flowUnit) *pfSummary[F] {
	if e.exempted(fu) {
		return e.memo.cycle
	}
	sum := &pfSummary[F]{}
	lat := flowLattice[*pfState[F]]{
		transfer: e.transfer,
		join:     pfJoin[F],
		equal:    pfEqual[F],
		gate:     pfGate[F],
	}
	entry := pfWith([]pfPath[F]{{fact: e.zero}}, 0)
	flowExits(e.u.cfgOf(fu.body), entry, lat, func(s *pfState[F], ret *ast.ReturnStmt) {
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
			f := s.paths[k].fact
			sum.exits = appendFact(sum.exits, f)
			if okOut {
				sum.ok = appendFact(sum.ok, f)
			}
			if errOut {
				sum.err = appendFact(sum.err, f)
			}
		}
	})
	return sum
}

func appendFact[F pathFact](list []F, f F) []F {
	for _, x := range list {
		if x.key() == f.key() {
			return list
		}
	}
	return append(list, f)
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
func (e *pathEngine[F]) transfer(s *pfState[F], n ast.Node) *pfState[F] {
	if s.top {
		return s
	}
	for _, ev := range e.events(n) {
		var next []pfPath[F]
		if ev.step != nil {
			for _, p := range s.paths {
				p.fact = ev.step(p.fact)
				if p.fact.size() > e.maxSize {
					return &pfState[F]{top: true, topPos: ev.pos}
				}
				next = append(next, p)
			}
		} else {
			sum := e.memo.of(ev.callee)
			if sum.top {
				return &pfState[F]{top: true, topPos: ev.pos}
			}
			for i, facts := range [][]F{sum.ok, sum.err} {
				for _, base := range s.paths {
					for _, f := range facts {
						p := pfPath[F]{fact: e.compose(base.fact, f, ev.callee, ev.args)}
						if ev.errVar != "" {
							p.errVar, p.errOut = ev.errVar, i == 1
						}
						if p.fact.size() > e.maxSize {
							return &pfState[F]{top: true, topPos: ev.pos}
						}
						next = append(next, p)
					}
				}
			}
		}
		if s = pfWith(next, ev.pos); s.top {
			return s
		}
	}
	return s
}

// events extracts the pass's events of one statement or condition, in
// source order, without descending into function literals, plus a
// call event for every in-package call the pass leaves to summaries.
func (e *pathEngine[F]) events(n ast.Node) []pfEvent[F] {
	info := e.u.Pkg.Info
	_, byFunc, _ := e.u.flowInfo()
	var events []pfEvent[F]
	errVarOf := map[*ast.CallExpr]string{}
	inspectShallow(n, func(m ast.Node) bool {
		own := e.scan(m)
		events = append(events, own...)
		switch m := m.(type) {
		case *ast.AssignStmt:
			// Remember `..., err := call(...)` so the call's event can
			// carry the error-outcome tag.
			if len(m.Rhs) == 1 {
				if call, ok := ast.Unparen(m.Rhs[0]).(*ast.CallExpr); ok {
					if id, ok := m.Lhs[len(m.Lhs)-1].(*ast.Ident); ok && id.Name != "_" {
						if tv := info.TypeOf(id); tv != nil && types.Identical(tv, errorType) {
							errVarOf[call] = id.Name
						}
					}
				}
			}
		case *ast.CallExpr:
			if target := byFunc[calleeFunc(info, m)]; target != nil && len(own) == 0 {
				events = append(events, pfEvent[F]{pos: m.Pos(), callee: target, args: m.Args, errVar: errVarOf[m]})
			}
		}
		return true
	})
	return events
}

// earliestPos is the first of a fact's source positions.
func earliestPos(pos map[string]token.Pos) token.Pos {
	var best token.Pos
	for _, p := range pos {
		if best == 0 || p < best {
			best = p
		}
	}
	return best
}
