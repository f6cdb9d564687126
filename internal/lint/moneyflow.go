package lint

// moneyflow: path-sensitive e-penny conservation. The paper's economy
// is zero-sum — every send moves exactly one e-penny, so every debit of
// a conserved ledger field (balance, credit, avail) must be paired with
// an equal credit before the function returns, on every control-flow
// path. Anything else mints or destroys value. The only sanctioned
// mint/burn points are the bank exchange paths, listed in
// Config.MintFuncs.
//
// The pass is a client of the path-set summary engine (pathflow.go),
// which it shares with walflow; function literals are units of their
// own — the AP spec registers its whole economy as closures, labeled by
// their registration name. A path's fact is its net ledger delta, a
// multiset of canonical amount expressions with signed counts:
// `e.avail -= e.sellVal` adds ("e.sellVal", -1) and a later
// `e.avail += e.sellVal` cancels it. A callee's delta composes onto the
// caller's by addition, with amounts that are the callee's own
// parameters renamed to the caller's arguments (a debit of `n` in
// `charge` is a debit of `k` at `charge(…, k, …)`).
//
// Reported at a root: every exit path, error exits included, whose net
// delta is not zero, and any delta the analysis cannot bound (it grows
// inside a loop). Direct assignments (`e.avail = x`) are
// initialization, not flow; the `account` field is real pennies — the open boundary where value
// enters and leaves the e-penny economy — so it is deliberately outside
// the conserved set.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
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

// mwMaxTerms is the number of distinct amounts in one delta before the
// state widens to top.
const mwMaxTerms = 8

func runMoneyFlow(u *Unit) []Diagnostic {
	if !pathMatches(u.Pkg.ImportPath, u.Cfg.MoneyflowPkgs) {
		return nil
	}
	a := &mwAnalyzer{u: u}
	return runPathPass(u, pathPass[*deltaSet]{
		name:     "moneyflow",
		zero:     newDeltaSet(),
		maxSize:  mwMaxTerms,
		exempt:   u.Cfg.MintFuncs,
		scan:     a.scan,
		compose:  a.compose,
		errExits: true,
		topMsg:   "cannot prove e-penny conservation in %s: the net ledger delta is unbounded (grows across a loop); restructure or suppress with a reason",
		exitMsg:  "unbalanced e-penny flow in %s: a path can exit with net delta %s; pair the debit with an equal credit, or bless intentional mint/burn via Config.MintFuncs",
	})
}

// A deltaSet is one possible net ledger delta: canonical amount → signed
// count, with a representative source position per amount.
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

func (d *deltaSet) size() int { return len(d.net) }

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
func (d *deltaSet) firstPos() token.Pos { return earliestPos(d.pos) }

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

type mwAnalyzer struct {
	u *Unit
}

// compose adds a callee's delta to the caller's, its parameters bound
// to the call's arguments.
func (a *mwAnalyzer) compose(caller, callee *deltaSet, target *flowUnit, args []ast.Expr) *deltaSet {
	return caller.merge(a.bindArgs(callee, target.sig, args))
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
func (a *mwAnalyzer) scan(n ast.Node) []pfEvent[*deltaSet] {
	info := a.u.Pkg.Info
	fields := a.u.Cfg.MoneyFields
	delta := func(amt string, coef int64, pos token.Pos) []pfEvent[*deltaSet] {
		return []pfEvent[*deltaSet]{{pos: pos, step: func(d *deltaSet) *deltaSet { return d.add(amt, coef, pos) }}}
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		if n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN {
			if sel, ok := isFieldNamed(info, n.Lhs[0], fields); ok {
				amt, sign := canonAmount(info, n.Rhs[0])
				if n.Tok == token.SUB_ASSIGN {
					sign = -sign
				}
				return delta(amt, sign, sel.Pos())
			}
		}
	case *ast.IncDecStmt:
		if sel, ok := isFieldNamed(info, n.X, fields); ok {
			coef := int64(1)
			if n.Tok == token.DEC {
				coef = -1
			}
			return delta("1", coef, sel.Pos())
		}
	case *ast.CallExpr:
		if sel, arg, ok := atomicAddField(info, n, fields); ok {
			amt, sign := canonAmount(info, arg)
			return delta(amt, sign, sel.Pos())
		}
	}
	return nil
}
