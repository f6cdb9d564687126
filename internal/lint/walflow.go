package lint

// walflow: path-sensitive WAL completeness. The write-ahead log only
// makes the ledgers durable if every mutation of WAL-logged state is
// actually logged: a code path that updates a user row, the e-penny
// pool, a credit counter, a nonce cursor, or a bank account and then
// returns without appending a record is a silent durability hole — the
// dynamic crash tables only catch it if a chaos schedule happens to cut
// power inside that path. This pass proves the pairing for all paths.
//
// The pass is a client of the path-set summary engine (pathflow.go),
// which it shares with moneyflow. A path's fact is the set of WAL-logged
// fields mutated since the last WAL append on that path, and whether an
// append has happened on it at all. Mutations are recognized by
// owner-qualified field writes (Config.WALFields, "Type.field"), so the
// exported snapshot structs and the replay folders — which rebuild
// state *from* the log — never match. Any call to a
// Config.WALAppendFuncs hook clears the pending set: the append helpers
// each log the full batch their call site just performed, and finer
// pairing (this field needs that record kind) would re-encode the WAL
// schema in the linter. A callee path that appended discharges the
// caller's pending mutations too; one that did not adds its own.
//
// Reported at a root: every non-error exit whose pending set is
// non-empty, plus any path the analysis cannot bound ("cannot prove").
// Error exits are deliberately not findings: a failed operation's
// partial state is the rollback/abort discipline's concern, not
// durability's. Constructors and restore/recovery paths are blessed via
// Config.WALExemptFuncs.

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"
)

// WalFlow returns the WAL completeness pass.
func WalFlow() Pass {
	return Pass{
		Name: "walflow",
		Doc:  "mutations of WAL-logged state must reach a WAL append on every non-error exit path",
		Run:  runWalFlow,
	}
}

// wfMaxFields is the number of distinct pending fields in one fact
// before the state widens to top.
const wfMaxFields = 12

func runWalFlow(u *Unit) []Diagnostic {
	if !pathMatches(u.Pkg.ImportPath, u.Cfg.WalflowPkgs) {
		return nil
	}
	a := &wfAnalyzer{u: u, fields: map[string]string{}, appends: map[string]bool{}}
	for _, f := range u.Cfg.WALFields {
		a.fields[strings.ToLower(f)] = f
	}
	for _, f := range u.Cfg.WALAppendFuncs {
		a.appends[f] = true
	}
	return runPathPass(u, pathPass[*wfFact]{
		name:    "walflow",
		zero:    &wfFact{},
		maxSize: wfMaxFields,
		exempt:  u.Cfg.WALExemptFuncs,
		scan:    a.scan,
		compose: wfCompose,
		topMsg:  "cannot prove WAL completeness in %s: the set of unlogged mutations is unbounded across this path; restructure or suppress with a reason",
		exitMsg: "unlogged durable mutation in %s: a non-error path can exit after mutating %s with no WAL append — a crash there replays stale state; log it with the matching wal* helper, or bless replay/constructor paths via Config.WALExemptFuncs",
	})
}

// A wfFact is one path's durability obligation: the WAL fields mutated
// since the last append, and whether an append has happened at all on
// the path (that discharges a caller's earlier mutations when this path
// is summarized).
type wfFact struct {
	pending  map[string]token.Pos // "Owner.field" → earliest unlogged mutation
	appended bool
}

// wfLogged is every path right after an append.
var wfLogged = &wfFact{appended: true}

// mutate returns a copy with the field added to the pending set.
func (f *wfFact) mutate(field string, pos token.Pos) *wfFact {
	n := &wfFact{pending: maps.Clone(f.pending), appended: f.appended}
	if n.pending == nil {
		n.pending = map[string]token.Pos{}
	}
	if p, ok := n.pending[field]; !ok || pos < p {
		n.pending[field] = pos
	}
	return n
}

// wfCompose applies a callee path at a call: a callee that appended on
// the path logged the caller's earlier mutations too, so only its own
// pending set survives; otherwise the two pending sets union.
func wfCompose(caller, callee *wfFact, _ *flowUnit, _ []ast.Expr) *wfFact {
	if callee.appended {
		return callee
	}
	n := caller
	for field, p := range callee.pending {
		n = n.mutate(field, p)
	}
	return n
}

func (f *wfFact) size() int { return len(f.pending) }

func (f *wfFact) key() string {
	app := ""
	if f.appended {
		app = "+"
	}
	return f.render() + "|" + app
}

func (f *wfFact) render() string {
	return strings.Join(slices.Sorted(maps.Keys(f.pending)), ", ")
}

func (f *wfFact) firstPos() token.Pos { return earliestPos(f.pending) }

// wfMutatingMethods are method names that mutate their receiver in
// place: the sync/atomic write family plus the crypto.Source cursor
// methods. A call to one on a WAL-listed field is a mutation event.
var wfMutatingMethods = map[string]bool{
	"Add": true, "Store": true, "Swap": true, "CompareAndSwap": true,
	"Next": true, "SetCounter": true,
}

type wfAnalyzer struct {
	u       *Unit
	fields  map[string]string // lowercase "owner.field" → display form
	appends map[string]bool   // "importpath:Name" append hooks
}

// walField resolves an lvalue or receiver expression to an
// owner-qualified WAL field, if it writes one.
func (a *wfAnalyzer) walField(e ast.Expr) (string, *ast.SelectorExpr, bool) {
	info := a.u.Pkg.Info
	sel, ok := fieldSelection(info, e)
	if !ok {
		return "", nil, false
	}
	s, ok := info.Selections[sel]
	if !ok {
		return "", nil, false
	}
	owner := namedTypeOf(s.Recv())
	if owner == nil {
		return "", nil, false
	}
	key := strings.ToLower(owner.Obj().Name() + "." + sel.Sel.Name)
	disp, ok := a.fields[key]
	if !ok {
		return "", nil, false
	}
	return disp, sel, true
}

// scan returns the durability events at one AST node: mutations of WAL
// fields, and appends.
func (a *wfAnalyzer) scan(n ast.Node) []pfEvent[*wfFact] {
	var events []pfEvent[*wfFact]
	mutation := func(e ast.Expr) bool {
		field, sel, ok := a.walField(e)
		if ok {
			pos := sel.Pos()
			events = append(events, pfEvent[*wfFact]{pos: pos, step: func(f *wfFact) *wfFact { return f.mutate(field, pos) }})
		}
		return ok
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			mutation(lhs)
		}
	case *ast.IncDecStmt:
		mutation(n.X)
	case *ast.CallExpr:
		// delete(m.field, k) mutates a WAL-listed map.
		if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "delete" && len(n.Args) == 2 {
			mutation(n.Args[0])
			break
		}
		fn := calleeFunc(a.u.Pkg.Info, n)
		if fn == nil {
			break
		}
		// In-place mutation through a method on a WAL-listed field:
		// e.credit[i].Add(1), e.nonces.Next().
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && wfMutatingMethods[fn.Name()] {
			if selFun, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && mutation(selFun.X) {
				break
			}
		}
		if fn.Pkg() != nil && a.appends[fn.Pkg().Path()+":"+fn.Name()] {
			events = append(events, pfEvent[*wfFact]{pos: n.Pos(), step: func(*wfFact) *wfFact { return wfLogged }})
		}
	}
	return events
}
