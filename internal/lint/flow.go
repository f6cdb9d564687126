package lint

// Shared machinery for the flow-sensitive passes: enumeration of
// analysis units (named functions and every function literal, labeled
// by the AP action name it is registered under when one exists), call
// resolution, and canonical rendering of ledger amounts.

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// A flowUnit is one function body analyzed on its own CFG. Function
// literals are their own units — their statements are excluded from
// the enclosing function's graph.
type flowUnit struct {
	name      string // function name, or the AP action label for registered closures
	body      *ast.BlockStmt
	pos       token.Pos
	fn        *types.Func // nil for literals
	sig       *types.Signature
	isClosure bool
}

// qualifiedName is the "<importpath>:<name>" form used by the
// Config.MintFuncs bless-list.
func (f *flowUnit) qualifiedName(importPath string) string {
	return importPath + ":" + f.name
}

// flowInfo returns the package's flow units, the *types.Func → unit
// resolution map, and the body → unit map, computed once per Unit and
// shared by every flow-sensitive pass in a run. Before this cache each
// pass re-enumerated the tree and rebuilt its CFGs; with six CFG-based
// passes that was the dominant per-pass cost after type-checking.
func (u *Unit) flowInfo() ([]*flowUnit, map[*types.Func]*flowUnit, map[*ast.BlockStmt]*flowUnit) {
	if u.flowByBody == nil {
		u.flowUnits, u.flowByFunc = collectFlowUnits(u)
		u.flowByBody = make(map[*ast.BlockStmt]*flowUnit, len(u.flowUnits))
		for _, fu := range u.flowUnits {
			u.flowByBody[fu.body] = fu
		}
	}
	return u.flowUnits, u.flowByFunc, u.flowByBody
}

// callGraph returns, per flow unit, the in-package units it calls by
// name (itself excluded; literals are never callees), computed once per
// Unit like flowInfo.
func (u *Unit) callGraph() map[*flowUnit][]*flowUnit {
	if u.flowCalls == nil {
		units, byFunc, _ := u.flowInfo()
		u.flowCalls = make(map[*flowUnit][]*flowUnit, len(units))
		for _, fu := range units {
			inspectShallow(fu.body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if target := byFunc[calleeFunc(u.Pkg.Info, call)]; target != nil && target != fu {
						u.flowCalls[fu] = append(u.flowCalls[fu], target)
					}
				}
				return true
			})
		}
	}
	return u.flowCalls
}

// cfgOf builds (once) and returns the control-flow graph of one
// function body. Passes must treat the graph as read-only.
func (u *Unit) cfgOf(body *ast.BlockStmt) *cfg {
	if u.cfgs == nil {
		u.cfgs = make(map[*ast.BlockStmt]*cfg)
	}
	g, ok := u.cfgs[body]
	if !ok {
		g = buildCFG(body)
		u.cfgs[body] = g
	}
	return g
}

// collectFlowUnits enumerates every function declaration and function
// literal in the package. The returned map resolves a called
// *types.Func back to its declaring unit for summary lookup.
func collectFlowUnits(u *Unit) ([]*flowUnit, map[*types.Func]*flowUnit) {
	var units []*flowUnit
	byFunc := make(map[*types.Func]*flowUnit)
	for _, f := range u.Pkg.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					fu := &flowUnit{name: n.Name.Name, body: n.Body, pos: n.Pos()}
					if obj, ok := u.Pkg.Info.Defs[n.Name].(*types.Func); ok {
						fu.fn = obj
						fu.sig, _ = obj.Type().(*types.Signature)
						byFunc[obj] = fu
					}
					units = append(units, fu)
				}
			case *ast.FuncLit:
				sig, _ := u.Pkg.Info.TypeOf(n).(*types.Signature)
				units = append(units, &flowUnit{
					name:      closureLabel(n, stack),
					body:      n.Body,
					pos:       n.Pos(),
					sig:       sig,
					isClosure: true,
				})
			}
			stack = append(stack, n)
			return true
		})
	}
	return units, byFunc
}

// closureLabel names a function literal. A literal passed directly to
// a call whose first argument is a string literal — the AP registration
// idiom AddAction("user-buy", guard, body) / AddReceive("rcv-buy", ...)
// — takes that string as its label, which is what the mint/burn
// bless-list matches. Anything else is an anonymous "<enclosing>.func".
func closureLabel(lit *ast.FuncLit, stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		call, ok := stack[i].(*ast.CallExpr)
		if !ok {
			continue
		}
		direct := false
		for _, a := range call.Args {
			if a == ast.Expr(lit) {
				direct = true
				break
			}
		}
		if !direct {
			continue
		}
		if len(call.Args) > 0 {
			if bl, ok := call.Args[0].(*ast.BasicLit); ok && bl.Kind == token.STRING {
				if s, err := strconv.Unquote(bl.Value); err == nil && s != "" {
					return s
				}
			}
		}
		break
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd.Name.Name + ".func"
		}
	}
	return "func"
}

// calleeFunc resolves a call expression to the function or method it
// statically invokes, or nil for builtins, conversions, and dynamic
// calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// qualifiedFuncName renders a *types.Func as "pkgpath.Name" or
// "pkgpath.Recv.Name" for methods — the form the config lists use.
func qualifiedFuncName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := namedTypeOf(sig.Recv().Type()); named != nil {
			return qualifiedTypeName(named) + "." + fn.Name()
		}
	}
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// inspectShallow walks n without descending into function literals,
// whose bodies are separate analysis units.
func inspectShallow(n ast.Node, visit func(ast.Node) bool) {
	if n == nil {
		return
	}
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

// fieldSelection unwraps parens, indexing, and derefs around an lvalue
// and returns the field selector at its core, if the expression
// ultimately writes a struct field: e.avail, u.balance, st.Credit[j],
// (*p).account[g].
func fieldSelection(info *types.Info, e ast.Expr) (*ast.SelectorExpr, bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				return x, true
			}
			return nil, false
		default:
			return nil, false
		}
	}
}

// isFieldNamed reports whether e writes a struct field whose
// (case-insensitive) name is in names.
func isFieldNamed(info *types.Info, e ast.Expr, names []string) (*ast.SelectorExpr, bool) {
	sel, ok := fieldSelection(info, e)
	if !ok {
		return nil, false
	}
	field := strings.ToLower(sel.Sel.Name)
	for _, n := range names {
		if field == n {
			return sel, true
		}
	}
	return nil, false
}

// atomicAddField recognizes `<field expr>.Add(delta)` on the
// sync/atomic integer types and returns the field selector and the
// delta argument. The striped ISP ledger stores per-peer credit as
// []atomic.Int64, so `e.credit[i].Add(1)` must count as a ledger delta.
func atomicAddField(info *types.Info, call *ast.CallExpr, names []string) (*ast.SelectorExpr, ast.Expr, bool) {
	fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || fun.Sel.Name != "Add" || len(call.Args) != 1 {
		return nil, nil, false
	}
	fn, ok := info.Uses[fun.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return nil, nil, false
	}
	sel, ok := isFieldNamed(info, fun.X, names)
	if !ok {
		return nil, nil, false
	}
	return sel, call.Args[0], true
}

// canonAmount renders an amount expression in a canonical form so that
// a debit and its matching credit compare equal: parens and numeric
// conversions are stripped, constants are folded (with the sign pulled
// out), and everything else prints via types.ExprString. Returns the
// canonical text and a +1/-1 sign factor.
func canonAmount(info *types.Info, e ast.Expr) (string, int64) {
	sign := int64(1)
	for {
		if tv, ok := info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
			v := tv.Value
			if constant.Sign(v) < 0 {
				v = constant.UnaryOp(token.SUB, v, 0)
				sign = -sign
			}
			return v.ExactString(), sign
		}
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			switch x.Op {
			case token.SUB:
				sign = -sign
				e = x.X
			case token.ADD:
				e = x.X
			default:
				return types.ExprString(e), sign
			}
		case *ast.CallExpr:
			// Strip conversions: money.EPenny(x) and x carry the same value.
			if len(x.Args) == 1 {
				if tv, ok := info.Types[x.Fun]; ok && tv.IsType() {
					e = x.Args[0]
					continue
				}
			}
			return types.ExprString(e), sign
		default:
			return types.ExprString(e), sign
		}
	}
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

// qualifiedTypeName renders a named type as "<importpath>.<Name>".
func qualifiedTypeName(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// inStringList is a tiny exact-match helper for config lists.
func inStringList(s string, list []string) bool {
	for _, x := range list {
		if s == x {
			return true
		}
	}
	return false
}
