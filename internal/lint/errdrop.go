package lint

import (
	"go/ast"
	"go/types"
)

// ErrDrop returns the discarded-error pass. The persistence layer
// (atomic state files), the wire codec, the crypto layer (sealed
// boxes, nonce source), the exposition parser (promtext.ParseProm),
// and the observability endpoints are exactly the APIs whose errors
// must never be dropped: a swallowed SaveJSON error silently loses the
// durable ledger, a swallowed UnmarshalBinary error silently desyncs a
// handshake, a swallowed Seal/Next error silently disables replay
// protection, and a swallowed ParseProm error silently reconciles
// against metrics that were never read. The pass
// flags, anywhere in the tree:
//
//   - a call to one of those packages' functions or methods used as a
//     bare statement (including `defer` and `go`) when it returns an
//     error;
//   - an assignment that binds such a call's error result to the blank
//     identifier (`_ = SaveJSON(...)`, `v, _ := ...Open(...)`).
//
// Handling the error, even to log it, is the fix; a site where
// discarding is genuinely correct carries a //zlint:ignore errdrop with
// the justification.
func ErrDrop() Pass {
	return Pass{
		Name: "errdrop",
		Doc:  "errors from persist/wire/crypto APIs must be handled",
		Run:  runErrDrop,
	}
}

func runErrDrop(u *Unit) []Diagnostic {
	if len(u.Cfg.ErrDropPkgs) == 0 {
		return nil
	}
	var out []Diagnostic
	for _, f := range u.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if d, bad := droppedCall(u, call, "result discarded by bare call"); bad {
						out = append(out, d)
					}
				}
			case *ast.DeferStmt:
				if d, bad := droppedCall(u, n.Call, "result discarded by defer"); bad {
					out = append(out, d)
				}
			case *ast.GoStmt:
				if d, bad := droppedCall(u, n.Call, "result discarded by go statement"); bad {
					out = append(out, d)
				}
			case *ast.AssignStmt:
				out = append(out, blankedErrors(u, n)...)
			}
			return true
		})
	}
	return out
}

// droppedCall reports a statement-position call into a guarded package
// that returns an error.
func droppedCall(u *Unit, call *ast.CallExpr, how string) (Diagnostic, bool) {
	fn, ok := guardedCallee(u, call)
	if !ok || !returnsError(fn) {
		return Diagnostic{}, false
	}
	return u.diag("errdrop", call.Pos(),
		"%s.%s returns an error; %s (handle it — silent failure here breaks crash recovery / replay protection)",
		fn.Pkg().Name(), fn.Name(), how), true
}

// blankedErrors reports assignments that bind a guarded call's error
// result to _.
func blankedErrors(u *Unit, as *ast.AssignStmt) []Diagnostic {
	// Single call on the RHS with its results destructured.
	if len(as.Rhs) == 1 {
		if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
			if fn, okG := guardedCallee(u, call); okG {
				if d, bad := blankedResult(u, as.Lhs, call, fn); bad {
					return []Diagnostic{d}
				}
			}
			return nil
		}
	}
	// Parallel assignment: a, b = f(), g() — single-result calls.
	var out []Diagnostic
	if len(as.Rhs) == len(as.Lhs) {
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			fn, okG := guardedCallee(u, call)
			if !okG || !returnsError(fn) {
				continue
			}
			if isBlank(as.Lhs[i]) {
				out = append(out, u.diag("errdrop", call.Pos(),
					"%s.%s error assigned to _ (handle it — silent failure here breaks crash recovery / replay protection)",
					fn.Pkg().Name(), fn.Name()))
			}
		}
	}
	return out
}

// blankedResult checks a destructuring assignment lhs list against the
// call's signature: any error-typed result position bound to _ is a
// drop.
func blankedResult(u *Unit, lhs []ast.Expr, call *ast.CallExpr, fn *types.Func) (Diagnostic, bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != len(lhs) {
		// Single-value context or mismatch; the single-result error case
		// is `_ = f()`.
		if len(lhs) == 1 && isBlank(lhs[0]) && returnsError(fn) {
			return u.diag("errdrop", call.Pos(),
				"%s.%s error assigned to _ (handle it — silent failure here breaks crash recovery / replay protection)",
				fn.Pkg().Name(), fn.Name()), true
		}
		return Diagnostic{}, false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if !isErrorType(sig.Results().At(i).Type()) {
			continue
		}
		if isBlank(lhs[i]) {
			return u.diag("errdrop", call.Pos(),
				"%s.%s error assigned to _ (handle it — silent failure here breaks crash recovery / replay protection)",
				fn.Pkg().Name(), fn.Name()), true
		}
	}
	return Diagnostic{}, false
}

// guardedCallee resolves a call's callee to a function or method
// declared in one of the guarded packages.
func guardedCallee(u *Unit, call *ast.CallExpr) (*types.Func, bool) {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj = u.Pkg.Info.Uses[fun.Sel]
	case *ast.Ident:
		obj = u.Pkg.Info.Uses[fun]
	default:
		return nil, false
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil, false
	}
	if !pathMatches(fn.Pkg().Path(), u.Cfg.ErrDropPkgs) {
		return nil, false
	}
	return fn, true
}

// returnsError reports whether fn's signature includes an error result.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

// isBlank reports whether an assignment target is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool { return types.Identical(t, errorType) }
