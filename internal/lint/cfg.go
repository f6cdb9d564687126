package lint

// Control-flow graphs and a forward dataflow driver for the
// flow-sensitive passes (moneyflow, nonceflow). The builder is
// deliberately small and stdlib-only: blocks hold statements and the
// condition expressions that decide their successors, and the driver
// iterates a pure transfer function to a fixpoint. Function literals
// are never descended into — each literal is its own analysis unit
// (see flow.go), so a closure's body shows up exactly once.
//
// Supported control flow: if/else, for, range, switch (including
// fallthrough), type switch, select, labeled break/continue, return,
// and calls to the panic builtin (which terminate the path). goto is
// handled conservatively by ending the path at the jump; the tree has
// none on analyzed paths.

import (
	"go/ast"
	"go/token"
	"slices"
)

// A cfgBlock is a straight-line run of nodes with its successor edges.
// Nodes are statements plus the condition expressions evaluated in the
// block (if/for conditions, switch tags and case expressions, range
// operands). An optional errGate filters dataflow facts entering the
// block: it encodes which branch of an `err != nil` check the block
// lives on (see the call summaries in pathflow.go).
type cfgBlock struct {
	index int
	nodes []ast.Node
	succs []*cfgBlock
	npred int

	// errGate, when set, means this block is only reached when the
	// error variable named gateVar is (wantErr=true) or is not
	// (wantErr=false) nil.
	gateVar string
	wantErr bool
	gated   bool
}

// A cfg is one function body's control-flow graph. entry has no
// predecessors; exit collects every return and the fallthrough off the
// end of the body, and carries no nodes of its own.
type cfg struct {
	entry  *cfgBlock
	exit   *cfgBlock
	blocks []*cfgBlock
}

// branchScope is one enclosing breakable/continuable construct.
type branchScope struct {
	label string
	brk   *cfgBlock // break target (never nil)
	cont  *cfgBlock // continue target; nil for switch/select
}

type cfgBuilder struct {
	g            *cfg
	cur          *cfgBlock // nil while the current path is terminated
	scopes       []branchScope
	fall         []*cfgBlock // fallthrough target per enclosing switch
	pendingLabel string
}

// buildCFG constructs the control-flow graph of one function body.
func buildCFG(body *ast.BlockStmt) *cfg {
	g := &cfg{}
	b := &cfgBuilder{g: g}
	g.entry = b.newBlock()
	g.exit = b.newBlock()
	b.cur = g.entry
	b.stmtList(body.List)
	if b.cur != nil {
		b.link(b.cur, g.exit)
	}
	return g
}

func (b *cfgBuilder) newBlock(preds ...*cfgBlock) *cfgBlock {
	blk := &cfgBlock{index: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	for _, p := range preds {
		if p != nil {
			b.link(p, blk)
		}
	}
	return blk
}

func (b *cfgBuilder) link(from, to *cfgBlock) {
	from.succs = append(from.succs, to)
	to.npred++
}

func (b *cfgBuilder) add(n ast.Node) {
	if b.cur != nil && n != nil {
		b.cur.nodes = append(b.cur.nodes, n)
	}
}

// takeLabel consumes the label of an enclosing LabeledStmt, if any.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	if b.cur == nil {
		return // unreachable code after return/break/...
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.EmptyStmt:
	case *ast.LabeledStmt:
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.ReturnStmt:
		b.add(s)
		b.link(b.cur, b.g.exit)
		b.cur = nil
	case *ast.BranchStmt:
		b.branch(s)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		b.switchStmt(s)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s)
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.link(b.cur, b.g.exit)
			b.cur = nil
		}
	default:
		// Assign, IncDec, Decl, Send, Go, Defer, ...: straight-line.
		b.add(s)
	}
}

// isPanicCall reports whether e is a call to the panic builtin.
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		for i := len(b.scopes) - 1; i >= 0; i-- {
			sc := b.scopes[i]
			if label == "" || sc.label == label {
				b.link(b.cur, sc.brk)
				break
			}
		}
	case token.CONTINUE:
		for i := len(b.scopes) - 1; i >= 0; i-- {
			sc := b.scopes[i]
			if sc.cont != nil && (label == "" || sc.label == label) {
				b.link(b.cur, sc.cont)
				break
			}
		}
	case token.FALLTHROUGH:
		if n := len(b.fall); n > 0 && b.fall[n-1] != nil {
			b.link(b.cur, b.fall[n-1])
		}
	case token.GOTO:
		// Conservative: end the path. No goto exists on analyzed paths.
		b.link(b.cur, b.g.exit)
	}
	b.cur = nil
}

// errCheckCond recognizes `v != nil` / `v == nil` where v is a plain
// identifier, returning the variable name and whether the TRUE branch
// is the error (non-nil) branch.
func errCheckCond(cond ast.Expr) (name string, trueIsErr, ok bool) {
	bin, isBin := ast.Unparen(cond).(*ast.BinaryExpr)
	if !isBin || (bin.Op != token.NEQ && bin.Op != token.EQL) {
		return "", false, false
	}
	x, y := ast.Unparen(bin.X), ast.Unparen(bin.Y)
	id, isID := x.(*ast.Ident)
	nilSide, isNil := y.(*ast.Ident)
	if !isID || !isNil || nilSide.Name != "nil" {
		id, isID = y.(*ast.Ident)
		nilSide, isNil = x.(*ast.Ident)
		if !isID || !isNil || nilSide.Name != "nil" {
			return "", false, false
		}
	}
	return id.Name, bin.Op == token.NEQ, true
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
		if b.cur == nil {
			return
		}
	}
	b.add(s.Cond)
	cond := b.cur

	gateVar, trueIsErr, isErrCheck := errCheckCond(s.Cond)

	then := b.newBlock(cond)
	if isErrCheck {
		then.gated, then.gateVar, then.wantErr = true, gateVar, trueIsErr
	}
	b.cur = then
	b.stmt(s.Body)
	thenEnd := b.cur

	join := b.newBlock()
	if thenEnd != nil {
		b.link(thenEnd, join)
	}
	if s.Else != nil {
		els := b.newBlock(cond)
		if isErrCheck {
			els.gated, els.gateVar, els.wantErr = true, gateVar, !trueIsErr
		}
		b.cur = els
		b.stmt(s.Else)
		if b.cur != nil {
			b.link(b.cur, join)
		}
	} else {
		// The implicit else: materialize it so the err-gate applies to
		// the fallthrough edge too.
		els := b.newBlock(cond)
		if isErrCheck {
			els.gated, els.gateVar, els.wantErr = true, gateVar, !trueIsErr
		}
		b.link(els, join)
	}
	b.cur = join
	if join.npred == 0 {
		b.cur = nil
	}
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.stmt(s.Init)
		if b.cur == nil {
			return
		}
	}
	head := b.newBlock(b.cur)
	if s.Cond != nil {
		head.nodes = append(head.nodes, s.Cond)
	}
	exit := b.newBlock()
	if s.Cond != nil {
		b.link(head, exit)
	}
	cont := head
	if s.Post != nil {
		cont = b.newBlock()
		cont.nodes = append(cont.nodes, s.Post)
		b.link(cont, head)
	}
	body := b.newBlock(head)
	b.scopes = append(b.scopes, branchScope{label: label, brk: exit, cont: cont})
	b.cur = body
	b.stmt(s.Body)
	if b.cur != nil {
		b.link(b.cur, cont)
	}
	b.scopes = b.scopes[:len(b.scopes)-1]
	b.cur = exit
	if exit.npred == 0 {
		b.cur = nil // `for {}` with no break
	}
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt) {
	label := b.takeLabel()
	head := b.newBlock(b.cur)
	// Only the range operand is a node here; Body statements get their
	// own blocks and the key/value assignment carries no facts the
	// passes track.
	head.nodes = append(head.nodes, s.X)
	exit := b.newBlock(head)
	body := b.newBlock(head)
	b.scopes = append(b.scopes, branchScope{label: label, brk: exit, cont: head})
	b.cur = body
	b.stmt(s.Body)
	if b.cur != nil {
		b.link(b.cur, head)
	}
	b.scopes = b.scopes[:len(b.scopes)-1]
	b.cur = exit
}

func (b *cfgBuilder) switchStmt(s *ast.SwitchStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.stmt(s.Init)
		if b.cur == nil {
			return
		}
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	head := b.cur
	join := b.newBlock()
	b.scopes = append(b.scopes, branchScope{label: label, brk: join})

	clauses := s.Body.List
	caseBlocks := make([]*cfgBlock, len(clauses))
	for i := range clauses {
		caseBlocks[i] = b.newBlock()
	}
	hasDefault := false
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		blk := caseBlocks[i]
		b.link(head, blk)
		for _, e := range cc.List {
			blk.nodes = append(blk.nodes, e)
		}
		if cc.List == nil {
			hasDefault = true
		}
		next := (*cfgBlock)(nil)
		if i+1 < len(caseBlocks) {
			next = caseBlocks[i+1]
		}
		b.fall = append(b.fall, next)
		b.cur = blk
		b.stmtList(cc.Body)
		b.fall = b.fall[:len(b.fall)-1]
		if b.cur != nil {
			b.link(b.cur, join)
		}
	}
	if !hasDefault {
		b.link(head, join)
	}
	b.scopes = b.scopes[:len(b.scopes)-1]
	b.cur = join
	if join.npred == 0 {
		b.cur = nil
	}
}

func (b *cfgBuilder) typeSwitchStmt(s *ast.TypeSwitchStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.stmt(s.Init)
		if b.cur == nil {
			return
		}
	}
	b.add(s.Assign)
	head := b.cur
	join := b.newBlock()
	b.scopes = append(b.scopes, branchScope{label: label, brk: join})
	hasDefault := false
	for _, c := range s.Body.List {
		cc := c.(*ast.CaseClause)
		blk := b.newBlock(head)
		// Case type expressions become nodes: nonceflow treats a type
		// expression naming a nonce-bearing message as a decode anchor.
		for _, e := range cc.List {
			blk.nodes = append(blk.nodes, e)
		}
		if cc.List == nil {
			hasDefault = true
		}
		b.cur = blk
		b.stmtList(cc.Body)
		if b.cur != nil {
			b.link(b.cur, join)
		}
	}
	if !hasDefault {
		b.link(head, join)
	}
	b.scopes = b.scopes[:len(b.scopes)-1]
	b.cur = join
	if join.npred == 0 {
		b.cur = nil
	}
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt) {
	label := b.takeLabel()
	head := b.cur
	join := b.newBlock()
	b.scopes = append(b.scopes, branchScope{label: label, brk: join})
	for _, c := range s.Body.List {
		cc := c.(*ast.CommClause)
		blk := b.newBlock(head)
		b.cur = blk
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmtList(cc.Body)
		if b.cur != nil {
			b.link(b.cur, join)
		}
	}
	b.scopes = b.scopes[:len(b.scopes)-1]
	b.cur = join
	if join.npred == 0 {
		b.cur = nil // select{} or all cases terminate
	}
}

// postorder returns the blocks reachable from entry in reverse
// postorder, the natural iteration order for forward dataflow.
func (g *cfg) reversePostorder() []*cfgBlock {
	seen := make([]bool, len(g.blocks))
	var order []*cfgBlock
	var visit func(*cfgBlock)
	visit = func(blk *cfgBlock) {
		seen[blk.index] = true
		for _, s := range blk.succs {
			if !seen[s.index] {
				visit(s)
			}
		}
		order = append(order, blk)
	}
	visit(g.entry)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// flowLattice is what a pass supplies to the dataflow driver. All
// operations must be pure: they return fresh states and never mutate
// their arguments (states are shared across blocks).
type flowLattice[S any] struct {
	transfer func(S, ast.Node) S
	join     func(S, S) S
	equal    func(S, S) bool
	// gate filters the facts entering an err-gated block; nil disables
	// gating for the pass.
	gate func(S, string, bool) S
}

// forwardFlow iterates the transfer function to a fixpoint and returns
// the state at the entry of every reachable block. Unreachable blocks
// are absent from the result. The iteration cap is a backstop — the
// pass lattices are height-bounded, so real runs converge long before
// it.
func forwardFlow[S any](g *cfg, entry S, lat flowLattice[S]) map[*cfgBlock]S {
	order := g.reversePostorder()
	reachable := make(map[*cfgBlock]bool, len(order))
	for _, blk := range order {
		reachable[blk] = true
	}
	preds := make(map[*cfgBlock][]*cfgBlock)
	for _, blk := range order {
		for _, s := range blk.succs {
			if reachable[blk] {
				preds[s] = append(preds[s], blk)
			}
		}
	}

	in := make(map[*cfgBlock]S, len(order))
	out := make(map[*cfgBlock]S, len(order))
	maxIter := 4*len(order) + 32
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for _, blk := range order {
			var s S
			if blk == g.entry {
				s = entry
			} else {
				first := true
				any := false
				for _, p := range preds[blk] {
					ps, ok := out[p]
					if !ok {
						continue
					}
					any = true
					if first {
						s, first = ps, false
					} else {
						s = lat.join(s, ps)
					}
				}
				if !any {
					continue // no predecessor state yet
				}
				if blk.gated && lat.gate != nil {
					s = lat.gate(s, blk.gateVar, blk.wantErr)
				}
			}
			in[blk] = s
			for _, n := range blk.nodes {
				s = lat.transfer(s, n)
			}
			if old, ok := out[blk]; !ok || !lat.equal(old, s) {
				out[blk] = s
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return in
}

// flowExits runs forwardFlow over g, then replays each reachable block
// from its entry state and hands exit the state that leaves the body:
// at every return (ret is the statement) and off the end of the body
// (ret is nil). A path that ends in a panic call has no exit.
func flowExits[S any](g *cfg, entry S, lat flowLattice[S], exit func(s S, ret *ast.ReturnStmt)) {
	in := forwardFlow(g, entry, lat)
	for _, blk := range g.reversePostorder() {
		s, ok := in[blk]
		if !ok {
			continue
		}
		ended := false
		for _, n := range blk.nodes {
			s = lat.transfer(s, n)
			switch n := n.(type) {
			case *ast.ReturnStmt:
				exit(s, n)
				ended = true
			case *ast.ExprStmt:
				ended = ended || isPanicCall(n.X)
			}
		}
		if !ended && slices.Contains(blk.succs, g.exit) {
			exit(s, nil)
		}
	}
}
