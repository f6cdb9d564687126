package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseBody parses a function body for CFG construction. buildCFG is
// purely syntactic, so unresolved identifiers are fine.
func parseBody(t *testing.T, body string) *ast.BlockStmt {
	t.Helper()
	src := "package p\nfunc f() error {\n" + body + "\n}\n"
	f, err := parser.ParseFile(token.NewFileSet(), "t.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f.Decls[0].(*ast.FuncDecl).Body
}

// reachableFrom collects the block indices reachable from entry.
func reachableFrom(g *cfg) map[*cfgBlock]bool {
	seen := make(map[*cfgBlock]bool)
	var visit func(*cfgBlock)
	visit = func(b *cfgBlock) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.succs {
			visit(s)
		}
	}
	visit(g.entry)
	return seen
}

func TestCFGLinear(t *testing.T) {
	g := buildCFG(parseBody(t, "x := 1\nx++\nreturn nil"))
	if len(g.blocks) != 2 {
		t.Fatalf("linear body: want 2 blocks (entry+exit), got %d", len(g.blocks))
	}
	if len(g.entry.nodes) != 3 {
		t.Errorf("entry should carry all 3 statements, has %d", len(g.entry.nodes))
	}
	if len(g.entry.succs) != 1 || g.entry.succs[0] != g.exit {
		t.Errorf("entry must flow straight to exit")
	}
}

func TestCFGIfElse(t *testing.T) {
	g := buildCFG(parseBody(t, "if c {\n a()\n} else {\n b()\n}\nreturn nil"))
	// entry(cond) → then|else → join → exit.
	if len(g.entry.succs) != 2 {
		t.Fatalf("condition block should have 2 successors, has %d", len(g.entry.succs))
	}
	if !reachableFrom(g)[g.exit] {
		t.Errorf("exit must be reachable")
	}
}

func TestCFGForLoop(t *testing.T) {
	g := buildCFG(parseBody(t, "for i := 0; i < n; i++ {\n a()\n}\nreturn nil"))
	// The head must be a join point: loop entry plus the back edge.
	var head *cfgBlock
	for _, b := range g.blocks {
		if b.npred >= 2 {
			head = b
		}
	}
	if head == nil {
		t.Fatalf("for loop must produce a back edge (a block with 2+ preds)")
	}
	if !reachableFrom(g)[g.exit] {
		t.Errorf("loop exit must be reachable via the condition")
	}
}

func TestCFGPanicTerminates(t *testing.T) {
	g := buildCFG(parseBody(t, "panic(\"boom\")\nx := 1\n_ = x\nreturn nil"))
	if len(g.entry.nodes) != 1 {
		t.Errorf("statements after panic are unreachable and must not be recorded; entry has %d nodes", len(g.entry.nodes))
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	g := buildCFG(parseBody(t, "switch x {\ncase 1:\n a()\n fallthrough\ncase 2:\n b()\n}\nreturn nil"))
	// The case-1 block must have an edge into the case-2 block: find a
	// non-head block whose successor also holds case expressions.
	found := false
	for _, b := range g.blocks {
		if b == g.entry {
			continue
		}
		for _, s := range b.succs {
			if len(s.nodes) > 0 && s.npred >= 2 { // case 2: entered from head and fallthrough
				found = true
			}
		}
	}
	if !found {
		t.Errorf("fallthrough edge from case 1 into case 2 not built")
	}
}

// TestForwardFlowJoin drives the dataflow engine with a may-analysis
// ("was x assigned?") over a branch: the join of a true arm and an
// untouched arm must be true.
func TestForwardFlowJoin(t *testing.T) {
	g := buildCFG(parseBody(t, "if c {\n x = 1\n}\nreturn nil"))
	lat := flowLattice[bool]{
		transfer: func(s bool, n ast.Node) bool {
			if _, ok := n.(*ast.AssignStmt); ok {
				return true
			}
			return s
		},
		join:  func(a, b bool) bool { return a || b },
		equal: func(a, b bool) bool { return a == b },
	}
	in := forwardFlow(g, false, lat)
	got, ok := in[g.exit]
	if !ok || !got {
		t.Errorf("exit in-state = (%v, %v); the assignment on one arm must survive the join", got, ok)
	}
}
