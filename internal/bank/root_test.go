package bank

import (
	"errors"
	"testing"

	"zmail/internal/crypto"
	"zmail/internal/wire"
)

// report builds the forwarded envelope isp g would send for round seq
// with the given credit array, sealed with the shared (null) bank key.
func report(t *testing.T, g int, seq uint64, credits []int64) *wire.Envelope {
	t.Helper()
	body := (&wire.CreditReport{Seq: seq, Credits: credits}).MarshalBinary()
	sealed, err := crypto.Null{}.Seal(body)
	if err != nil {
		t.Fatal(err)
	}
	return &wire.Envelope{Kind: wire.KindReply, From: int32(g), Payload: sealed}
}

func newTestRoot(t *testing.T, assign []int, compliant []bool) *Root {
	t.Helper()
	r, err := NewRoot(RootConfig{
		NumISPs:   len(assign),
		Assign:    assign,
		Compliant: compliant,
		OwnSealer: crypto.Null{},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRootConfigValidation(t *testing.T) {
	if _, err := NewRoot(RootConfig{NumISPs: 0, OwnSealer: crypto.Null{}}); err == nil {
		t.Error("zero NumISPs accepted")
	}
	if _, err := NewRoot(RootConfig{NumISPs: 2, Assign: []int{0}, OwnSealer: crypto.Null{}}); err == nil {
		t.Error("short Assign accepted")
	}
	if _, err := NewRoot(RootConfig{NumISPs: 2, Assign: []int{0, 1}}); err == nil {
		t.Error("missing OwnSealer accepted")
	}
	if _, err := NewRoot(RootConfig{NumISPs: 2, Assign: []int{0, 1}, Compliant: []bool{true}, OwnSealer: crypto.Null{}}); err == nil {
		t.Error("short Compliant accepted")
	}
}

// TestRootCrossRegionOnly: a clean cross-region round verifies with no
// violations, and an intra-region mismatch is NOT the root's problem
// (its leaf flags it) while a cross-region mismatch is.
func TestRootCrossRegionOnly(t *testing.T) {
	// Regions: {0,1} and {2,3}.
	r := newTestRoot(t, []int{0, 0, 1, 1}, nil)

	// Round 0: isp0↔isp2 balanced, isp1↔isp3 balanced; the intra-region
	// pair isp0↔isp1 is wildly inconsistent (5 + 5 != 0) but must not
	// be flagged here.
	reports := [][]int64{
		{0, 5, 7, 0},
		{5, 0, 0, -2},
		{-7, 0, 0, 0},
		{0, 2, 0, 0},
	}
	for g, credits := range reports {
		if err := r.Handle(report(t, g, 0, credits)); err != nil {
			t.Fatalf("isp%d report: %v", g, err)
		}
	}
	if got := r.RoundsVerified(); got != 1 {
		t.Fatalf("RoundsVerified = %d, want 1", got)
	}
	if v := r.Violations(); len(v) != 0 {
		t.Fatalf("clean cross-region round flagged %v", v)
	}
	st := r.Stats()
	if st.CrossPairs != 4 { // (0,2) (0,3) (1,2) (1,3)
		t.Fatalf("CrossPairs = %d, want 4", st.CrossPairs)
	}

	// Round 1: isp0 understates its debt to isp3 (cheater): 3 + (-1) != 0.
	reports = [][]int64{
		{0, 0, 0, -1},
		{0, 0, 0, 0},
		{0, 0, 0, 0},
		{3, 0, 0, 0},
	}
	for g, credits := range reports {
		if err := r.Handle(report(t, g, 1, credits)); err != nil {
			t.Fatalf("round 1 isp%d report: %v", g, err)
		}
	}
	v := r.Violations()
	if len(v) != 1 || v[0].I != 0 || v[0].J != 3 {
		t.Fatalf("violations = %v, want exactly isp0/isp3", v)
	}
}

func TestRootRejectsDuplicatesAndStrays(t *testing.T) {
	key := keySealer(1)
	r, err := NewRoot(RootConfig{NumISPs: 2, Assign: []int{0, 1}, OwnSealer: key})
	if err != nil {
		t.Fatal(err)
	}
	sealed := func(g int, seq uint64, credits []int64) *wire.Envelope {
		return key.sealed(reportEnv(int32(g), seq, credits))
	}
	if err := r.Handle(sealed(0, 0, []int64{0, 0})); err != nil {
		t.Fatal(err)
	}
	if err := r.Handle(sealed(0, 0, []int64{0, 0})); !errors.Is(err, ErrReplay) {
		t.Fatalf("duplicate report = %v, want ErrReplay", err)
	}
	if err := r.Handle(sealed(7, 0, []int64{0, 0})); !errors.Is(err, ErrUnknownISP) {
		t.Fatalf("out-of-range From = %v, want ErrUnknownISP", err)
	}
	if err := r.Handle(&wire.Envelope{Kind: wire.KindBatchOrder, From: 0}); err == nil {
		t.Error("order on the uplink accepted")
	}
	if err := r.Handle(&wire.Envelope{Kind: wire.KindHello, From: 0}); err != nil {
		t.Errorf("hello = %v, want nil", err)
	}
	// isp1's report, which would complete the round, truncated or sealed
	// to another key: refused with the decoder's or the sealer's error.
	truncated := reportEnv(1, 0, []int64{0, 0})
	truncated.Payload = truncated.Payload[:len(truncated.Payload)-1]
	if err := r.Handle(key.sealed(truncated)); !errors.Is(err, wire.ErrShortMessage) {
		t.Fatalf("truncated report = %v, want wire.ErrShortMessage", err)
	}
	if err := r.Handle(keySealer(2).sealed(reportEnv(1, 0, []int64{0, 0}))); !errors.Is(err, crypto.ErrBadSeal) {
		t.Fatalf("report sealed to another key = %v, want crypto.ErrBadSeal", err)
	}
	if st := r.Stats(); st.Replays != 2 || st.Reports != 1 || st.Rounds != 0 {
		t.Fatalf("stats = %+v, want 2 replays and isp0's report alone", st)
	}
}

// TestRootNonCompliant: non-compliant ISPs never report and never
// block round completion.
func TestRootNonCompliant(t *testing.T) {
	r := newTestRoot(t, []int{0, 0, 1}, []bool{true, false, true})
	if err := r.Handle(report(t, 0, 0, []int64{0, 0, 4})); err != nil {
		t.Fatal(err)
	}
	if err := r.Handle(report(t, 2, 0, []int64{-4, 0, 0})); err != nil {
		t.Fatal(err)
	}
	if got := r.RoundsVerified(); got != 1 {
		t.Fatalf("round did not complete without the non-compliant report (rounds=%d)", got)
	}
	if err := r.Handle(report(t, 1, 0, []int64{0, 0, 0})); !errors.Is(err, ErrUnknownISP) {
		t.Fatalf("non-compliant report = %v, want ErrUnknownISP", err)
	}
}

// TestRootInterleavedRounds: reports from two rounds arriving
// interleaved (leaves run at slightly different phase) still land in
// the right rounds, and abandoned partial rounds are pruned.
func TestRootInterleavedRounds(t *testing.T) {
	r := newTestRoot(t, []int{0, 1}, nil)
	if err := r.Handle(report(t, 0, 0, []int64{0, 1})); err != nil {
		t.Fatal(err)
	}
	if err := r.Handle(report(t, 0, 1, []int64{0, 2})); err != nil {
		t.Fatal(err)
	}
	if err := r.Handle(report(t, 1, 1, []int64{-2, 0})); err != nil {
		t.Fatal(err)
	}
	if err := r.Handle(report(t, 1, 0, []int64{-1, 0})); err != nil {
		t.Fatal(err)
	}
	if got := r.RoundsVerified(); got != 2 {
		t.Fatalf("RoundsVerified = %d, want 2", got)
	}
	if v := r.Violations(); len(v) != 0 {
		t.Fatalf("balanced interleaved rounds flagged %v", v)
	}

	// A stale partial round far behind the frontier is pruned.
	if err := r.Handle(report(t, 0, 10, []int64{0, 0})); err != nil {
		t.Fatal(err)
	}
	if err := r.Handle(report(t, 0, 10+rootMaxOpenRounds+1, []int64{0, 0})); err != nil {
		t.Fatal(err)
	}
	if n := r.openRounds(); n != 1 {
		t.Fatalf("openRounds = %d after prune, want 1", n)
	}
}

// testTree is the §5 tree the daemons deploy: region-masked leaf Banks,
// each forwarding to the Root only the reports it accepted
// (core.BankServer's forward rule).
type testTree struct {
	assign []int
	leaves []*Bank
	fts    []*fakeTransport
	root   *Root
}

func newTestTree(t *testing.T, assign []int, regions int) *testTree {
	t.Helper()
	tr := &testTree{assign: assign, root: newTestRoot(t, assign, nil)}
	for r := 0; r < regions; r++ {
		mask := make([]bool, len(assign))
		for i, a := range assign {
			mask[i] = a == r
		}
		leaf, ft := newBank(t, len(assign), mask)
		tr.leaves = append(tr.leaves, leaf)
		tr.fts = append(tr.fts, ft)
	}
	return tr
}

func (tr *testTree) start(t *testing.T) {
	t.Helper()
	for _, leaf := range tr.leaves {
		if err := leaf.StartSnapshot(); err != nil {
			t.Fatal(err)
		}
	}
}

// deliver hands isp g's report to every leaf; exactly the one whose
// mask covers g must accept it, and that leaf forwards it to the root.
func (tr *testTree) deliver(t *testing.T, g int, seq uint64, credits []int64) {
	t.Helper()
	forwarded := 0
	for _, leaf := range tr.leaves {
		env := reportEnv(int32(g), seq, credits)
		if leaf.Handle(env) != nil {
			continue
		}
		forwarded++
		if err := tr.root.Handle(env); err != nil {
			t.Fatalf("root rejected isp%d's forwarded report: %v", g, err)
		}
	}
	if forwarded != 1 {
		t.Fatalf("isp%d's report accepted by %d leaves, want 1", g, forwarded)
	}
}

func (tr *testTree) roundComplete() bool {
	for _, leaf := range tr.leaves {
		if !leaf.RoundComplete() {
			return false
		}
	}
	return true
}

// flags returns the pairs the leaves flagged and the pairs the root did.
func (tr *testTree) flags() (leaf, root map[[2]int]bool) {
	var vs []Violation
	for _, l := range tr.leaves {
		vs = append(vs, l.Violations()...)
	}
	return pairSet(vs), pairSet(tr.root.Violations())
}

func pairSet(vs []Violation) map[[2]int]bool {
	out := map[[2]int]bool{}
	for _, v := range vs {
		out[[2]int{v.I, v.J}] = true
	}
	return out
}

// treeAssign puts isps 0 and 2 in region 0, isps 1 and 3 in region 1.
var treeAssign = []int{0, 1, 0, 1}

// hierarchyHonestReports are honest reports for the 4 ISPs of
// treeAssign. Net flows: 0→1: 5 (cross), 0→2: 3 (intra region 0),
// 1→3: 2 (intra region 1), 2→3: 7 (cross).
func hierarchyHonestReports() [][]int64 {
	return [][]int64{
		{0, 5, 3, 0},
		{-5, 0, 0, 2},
		{-3, 0, 0, 7},
		{0, -2, -7, 0},
	}
}

func TestHierarchyHonestRound(t *testing.T) {
	tr := newTestTree(t, treeAssign, 2)
	tr.start(t)
	if tr.roundComplete() {
		t.Fatal("complete before replies")
	}
	for _, leaf := range tr.leaves {
		if err := leaf.StartSnapshot(); !errors.Is(err, ErrRoundActive) {
			t.Fatalf("double start: %v", err)
		}
	}
	// Each ISP is asked once, by its own leaf only.
	for i, r := range treeAssign {
		for l, ft := range tr.fts {
			want := 0
			if l == r {
				want = 1
			}
			if len(ft.out[i]) != want {
				t.Fatalf("leaf %d sent isp%d %d requests, want %d", l, i, len(ft.out[i]), want)
			}
			if want == 1 && ft.out[i][0].Kind != wire.KindRequest {
				t.Fatalf("leaf %d sent isp%d %+v, want a request", l, i, ft.out[i][0])
			}
		}
	}
	for g, credits := range hierarchyHonestReports() {
		tr.deliver(t, g, 0, credits)
	}
	if !tr.roundComplete() {
		t.Fatal("round incomplete")
	}
	if leafFlags, rootFlags := tr.flags(); len(leafFlags)+len(rootFlags) != 0 {
		t.Fatalf("honest round flagged leaves %v, root %v", leafFlags, rootFlags)
	}
	if st := tr.root.Stats(); st.Reports != 4 || st.Rounds != 1 || st.CrossPairs != 4 {
		t.Fatalf("root stats = %+v, want 4 reports, 1 round, 4 cross pairs", st)
	}
}

func TestHierarchyFlagsCrossRegionCheater(t *testing.T) {
	tr := newTestTree(t, treeAssign, 2)
	tr.start(t)
	reports := hierarchyHonestReports()
	// isp1 (region 1) understates what it owes isp0 (region 0) — a
	// cross-region cheat — and drops its flow to isp3 (intra-region).
	reports[1] = []int64{-2, 0, 0, 0}
	for g, credits := range reports {
		tr.deliver(t, g, 0, credits)
	}
	leafFlags, rootFlags := tr.flags()
	if len(rootFlags) != 1 || !rootFlags[[2]int{0, 1}] {
		t.Fatalf("root flagged %v, want exactly the cross-region pair 0/1", rootFlags)
	}
	if len(leafFlags) != 1 || !leafFlags[[2]int{1, 3}] {
		t.Fatalf("leaves flagged %v, want exactly the intra-region pair 1/3", leafFlags)
	}
}

// runCentralAndTree feeds the same round of reports to one central
// Bank and to a testTree over treeAssign.
func runCentralAndTree(t *testing.T, reports [][]int64) (central map[[2]int]bool, tr *testTree) {
	t.Helper()
	c, _ := newBank(t, len(treeAssign), nil)
	if err := c.StartSnapshot(); err != nil {
		t.Fatal(err)
	}
	tr = newTestTree(t, treeAssign, 2)
	tr.start(t)
	for g, credits := range reports {
		if err := c.Handle(reportEnv(int32(g), 0, credits)); err != nil {
			t.Fatal(err)
		}
		tr.deliver(t, g, 0, credits)
	}
	if !c.RoundComplete() || !tr.roundComplete() {
		t.Fatal("round incomplete")
	}
	return pairSet(c.Violations()), tr
}

// sameFlags fails t unless the tree's leaf and root flags together are
// exactly central's.
func sameFlags(t *testing.T, central map[[2]int]bool, tr *testTree) {
	t.Helper()
	leafFlags, rootFlags := tr.flags()
	if len(central) != len(leafFlags)+len(rootFlags) {
		t.Fatalf("central flagged %v, tree flagged %v + %v", central, leafFlags, rootFlags)
	}
	for p := range central {
		if !leafFlags[p] && !rootFlags[p] {
			t.Fatalf("tree missed central's pair %v", p)
		}
	}
}

// TestHierarchyMatchesCentralBank: on identical reports, the tree's
// leaves and root together flag exactly the pairs one central Bank
// flags.
func TestHierarchyMatchesCentralBank(t *testing.T) {
	reports := hierarchyHonestReports()
	reports[2] = []int64{-3, 0, 0, 4} // isp2 understates its 2→3 flow
	central, tr := runCentralAndTree(t, reports)
	if len(central) == 0 {
		t.Fatal("central bank flagged nothing")
	}
	sameFlags(t, central, tr)
}

// TestLeavesAndRootMatchCentral runs the §5 tree the daemons deploy
// over an honest round, a cross-region cheat and a mixed cheat: the
// honest round flags nothing, the root flags only cross-region pairs
// and the leaves only intra-region ones, and together they flag
// exactly what one central Bank flags.
func TestLeavesAndRootMatchCentral(t *testing.T) {
	crossOnly := hierarchyHonestReports()
	crossOnly[2] = []int64{-3, 0, 0, 4}
	mixed := hierarchyHonestReports()
	mixed[1] = []int64{-2, 0, 0, 0}

	for n, reports := range [][][]int64{hierarchyHonestReports(), crossOnly, mixed} {
		central, tr := runCentralAndTree(t, reports)
		sameFlags(t, central, tr)
		leafFlags, rootFlags := tr.flags()
		if n == 0 && len(leafFlags)+len(rootFlags) != 0 {
			t.Fatalf("honest round flagged leaves %v, root %v", leafFlags, rootFlags)
		}
		for p := range rootFlags {
			if treeAssign[p[0]] == treeAssign[p[1]] {
				t.Fatalf("root flagged intra-region pair %v", p)
			}
		}
		for p := range leafFlags {
			if treeAssign[p[0]] != treeAssign[p[1]] {
				t.Fatalf("leaves flagged cross-region pair %v", p)
			}
		}
	}
}
