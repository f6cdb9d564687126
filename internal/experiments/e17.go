package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"zmail/internal/bank"
	"zmail/internal/clock"
	"zmail/internal/crypto"
	"zmail/internal/isp"
	"zmail/internal/mail"
	"zmail/internal/metrics"
	"zmail/internal/money"
	"zmail/internal/wire"
)

// authority is the protocol surface shared by the central bank and the
// §5 bank tree — the ISP engines cannot tell them apart.
type authority interface {
	Handle(env *wire.Envelope) error
	StartSnapshot() error
	RoundComplete() bool
	Enroll(index int, sealer crypto.Sealer) error
	Violations() []bank.Violation
}

// bankTree is the §5 two-level hierarchy as the daemons deploy it
// (internal/cluster, E21): one leaf Bank per region whose Compliant
// mask admits only that region's ISPs, and a Root that receives every
// credit report a leaf accepted — core.BankServer's forward rule —
// and verifies the cross-region pairs no leaf sees both sides of.
type bankTree struct {
	assign []int
	leaves []*bank.Bank
	root   *bank.Root
}

// newBankTree builds the root plus one leaf per region of assign,
// regions numbered from 0.
func newBankTree(assign []int, funds money.Penny, tr bank.Transport) (*bankTree, error) {
	t := &bankTree{assign: assign}
	for r := 0; r <= slices.Max(assign); r++ {
		mask := make([]bool, len(assign))
		for i, a := range assign {
			mask[i] = a == r
		}
		leaf, err := bank.New(bank.Config{
			NumISPs: len(assign), Compliant: mask, InitialAccount: funds,
			Transport: tr, OwnSealer: crypto.Null{},
		})
		if err != nil {
			return nil, err
		}
		t.leaves = append(t.leaves, leaf)
	}
	root, err := bank.NewRoot(bank.RootConfig{NumISPs: len(assign), Assign: assign, OwnSealer: crypto.Null{}})
	t.root = root
	return t, err
}

// Handle routes an ISP's envelope to its region's leaf and forwards a
// credit report upward only when the leaf accepted it.
func (t *bankTree) Handle(env *wire.Envelope) error {
	if err := t.leaves[t.assign[env.From]].Handle(env); err != nil {
		return err
	}
	if env.Kind == wire.KindReply {
		return t.root.Handle(env)
	}
	return nil
}

func (t *bankTree) StartSnapshot() error {
	for _, leaf := range t.leaves {
		if err := leaf.StartSnapshot(); err != nil {
			return err
		}
	}
	return nil
}

func (t *bankTree) RoundComplete() bool {
	for _, leaf := range t.leaves {
		if !leaf.RoundComplete() {
			return false
		}
	}
	return true
}

func (t *bankTree) Enroll(index int, sealer crypto.Sealer) error {
	return t.leaves[t.assign[index]].Enroll(index, sealer)
}

// Violations joins the leaves' intra-region flags with the root's
// cross-region ones.
func (t *bankTree) Violations() []bank.Violation {
	out := t.root.Violations()
	for _, leaf := range t.leaves {
		out = append(out, leaf.Violations()...)
	}
	return out
}

// fedRig wires n engines directly to an authority with a deferred
// delivery queue (no simulated network: E17 compares verification
// outcomes, not timing).
type fedRig struct {
	engines  []*isp.Engine
	auth     authority
	clk      *clock.Virtual
	deferred []func()
}

// rigTransport adapts one engine to the rig.
type rigTransport struct {
	rig   *fedRig
	index int
}

func (t *rigTransport) SendMail(toIndex int, _ string, msg *mail.Message) {
	fromDomain := t.rig.engines[t.index].Domain()
	t.rig.deferred = append(t.rig.deferred, func() {
		_ = t.rig.engines[toIndex].ReceiveRemote(fromDomain, msg)
	})
}

func (t *rigTransport) SendBank(env *wire.Envelope) {
	t.rig.deferred = append(t.rig.deferred, func() { _ = t.rig.auth.Handle(env) })
}

func (t *rigTransport) DeliverLocal(string, *mail.Message) {}
func (t *rigTransport) DeliverAck(string, *mail.Message)   {}

// bankToRig routes authority replies back to the engines.
type bankToRig fedRig

func (b *bankToRig) SendISP(index int, env *wire.Envelope) {
	r := (*fedRig)(b)
	r.deferred = append(r.deferred, func() { _ = r.engines[index].HandleBank(env) })
}

func (r *fedRig) settle() {
	for len(r.deferred) > 0 {
		q := r.deferred
		r.deferred = nil
		for _, fn := range q {
			fn()
		}
		r.clk.RunUntilIdle()
	}
}

// newFedRig builds n engines against the authority produced by mk.
func newFedRig(n int, mk func(bank.Transport) (authority, error)) (*fedRig, error) {
	rig := &fedRig{clk: clock.NewVirtual(time.Unix(1_100_000_000, 0))}
	auth, err := mk((*bankToRig)(rig))
	if err != nil {
		return nil, err
	}
	rig.auth = auth
	domains := make([]string, n)
	for i := range domains {
		domains[i] = fmt.Sprintf("isp%d.example", i)
	}
	dir := isp.NewDirectory(domains, nil)
	for i := 0; i < n; i++ {
		eng, err := isp.New(isp.Config{
			Index: i, Domain: domains[i], Directory: dir,
			Clock: rig.clk, Transport: &rigTransport{rig: rig, index: i},
			MinAvail: 10, MaxAvail: 1 << 40, InitialAvail: 1 << 20,
			DefaultLimit: 1 << 40, FreezeDuration: time.Millisecond,
			BankSealer: crypto.Null{}, OwnSealer: crypto.Null{},
		})
		if err != nil {
			return nil, err
		}
		if err := auth.Enroll(i, crypto.Null{}); err != nil {
			return nil, err
		}
		for u := 0; u < 3; u++ {
			if err := eng.RegisterUser(fmt.Sprintf("u%d", u), 1000, 500, 0); err != nil {
				return nil, err
			}
		}
		rig.engines = append(rig.engines, eng)
	}
	return rig, nil
}

// driveTraffic runs a deterministic workload with a cheater and one
// audit round, returning the flagged pairs.
func driveTraffic(rig *fedRig, seed int64, cheater int) (map[[2]int]bool, error) {
	const n = 6
	rig.engines[cheater].SetCheat(true)
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < 1200; k++ {
		from, to := rng.Intn(n), rng.Intn(n)
		msg := mail.NewMessage(
			mail.Address{Local: fmt.Sprintf("u%d", rng.Intn(3)), Domain: rig.engines[from].Domain()},
			mail.Address{Local: fmt.Sprintf("u%d", rng.Intn(3)), Domain: rig.engines[to].Domain()},
			"m", "b")
		if _, err := rig.engines[from].SubmitSync(msg); err != nil {
			return nil, err
		}
		rig.settle()
	}
	if err := rig.auth.StartSnapshot(); err != nil {
		return nil, err
	}
	rig.settle()
	if !rig.auth.RoundComplete() {
		return nil, fmt.Errorf("audit round incomplete")
	}
	flagged := map[[2]int]bool{}
	for _, v := range rig.auth.Violations() {
		flagged[[2]int{v.I, v.J}] = true
	}
	return flagged, nil
}

// E17 — multi-bank hierarchy (§5): "the role of the bank … can be
// implemented as a set of distributed banks or a hierarchy of banks."
// The two-level tree E21 deploys must flag exactly the pairs the
// central bank flags on identical traffic, while the root sees no
// buy/sell traffic and checks only the cross-region pairs.
func E17(seed int64) (*Result, error) {
	const n = 6
	const cheater = 3
	const pairs = n * (n - 1) / 2

	centralRig, err := newFedRig(n, func(tr bank.Transport) (authority, error) {
		return bank.New(bank.Config{
			NumISPs: n, InitialAccount: 1_000_000,
			Transport: tr, OwnSealer: crypto.Null{},
		})
	})
	if err != nil {
		return nil, err
	}
	centralFlags, err := driveTraffic(centralRig, seed, cheater)
	if err != nil {
		return nil, err
	}

	var tree *bankTree
	hierRig, err := newFedRig(n, func(tr bank.Transport) (authority, error) {
		t, err := newBankTree([]int{0, 1, 0, 1, 0, 1}, 1_000_000, tr)
		tree = t
		return t, err
	})
	if err != nil {
		return nil, err
	}
	hierFlags, err := driveTraffic(hierRig, seed, cheater)
	if err != nil {
		return nil, err
	}

	table := metrics.NewTable("E17: central bank vs 2-region hierarchy, identical 1200-msg workload + cheater isp[3]",
		"property", "central bank", "hierarchy")
	identical := len(centralFlags) == len(hierFlags)
	for p := range centralFlags {
		if !hierFlags[p] {
			identical = false
		}
	}
	onlyCheater := true
	for p := range hierFlags {
		if p[0] != cheater && p[1] != cheater {
			onlyCheater = false
		}
	}
	rs := tree.root.Stats()
	table.AddRow("pairs flagged", len(centralFlags), len(hierFlags))
	table.AddRow("flag sets identical", "-", identical)
	table.AddRow("ISP reports at root", n, fmt.Sprintf("%d via %d leaf banks", rs.Reports, len(tree.leaves)))
	table.AddRow("pairs checked at root", pairs, fmt.Sprintf("%d cross-region", rs.CrossPairs))
	table.AddRow("buy/sell traffic at root", "all of it", "none (regional)")
	table.AddRow("cross-region cheats caught", "-", onlyCheater && len(hierFlags) > 0)

	pass := identical && onlyCheater && len(hierFlags) > 0 &&
		rs.Reports == n && rs.Rounds == 1 && rs.CrossPairs == 9
	notes := fmt.Sprintf("hierarchy flagged the same %d cheater pairs; root load per audit: %d forwarded reports, %d of %d pairs checked",
		len(hierFlags), rs.Reports, rs.CrossPairs, pairs)
	return &Result{
		ID:    "E17",
		Title: "a bank hierarchy preserves detection while shrinking the root's load",
		Table: table,
		Pass:  pass,
		Notes: notes,
	}, nil
}
