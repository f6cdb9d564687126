package bank

import (
	"testing"
	"testing/quick"

	"zmail/internal/crypto"
	"zmail/internal/money"
)

func newSettlingBank(t *testing.T, n int, funds money.Penny) (*Bank, *fakeTransport) {
	t.Helper()
	ft := newFake()
	b, err := New(Config{
		NumISPs:        n,
		InitialAccount: funds,
		Transport:      ft,
		OwnSealer:      crypto.Null{},
		SettleOnVerify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := b.Enroll(i, crypto.Null{}); err != nil {
			t.Fatal(err)
		}
	}
	return b, ft
}

// pairwiseAccounts is the one-transfer-per-pair settlement rule, kept
// here as the reference netting must agree with: for every pair, isp[i]
// pays credit_i[j] to isp[j] at the nominal rate. Funds must be ample
// enough that nobody falls short.
func pairwiseAccounts(funds money.Penny, reports [][]int64) []money.Penny {
	out := make([]money.Penny, len(reports))
	for i := range out {
		out[i] = funds
	}
	for i := range reports {
		for j := i + 1; j < len(reports); j++ {
			out[i] -= money.Penny(reports[i][j])
			out[j] += money.Penny(reports[i][j])
		}
	}
	return out
}

// settleRound runs one audit round over reports and returns the
// resulting accounts.
func settleRound(t *testing.T, b *Bank, reports [][]int64) []money.Penny {
	t.Helper()
	if err := b.StartSnapshot(); err != nil {
		t.Fatal(err)
	}
	for g, credits := range reports {
		_ = b.Handle(reportEnv(int32(g), 0, credits))
	}
	if !b.RoundComplete() {
		t.Fatal("round incomplete")
	}
	out := make([]money.Penny, len(reports))
	for i := range out {
		out[i], _ = b.Account(i)
	}
	return out
}

func TestSettlementMovesMoneyToNetReceivers(t *testing.T) {
	b, _ := newSettlingBank(t, 3, 1000)
	// A cycle of net flows: isp0 sent 5 net to isp1, isp1 sent 7 net to
	// isp2, and isp2 sent 2 net to isp0 (credit_2[0] = +2). One transfer
	// per pair would move 5 + 7 + 2 = 14 pennies in 3 transfers; netting
	// collapses the positions to owes = [+3, +2, -5] and settles the
	// round in 2 transfers (0→2: 3, 1→2: 2) moving 5, landing every
	// account on the same balance.
	reports := [][]int64{{0, 5, -2}, {-5, 0, 7}, {2, -7, 0}}
	got := settleRound(t, b, reports)
	want := pairwiseAccounts(1000, reports)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("account[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if want[0] != 997 || want[1] != 998 || want[2] != 1005 {
		t.Fatalf("pairwise reference = %v, want [997 998 1005]", want)
	}
	transfers := b.LastTransfers()
	wantT := []Transfer{{From: 0, To: 2, Amount: 3}, {From: 1, To: 2, Amount: 2}}
	if len(transfers) != len(wantT) || transfers[0] != wantT[0] || transfers[1] != wantT[1] {
		t.Fatalf("transfers = %v, want %v", transfers, wantT)
	}
	st := b.Stats()
	if st.SettledPennies != 5 || st.SettlementTransfers != 2 || st.SettlementShortfalls != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSettlementConservesTotalMoney(t *testing.T) {
	f := func(a, bb, c int16) bool {
		bk, _ := newSettlingBank(t, 3, 100_000)
		before := bk.TotalAccounts()
		if err := bk.StartSnapshot(); err != nil {
			return false
		}
		x, y, z := int64(a%1000), int64(bb%1000), int64(c%1000)
		_ = bk.Handle(reportEnv(0, 0, []int64{0, x, -z}))
		_ = bk.Handle(reportEnv(1, 0, []int64{-x, 0, y}))
		_ = bk.Handle(reportEnv(2, 0, []int64{z, -y, 0}))
		return bk.RoundComplete() && bk.TotalAccounts() == before && len(bk.Violations()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSettlementSkipsFlaggedPairs(t *testing.T) {
	b, _ := newSettlingBank(t, 2, 1000)
	_ = b.StartSnapshot()
	// isp1 understates: claims -3 where isp0 claims +10.
	_ = b.Handle(reportEnv(0, 0, []int64{0, 10}))
	_ = b.Handle(reportEnv(1, 0, []int64{-3, 0}))
	if len(b.Violations()) != 1 {
		t.Fatal("pair not flagged")
	}
	a0, _ := b.Account(0)
	a1, _ := b.Account(1)
	if a0 != 1000 || a1 != 1000 {
		t.Fatalf("flagged pair settled anyway: %v/%v", a0, a1)
	}
	if len(b.LastTransfers()) != 0 {
		t.Fatal("transfers recorded for a flagged round")
	}
}

func TestSettlementShortfall(t *testing.T) {
	b, _ := newSettlingBank(t, 2, 3) // isp0 can only cover 3 of 10
	_ = b.StartSnapshot()
	_ = b.Handle(reportEnv(0, 0, []int64{0, 10}))
	_ = b.Handle(reportEnv(1, 0, []int64{-10, 0}))
	a0, _ := b.Account(0)
	a1, _ := b.Account(1)
	if a0 != 0 || a1 != 6 {
		t.Fatalf("shortfall accounts = %v/%v, want 0/6", a0, a1)
	}
	if b.Stats().SettlementShortfalls != 1 {
		t.Fatal("shortfall not counted")
	}
}

func TestSettlementDisabledByDefault(t *testing.T) {
	b, _ := newBank(t, 2, nil)
	_ = b.StartSnapshot()
	_ = b.Handle(reportEnv(0, 0, []int64{0, 4}))
	_ = b.Handle(reportEnv(1, 0, []int64{-4, 0}))
	a0, _ := b.Account(0)
	if a0 != 1000 {
		t.Fatal("settlement ran while disabled")
	}
}

// TestGroupSettleNetsTransfers: a chain of equal flows through
// intermediaries nets to one transfer from the head to the tail, where
// one transfer per pair would make three.
func TestGroupSettleNetsTransfers(t *testing.T) {
	b, _ := newSettlingBank(t, 4, 1000)
	got := settleRound(t, b, [][]int64{
		{0, 5, 0, 0},
		{-5, 0, 5, 0},
		{0, -5, 0, 5},
		{0, 0, -5, 0},
	})
	if got[0] != 995 || got[1] != 1000 || got[2] != 1000 || got[3] != 1005 {
		t.Fatalf("accounts = %v, want [995 1000 1000 1005]", got)
	}
	if tr := b.LastTransfers(); len(tr) != 1 || tr[0] != (Transfer{From: 0, To: 3, Amount: 5}) {
		t.Fatalf("transfers = %v, want one 0→3 of 5", tr)
	}
}

// TestGroupSettleConservesTotalMoney: random honest rounds over four
// ISPs never create or destroy real money.
func TestGroupSettleConservesTotalMoney(t *testing.T) {
	f := func(flows [6]int16) bool {
		bk, _ := newSettlingBank(t, 4, 100_000)
		before := bk.TotalAccounts()
		reports := make([][]int64, 4)
		for i := range reports {
			reports[i] = make([]int64, 4)
		}
		k := 0
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				v := int64(flows[k] % 1000)
				reports[i][j], reports[j][i] = v, -v
				k++
			}
		}
		settleRound(t, bk, reports)
		return bk.TotalAccounts() == before && len(bk.Violations()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestGroupSettleMatchesPairwiseAccounts(t *testing.T) {
	// Netting changes the transfer list, never the final accounts: every
	// ISP lands on the balance one transfer per pair would leave.
	f := func(a, bb, c int16) bool {
		x, y, z := int64(a%1000), int64(bb%1000), int64(c%1000)
		reports := [][]int64{{0, x, -z}, {-x, 0, y}, {z, -y, 0}}
		bk, _ := newSettlingBank(t, 3, 100_000)
		got, want := settleRound(t, bk, reports), pairwiseAccounts(100_000, reports)
		return got[0] == want[0] && got[1] == want[1] && got[2] == want[2]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestGroupSettleShortfall: a debtor owing two creditors more than its
// account holds pays what it has, and the sweep pays creditors in index
// order, so the later one is the one left short.
func TestGroupSettleShortfall(t *testing.T) {
	b, _ := newSettlingBank(t, 3, 5)
	got := settleRound(t, b, [][]int64{{0, 6, 4}, {-6, 0, 0}, {-4, 0, 0}})
	if got[0] != 0 || got[1] != 10 || got[2] != 5 {
		t.Fatalf("shortfall accounts = %v, want [0 10 5]", got)
	}
	if st := b.Stats(); st.SettlementShortfalls != 1 || st.SettledPennies != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestGroupSettleSkipsFlaggedPairs: a flagged pair drops out of the
// netting while the round's verified pairs still settle.
func TestGroupSettleSkipsFlaggedPairs(t *testing.T) {
	b, _ := newSettlingBank(t, 3, 1000)
	// isp1 understates its pair with isp0 (-3 against +10); the 0→2
	// flow of 4 verifies.
	got := settleRound(t, b, [][]int64{{0, 10, 4}, {-3, 0, 0}, {-4, 0, 0}})
	if v := b.Violations(); len(v) != 1 || v[0].I != 0 || v[0].J != 1 {
		t.Fatalf("violations = %v, want isp0/isp1", v)
	}
	if got[0] != 996 || got[1] != 1000 || got[2] != 1004 {
		t.Fatalf("accounts = %v, want [996 1000 1004]", got)
	}
}

// TestSettlementEndToEndMeaning ties the pieces together: after
// settlement, each ISP's bank account reflects the net e-penny flow its
// users produced, so an ISP whose users are net receivers (a popular
// newsletter host, say) is made whole in real money.
func TestSettlementEndToEndMeaning(t *testing.T) {
	b, _ := newSettlingBank(t, 2, 1000)
	for round := uint64(0); round < 3; round++ {
		if err := b.StartSnapshot(); err != nil {
			t.Fatal(err)
		}
		// Every period, isp0's users net-send 10 to isp1's users.
		_ = b.Handle(reportEnv(0, round, []int64{0, 10}))
		_ = b.Handle(reportEnv(1, round, []int64{-10, 0}))
	}
	a0, _ := b.Account(0)
	a1, _ := b.Account(1)
	if a0 != 970 || a1 != 1030 {
		t.Fatalf("after 3 periods: %v/%v, want 970/1030", a0, a1)
	}
}
