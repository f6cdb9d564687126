package bank

import (
	"testing"

	"zmail/internal/crypto"
	"zmail/internal/hammer"
	"zmail/internal/metrics"
)

// hammerRounds is how many drive rounds each hammer runs at least.
const hammerRounds = 100

// cheatReports is one audit round's credit reports for three ISPs:
// isp0 and isp1 disagree about their pair, so every round flags a
// violation, and isp1 owes isp2 an honest 2, so every round settles a
// transfer.
var cheatReports = [][]int64{{0, 1, 0}, {0, 0, 2}, {0, -2, 0}}

// TestBankHammer calls every exported read of a Bank while one
// goroutine drives all its writers: batch orders, deposits, enrolment,
// audit rounds that flag a violation and settle, aborted rounds, and
// the WAL's attach, checkpoint, compaction, close and recovery. Under
// -race it is the check that every read takes b.mu.
func TestBankHammer(t *testing.T) {
	b, err := New(Config{NumISPs: 3, InitialAccount: 1 << 20, Transport: sinkTransport{},
		OwnSealer: crypto.Null{}, SettleOnVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		if err := b.Enroll(i, crypto.Null{}); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	reads := map[string]func(){
		"Account": func() {
			for i := range 3 {
				_, _ = b.Account(i)
			}
		},
		"Collect":            func() { b.Collect(reg) },
		"ExportState":        func() { _ = b.ExportState() },
		"LastRoundCreditSum": func() { _ = b.LastRoundCreditSum() },
		"LastTransfers":      func() { _ = b.LastTransfers() },
		"Outstanding":        func() { _ = b.Outstanding() },
		"RoundComplete":      func() { _ = b.RoundComplete() },
		"Stats":              func() { _ = b.Stats() },
		"TotalAccounts":      func() { _ = b.TotalAccounts() },
		"Violations":         func() { _ = b.Violations() },
		"WALAttached":        func() { _ = b.WALAttached() },
		"WALErrors":          func() { _ = b.WALErrors() },
	}
	writers := []string{"AbortRound", "AttachWAL", "Checkpoint", "CloseWAL", "CompactWAL",
		"Deposit", "Enroll", "Handle", "RecoverWAL", "StartSnapshot"}
	var seq, nonce uint64
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	hammer.Run(t, hammerRounds, func(round int) {
		switch {
		case round == 0:
			must(b.AttachWAL(dir))
		case round%50 == 49:
			must(b.CloseWAL())
			must(b.RecoverWAL(dir))
		case round%20 == 19:
			must(b.Checkpoint())
			must(b.CompactWAL())
		}
		for g := range 3 {
			nonce++
			must(b.Handle(batchEnv(int32(g), 3, 1, nonce)))
		}
		must(b.Deposit(round%3, 5))
		must(b.Enroll(round%3, crypto.Null{}))
		must(b.StartSnapshot())
		if round%10 == 9 {
			must(b.AbortRound())
			seq++
			return
		}
		for g, credits := range cheatReports {
			must(b.Handle(reportEnv(int32(g), seq, credits)))
		}
		seq++
		if !b.RoundComplete() {
			t.Fatalf("round %d did not complete", round)
		}
	}, hammer.Target{V: b, Reads: reads, Writers: writers})
	if len(b.Violations()) == 0 || len(b.LastTransfers()) == 0 {
		t.Fatal("the drive flagged no violation or settled no transfer")
	}
	must(b.CloseWAL())
}

// TestRootHammer calls every exported read of a Root while one
// goroutine feeds it forwarded credit reports, each round flagging a
// cross-region violation.
func TestRootHammer(t *testing.T) {
	r := newTestRoot(t, []int{0, 1, 1}, nil)
	reg := metrics.NewRegistry()
	reads := map[string]func(){
		"Collect":        func() { r.Collect(reg) },
		"RoundsVerified": func() { _ = r.RoundsVerified() },
		"Stats":          func() { _ = r.Stats() },
		"Violations":     func() { _ = r.Violations() },
	}
	hammer.Run(t, hammerRounds, func(round int) {
		for g, credits := range cheatReports {
			if err := r.Handle(report(t, g, uint64(round), credits)); err != nil {
				t.Fatal(err)
			}
		}
	}, hammer.Target{V: r, Reads: reads, Writers: []string{"Handle"}})
	if len(r.Violations()) == 0 {
		t.Fatal("the drive flagged no cross-region violation")
	}
}
