package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"zmail/internal/bank"
	"zmail/internal/chaos"
	"zmail/internal/simnet"
	"zmail/internal/wire"
)

// acceptancePlan is the canonical chaos scenario: two distinct ISPs and
// the bank all crash mid-day (at quiescent instants) and restart from
// their persisted ledgers, with a partition window layered on top.
func acceptancePlan() *chaos.Plan {
	return &chaos.Plan{
		Seed:         4242,
		AtQuiescence: true,
		Events: []chaos.Event{
			{At: 10 * time.Minute, Kind: chaos.KindCrashISP, Node: 1},
			{At: 15 * time.Minute, Kind: chaos.KindCrashBank},
			{At: 22 * time.Minute, Kind: chaos.KindRestartISP, Node: 1},
			{At: 30 * time.Minute, Kind: chaos.KindCrashISP, Node: 2},
			{At: 34 * time.Minute, Kind: chaos.KindRestartBank},
			{At: 45 * time.Minute, Kind: chaos.KindRestartISP, Node: 2},
			{At: 50 * time.Minute, Kind: chaos.KindPartition, Node: 0, Peer: 3},
			{At: 60 * time.Minute, Kind: chaos.KindHeal},
		},
	}
}

// chaosWorkload cross-sends mail among live ISPs every step and drains
// e-pennies from ISP 0's pool so the restock path generates real bank
// traffic (and therefore replay-probe material) around the crashes.
func chaosWorkload(w *World) func(step int) {
	return func(step int) {
		n := w.Cfg.NumISPs
		for i := 0; i < n; i++ {
			if w.ISPDown(i) {
				continue
			}
			for j := 0; j < n; j++ {
				if i == j || w.ISPDown(j) {
					continue
				}
				_, _ = w.Send(w.UserAddr(i, step%w.Cfg.UsersPerISP), w.UserAddr(j, 0),
					fmt.Sprintf("s%d", step), "chaos traffic")
			}
		}
		if !w.ISPDown(0) {
			// Pull pool inventory into a user wallet; once the pool sinks
			// below MinAvail the engine buys from the bank on its next
			// tick.
			_ = w.Engines[0].BuyEPennies("u0", 40)
			_ = w.Engines[0].Tick()
		}
		w.Run()
	}
}

func chaosWorld(t *testing.T, plan *chaos.Plan) *World {
	t.Helper()
	w, err := NewWorld(Config{
		NumISPs:      4,
		UsersPerISP:  3,
		Seed:         99,
		MinAvail:     200,
		MaxAvail:     4000,
		InitialAvail: 520,
		RestockRetry: 2 * time.Minute,
		Chaos:        plan,
		ChaosDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestChaosAcceptanceScenario is the PR's acceptance criterion: the
// seeded scenario crashes ≥2 ISPs and the bank mid-day, restarts them
// from persisted state, finishes with zero auditor violations, and two
// identical runs produce byte-identical audit reports.
func TestChaosAcceptanceScenario(t *testing.T) {
	events := acceptancePlan().Events
	last := events[len(events)-1].At
	run := func() (string, int) {
		w := chaosWorld(t, acceptancePlan())
		aud := chaos.NewAuditor()
		start := w.Clock.Now()
		if err := w.RunChaos(aud, chaosWorkload(w)); err != nil {
			t.Fatal(err)
		}
		// Event times are offsets on the world's virtual clock: the run
		// spans the plan plus the final drain and audit round, and never
		// jumps to the wall clock.
		if span := w.Clock.Now().Sub(start); span < last || span > last+time.Hour {
			t.Fatalf("chaos run advanced the world clock by %v for a plan ending at %v", span, last)
		}
		return aud.Report(), len(aud.Checks())
	}
	rep1, checks := run()
	rep2, _ := run()
	if rep1 != rep2 {
		t.Fatalf("same seed, different audit reports:\n--- run 1\n%s\n--- run 2\n%s", rep1, rep2)
	}
	if !strings.Contains(rep1, ", 0 violations") {
		t.Fatalf("auditor reported violations:\n%s", rep1)
	}
	if checks < 10 {
		t.Fatalf("suspiciously few checks (%d):\n%s", checks, rep1)
	}
	// The run must actually have exercised the invariants, not vacuously
	// passed: nonce replay probes require bank traffic to have flowed.
	if !strings.Contains(rep1, "nonce-monotonic@bank<-isp[0]") {
		t.Fatalf("no bank replay probe in report — workload generated no bank traffic:\n%s", rep1)
	}
	if !strings.Contains(rep1, "snapshot-exact@final-round") {
		t.Fatalf("no snapshot exactness check in report:\n%s", rep1)
	}
}

// TestChaosMidFlightLossesReconciled crashes an ISP with paid mail in
// flight (AtQuiescence=false): the dropped messages leave pair credit
// sums positive, and the auditor must reconcile the final audit round's
// flagged pairs against the counted losses exactly.
func TestChaosMidFlightLossesReconciled(t *testing.T) {
	plan := &chaos.Plan{
		Seed: 7,
		Events: []chaos.Event{
			{At: 5 * time.Minute, Kind: chaos.KindCrashISP, Node: 1},
			{At: 20 * time.Minute, Kind: chaos.KindRestartISP, Node: 1},
		},
	}
	w, err := NewWorld(Config{
		NumISPs:     3,
		UsersPerISP: 2,
		Seed:        5,
		// A huge pool floor keeps the bank out of the data path, so the
		// only in-flight traffic at the crash is paid mail.
		InitialAvail: 10_000,
		MinAvail:     10,
		MaxAvail:     100_000,
		Chaos:        plan,
		ChaosDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	aud := chaos.NewAuditor()
	workload := func(step int) {
		for r := 0; r < 5; r++ {
			for i := 0; i < 3; i++ {
				if w.ISPDown(i) {
					continue
				}
				for j := 0; j < 3; j++ {
					if i != j && !w.ISPDown(j) {
						_, _ = w.Send(w.UserAddr(i, 0), w.UserAddr(j, 1), "x", "midflight")
					}
				}
			}
		}
		// Deliberately no w.Run(): leave the wire full when the crash
		// lands.
	}
	if err := w.RunChaos(aud, workload); err != nil {
		t.Fatal(err)
	}
	if v := aud.Violations(); len(v) != 0 {
		t.Fatalf("mid-flight losses not reconciled:\n%s", aud.Report())
	}
	drops, pairs := w.ChaosLosses()
	if drops == 0 || len(pairs) == 0 {
		t.Fatalf("scenario produced no in-flight mail losses (drops=%d pairs=%v) — nothing was tested", drops, pairs)
	}
}

// walBackedWorld builds a world whose nodes log to WALs under a test
// temp dir, so CrashISP/CrashBank have something to restart from.
func walBackedWorld(t *testing.T, cfg Config) *World {
	t.Helper()
	cfg.ChaosDir = t.TempDir()
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.EnableWAL(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := w.CloseWALs(); err != nil {
			t.Error(err)
		}
	})
	return w
}

// TestCrashWithoutWALRefused: a node with no WAL has nothing to restart
// from, so its crash is refused and it stays up — before EnableWAL and
// again after CloseWALs.
func TestCrashWithoutWALRefused(t *testing.T) {
	w, err := NewWorld(Config{NumISPs: 2, UsersPerISP: 1, Seed: 1, ChaosDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	refused := func(when string) {
		t.Helper()
		if err := w.CrashISP(0); err == nil {
			t.Fatalf("%s: CrashISP succeeded", when)
		}
		if err := w.CrashBank(); err == nil {
			t.Fatalf("%s: CrashBank succeeded", when)
		}
		if w.ISPDown(0) || w.Engines[0] == nil || w.BankDown() {
			t.Fatalf("%s: a refused crash took a node down", when)
		}
	}
	refused("before EnableWAL")
	if err := w.EnableWAL(); err != nil {
		t.Fatal(err)
	}
	if err := w.CloseWALs(); err != nil {
		t.Fatal(err)
	}
	refused("after CloseWALs")
}

// TestISPRestartRestoresLedgerExactly round-trips a busy engine through
// crash+restart and compares the restored ledger field by field.
func TestISPRestartRestoresLedgerExactly(t *testing.T) {
	w := walBackedWorld(t, Config{NumISPs: 3, UsersPerISP: 3, Seed: 11})
	for i := 0; i < 10; i++ {
		if _, err := w.Send(w.UserAddr(1, i%3), w.UserAddr(2, i%3), "t", "body"); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Send(w.UserAddr(1, i%3), w.UserAddr(1, (i+1)%3), "t", "local"); err != nil {
			t.Fatal(err)
		}
	}
	w.Run()
	before := w.Engines[1].ExportState()
	if err := w.CrashISP(1); err != nil {
		t.Fatal(err)
	}
	if !w.ISPDown(1) || w.Engines[1] != nil {
		t.Fatal("crash did not take the engine down")
	}
	if _, err := w.Send(w.UserAddr(1, 0), w.UserAddr(2, 0), "t", "down"); err == nil {
		t.Fatal("submitting to a crashed ISP should error")
	}
	w.RunFor(time.Minute)
	if err := w.RestartISP(1); err != nil {
		t.Fatal(err)
	}
	after := w.Engines[1].ExportState()
	if before.Avail != after.Avail || before.Seq != after.Seq ||
		before.JournalSeq != after.JournalSeq || before.NonceCounter != after.NonceCounter {
		t.Fatalf("scalar state drifted: before=%+v after=%+v", before, after)
	}
	if len(before.Credit) != len(after.Credit) {
		t.Fatal("credit length drifted")
	}
	for i := range before.Credit {
		if before.Credit[i] != after.Credit[i] {
			t.Fatalf("credit[%d]: %d -> %d", i, before.Credit[i], after.Credit[i])
		}
	}
	if len(before.Users) != len(after.Users) {
		t.Fatal("user count drifted")
	}
	for i := range before.Users {
		b, a := before.Users[i], after.Users[i]
		if b.Name != a.Name || b.Balance != a.Balance || b.Account != a.Account || b.Sent != a.Sent {
			t.Fatalf("user %s drifted: %+v -> %+v", b.Name, b, a)
		}
	}
	// And the restored engine still works.
	if _, err := w.Send(w.UserAddr(1, 0), w.UserAddr(2, 0), "t", "back"); err != nil {
		t.Fatal(err)
	}
	w.Run()
	if !w.ConservationHolds() {
		t.Fatal("conservation broken after restart")
	}
}

// TestCrashDuringFreezeRecovers kills an ISP mid-snapshot-round: the
// round stalls (its report died with the process), AbortRound retires
// the seq, and the next round completes with every flagged pair
// involving only the crashed ISP (its restored credit array predates
// the round the others already reported).
func TestCrashDuringFreezeRecovers(t *testing.T) {
	w := walBackedWorld(t, Config{NumISPs: 3, UsersPerISP: 2, Seed: 3, FreezeDuration: time.Minute})
	for i := 0; i < 6; i++ {
		if _, err := w.Send(w.UserAddr(1, 0), w.UserAddr(2, 0), "t", "body"); err != nil {
			t.Fatal(err)
		}
	}
	w.Run()
	if err := w.Bank.StartSnapshot(); err != nil {
		t.Fatal(err)
	}
	// Let the requests arrive and the engines freeze, then kill isp[1]
	// before its quiet period expires.
	w.RunFor(time.Second)
	if !w.Engines[1].Frozen() {
		t.Fatal("engine not frozen after snapshot request")
	}
	if err := w.CrashISP(1); err != nil {
		t.Fatal(err)
	}
	w.Run()
	if w.Bank.RoundComplete() {
		t.Fatal("round completed despite a dead participant")
	}
	if err := w.RestartISP(1); err != nil {
		t.Fatal(err)
	}
	if err := w.Bank.AbortRound(); err != nil {
		t.Fatal(err)
	}
	if err := w.Bank.AbortRound(); err == nil {
		t.Fatal("second abort should error (no round in progress)")
	}
	if err := w.SnapshotRound(); err != nil {
		t.Fatal(err)
	}
	// The federation is live again and value was conserved throughout.
	if !w.ConservationHolds() {
		t.Fatal("conservation broken across freeze-crash recovery")
	}
	for _, v := range w.Bank.Violations() {
		if v.I != 1 && v.J != 1 {
			t.Fatalf("violation %v does not involve the crashed ISP", v)
		}
	}
	// Post-recovery rounds are clean: one more billing period with no
	// traffic must verify with no new violations.
	nViol := len(w.Bank.Violations())
	if err := w.SnapshotRound(); err != nil {
		t.Fatal(err)
	}
	if len(w.Bank.Violations()) != nViol {
		t.Fatalf("post-recovery round flagged new violations: %v", w.Bank.Violations()[nViol:])
	}
}

// TestNonceReplayAfterBankRestart replays a captured buy order against a
// restarted bank directly (the unit-level version of the auditor's
// probe) and checks the mint counters do not move.
func TestNonceReplayAfterBankRestart(t *testing.T) {
	w := walBackedWorld(t, Config{
		NumISPs: 2, UsersPerISP: 2, Seed: 17,
		MinAvail: 200, MaxAvail: 4000, InitialAvail: 420,
	})
	var captured *wire.Envelope
	w.Net.SetTrace(func(ev simnet.Event) {
		if env, ok := ev.Payload.(*wire.Envelope); ok && !ev.Dropped &&
			ev.To == nodeBank && env.Kind == wire.KindBatchOrder {
			captured = env
		}
	})
	// Drain the pool below MinAvail so the engine issues a real buy.
	if err := w.Engines[0].BuyEPennies("u0", 100); err != nil {
		t.Fatal(err)
	}
	if err := w.Engines[0].Tick(); err != nil {
		t.Fatal(err)
	}
	w.Run()
	w.Net.SetTrace(nil)
	if captured == nil {
		t.Fatal("no buy captured — workload did not trigger a restock")
	}
	if err := w.CrashBank(); err != nil {
		t.Fatal(err)
	}
	w.RunFor(time.Minute)
	if err := w.RestartBank(); err != nil {
		t.Fatal(err)
	}
	pre := w.Bank.Stats()
	if err := w.Bank.Handle(captured); !errors.Is(err, bank.ErrReplay) {
		t.Fatalf("replayed pre-crash buy => %v, want %v", err, bank.ErrReplay)
	}
	post := w.Bank.Stats()
	if pre.Minted != post.Minted || pre.Burned != post.Burned {
		t.Fatalf("replay moved mint counters: %+v -> %+v", pre, post)
	}
	if post.Replays == 0 {
		t.Fatal("restored bank did not count the replay")
	}
}
