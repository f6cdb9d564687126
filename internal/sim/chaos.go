package sim

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"zmail/internal/bank"
	"zmail/internal/chaos"
	"zmail/internal/isp"
	"zmail/internal/simnet"
	"zmail/internal/wire"
)

// Crash-recovery execution: World methods that kill and restart nodes
// under a chaos.Plan, and the bookkeeping that lets the invariant
// auditor reconcile what faults did to the economy.
//
// Crash model ("the disk survives the process"): every node logs each
// ledger mutation to its WAL as it happens (EnableWAL), the same
// recovery path the daemons ship. At the crash instant the node's WAL
// is closed, the node drops off the network (in-flight traffic toward
// it is lost, see simnet's crash semantics), and its in-memory
// incarnation is discarded. Restart builds a fresh engine/bank with the
// same identity and key material and replays the WAL. Process-transient
// state — freeze status, buffered outbox, in-flight bank trades — is
// lost, exactly as documented in isp/state.go.

// lossLedger tallies what the network dropped, so the auditor can
// reconcile audit-round asymmetries against counted losses instead of
// assuming a perfect network.
type lossLedger struct {
	mu sync.Mutex
	// pair[i<j] counts paid messages (mail or acks) between compliant
	// ISPs i and j lost in flight; each adds exactly +1 to the pair's
	// credit sum.
	pair map[[2]int]int64
	// bankKind counts dropped bank control envelopes by kind.
	bankKind              map[wire.Kind]int64
	mailDrops, otherDrops int64
}

func (l *lossLedger) pairSums() map[[2]int]int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[[2]int]int64, len(l.pair))
	for k, v := range l.pair {
		out[k] = v
	}
	return out
}

// valueLoss reports dropped control messages that may strand e-penny
// value: a lost order may carry a sell side whose escrow is now
// unburned-but-gone, a lost order reply may leave a filled buy
// unapplied, and a lost credit report removes a whole credit row from
// the federation ledger. The order bodies are sealed, so every lost
// order and reply counts.
func (l *lossLedger) valueLoss() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bankKind[wire.KindBatchOrder] + l.bankKind[wire.KindBatchReply] + l.bankKind[wire.KindReply]
}

// reportLoss reports dropped §4.4 credit reports, which additionally
// invalidate pairwise reconciliation for the period.
func (l *lossLedger) reportLoss() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bankKind[wire.KindReply]
}

// replayProbes retains the last delivered bank-bound and ISP-bound
// control envelopes; after every restart they are re-injected to prove
// nonce/seq replay protection survived the crash.
type replayProbes struct {
	mu     sync.Mutex
	toBank []*wire.Envelope // last BatchOrder delivered, by ISP index
	toISP  []*wire.Envelope // last BatchReply delivered, by ISP index
}

// chaosTrace is the simnet trace hook active during RunChaos.
func (w *World) chaosTrace(ev simnet.Event) {
	if !ev.Dropped {
		env, ok := ev.Payload.(*wire.Envelope)
		if !ok {
			return
		}
		w.probes.mu.Lock()
		if ev.To == nodeBank && env.Kind == wire.KindBatchOrder {
			w.probes.toBank[int(env.From)] = env
		} else if i, isISP := w.nodeIdx[ev.To]; isISP && ev.From == nodeBank && env.Kind == wire.KindBatchReply {
			w.probes.toISP[i] = env
		}
		w.probes.mu.Unlock()
		return
	}
	l := w.losses
	l.mu.Lock()
	defer l.mu.Unlock()
	switch p := ev.Payload.(type) {
	case mailPayload:
		l.mailDrops++
		src, srcOK := w.nodeIdx[ev.From]
		dst, dstOK := w.nodeIdx[ev.To]
		if srcOK && dstOK && w.Cfg.Compliant[src] && w.Cfg.Compliant[dst] {
			key := [2]int{src, dst}
			if key[0] > key[1] {
				key[0], key[1] = key[1], key[0]
			}
			if l.pair == nil {
				l.pair = make(map[[2]int]int64)
			}
			l.pair[key]++
		}
	case *wire.Envelope:
		if l.bankKind == nil {
			l.bankKind = make(map[wire.Kind]int64)
		}
		l.bankKind[p.Kind]++
	default:
		l.otherDrops++
	}
}

// chaosStateDir resolves where the per-node WALs live.
func (w *World) chaosStateDir() (string, error) {
	if w.chaosDir != "" {
		return w.chaosDir, nil
	}
	if w.Cfg.ChaosDir != "" {
		w.chaosDir = w.Cfg.ChaosDir
		return w.chaosDir, nil
	}
	return "", errors.New("sim: set Config.ChaosDir (or drive chaos via RunChaos, which owns a temp dir)")
}

// chaosWALPath resolves a node's write-ahead-log directory.
func (w *World) chaosWALPath(node simnet.NodeID) (string, error) {
	dir, err := w.chaosStateDir()
	if err != nil {
		return "", err
	}
	return filepath.Join(dir, string(node)+".wal"), nil
}

// EnableWAL gives every running node a WAL under the chaos state dir
// (isp<i>.wal, bank.wal) that logs each mutation as it happens.
// CrashISP/CrashBank close a node's log and RestartISP/RestartBank boot
// through its replay; without a WAL a crash is refused. Requires
// Config.ChaosDir; RunChaos (which owns a temp dir) enables it
// automatically.
func (w *World) EnableWAL() error {
	for i, eng := range w.Engines {
		if eng == nil || eng.WALAttached() {
			continue
		}
		path, err := w.chaosWALPath(nodeISP(i))
		if err != nil {
			return err
		}
		if err := eng.AttachWAL(path); err != nil {
			return err
		}
	}
	if !w.bankDown && !w.Bank.WALAttached() {
		path, err := w.chaosWALPath(nodeBank)
		if err != nil {
			return err
		}
		if err := w.Bank.AttachWAL(path); err != nil {
			return err
		}
	}
	return nil
}

// CloseWALs closes every live node's WAL. The log directories stay on
// disk for inspection.
func (w *World) CloseWALs() error {
	var first error
	for _, eng := range w.Engines {
		if eng == nil {
			continue
		}
		if err := eng.CloseWAL(); err != nil && first == nil {
			first = err
		}
	}
	if w.Bank != nil {
		if err := w.Bank.CloseWAL(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ISPDown reports whether compliant ISP i is currently crashed.
func (w *World) ISPDown(i int) bool { return w.ispDown[i] }

// BankDown reports whether the bank is currently crashed.
func (w *World) BankDown() bool { return w.bankDown }

// ChaosLosses reports what the network dropped during the chaos run:
// total lost mail messages and the per-pair paid-mail losses between
// compliant ISPs.
func (w *World) ChaosLosses() (mailDrops int64, pairs map[[2]int]int64) {
	if w.losses == nil {
		return 0, nil
	}
	w.losses.mu.Lock()
	mailDrops = w.losses.mailDrops
	w.losses.mu.Unlock()
	return mailDrops, w.losses.pairSums()
}

// CrashISP kills compliant ISP i at the current virtual instant. Its
// WAL already holds every ledger mutation; only process state dies
// with the process. A world without EnableWAL has nothing to restart
// from, so the crash is refused.
func (w *World) CrashISP(i int) error {
	if i < 0 || i >= len(w.Engines) || w.Engines[i] == nil {
		return fmt.Errorf("sim: isp[%d] is not a running compliant ISP", i)
	}
	if !w.Engines[i].WALAttached() {
		return fmt.Errorf("sim: isp[%d] has no WAL to recover from (EnableWAL)", i)
	}
	st := w.Engines[i].ExportState()
	// Closing the WAL both flushes the log and — because CloseWAL
	// detaches before closing — guarantees the dead incarnation's
	// stragglers (a pending freeze timer, say) can never write into the
	// next incarnation's log.
	if err := w.Engines[i].CloseWAL(); err != nil {
		return err
	}
	if err := w.Net.Crash(nodeISP(i)); err != nil {
		return err
	}
	w.ispTrans[i].dead.Store(true)
	w.downTotal[i] = st.Total()
	w.ispDown[i] = true
	w.Engines[i] = nil
	return nil
}

// RestartISP boots a fresh engine for ISP i by replaying its WAL and
// rejoins it to the network as a new incarnation.
func (w *World) RestartISP(i int) error {
	if i < 0 || i >= len(w.Engines) || !w.ispDown[i] {
		return fmt.Errorf("sim: isp[%d] is not down", i)
	}
	eng, err := w.buildEngine(i)
	if err != nil {
		return err
	}
	path, err := w.chaosWALPath(nodeISP(i))
	if err != nil {
		return err
	}
	if err := eng.RecoverWAL(path); err != nil {
		return fmt.Errorf("sim: recover isp[%d]: %w", i, err)
	}
	if err := w.Net.Restart(nodeISP(i), w.ispHandler(eng)); err != nil {
		return err
	}
	w.Engines[i] = eng
	w.ispDown[i] = false
	w.downTotal[i] = 0
	return nil
}

// CrashBank kills the bank. The dead instance stays referenced for
// read-only accounting (Outstanding) while down — its counters are
// exactly the logged ones, and the dead transport plus the network
// crash guarantee it can neither hear nor speak. Like CrashISP it is
// refused without a WAL.
func (w *World) CrashBank() error {
	if w.bankDown {
		return errors.New("sim: bank is already down")
	}
	if !w.Bank.WALAttached() {
		return errors.New("sim: bank has no WAL to recover from (EnableWAL)")
	}
	if err := w.Bank.CloseWAL(); err != nil {
		return err
	}
	if err := w.Net.Crash(nodeBank); err != nil {
		return err
	}
	w.bankTrans.dead.Store(true)
	w.bankDown = true
	return nil
}

// RestartBank boots a fresh bank by replaying its WAL. If the old
// instance died mid-round, the exported seq already accounts for the
// consumed round (see bank.ExportState), so the next StartSnapshot is
// convergent with engines that reported before the crash.
func (w *World) RestartBank() error {
	if !w.bankDown {
		return errors.New("sim: bank is not down")
	}
	tr := &bankTransport{w: w}
	bk, err := bank.New(bank.Config{
		NumISPs:        w.Cfg.NumISPs,
		Compliant:      w.Cfg.Compliant,
		InitialAccount: w.Cfg.BankFunds,
		Transport:      tr,
		OwnSealer:      w.bankBox,
		SettleOnVerify: w.Cfg.Settle,
		Tracer:         w.bankTracer,
	})
	if err != nil {
		return err
	}
	for i := 0; i < w.Cfg.NumISPs; i++ {
		if !w.Cfg.Compliant[i] {
			continue
		}
		if err := bk.Enroll(i, w.ispBoxes[i]); err != nil {
			return err
		}
	}
	path, err := w.chaosWALPath(nodeBank)
	if err != nil {
		return err
	}
	if err := bk.RecoverWAL(path); err != nil {
		return fmt.Errorf("sim: recover bank: %w", err)
	}
	if err := w.Net.Restart(nodeBank, w.bankHandler()); err != nil {
		return err
	}
	w.Bank = bk
	w.bankTrans = tr
	w.bankDown = false
	return nil
}

// applyChaosEvent dispatches one plan event.
func (w *World) applyChaosEvent(ev chaos.Event) error {
	switch ev.Kind {
	case chaos.KindCrashISP:
		return w.CrashISP(ev.Node)
	case chaos.KindRestartISP:
		return w.RestartISP(ev.Node)
	case chaos.KindCrashBank:
		return w.CrashBank()
	case chaos.KindRestartBank:
		return w.RestartBank()
	case chaos.KindPartition:
		w.Net.Partition(nodeISP(ev.Node), nodeISP(ev.Peer), true)
		return nil
	case chaos.KindHeal:
		w.Net.Heal()
		return nil
	default:
		return fmt.Errorf("sim: unknown chaos event kind %v", ev.Kind)
	}
}

// RunChaos executes Config.Chaos against the world, interleaving the
// caller's workload with the scheduled faults and recording invariant
// verdicts on aud:
//
//   - e-penny conservation at every quiescent point (crashed nodes
//     contribute their durable totals), exactly when no value-stranding
//     control message was lost, with an explanatory note otherwise;
//   - nonce monotonicity: the last delivered pre-crash pool order (and
//     reply) for every ISP is replayed after all restarts and must be
//     rejected without moving the mint counters;
//   - credit antisymmetry: a final §4.4 audit round's flagged pairs
//     must match the counted channel losses exactly;
//   - freeze-snapshot exactness: the round's whole-matrix credit sum
//     must equal the total explained loss (zero on a loss-free run).
//
// workload (optional) is called with the upcoming event index before
// each event, and once more (with len(plan.Events)) before the final
// drain; it should skip ISPs reported down by ISPDown. The run is fully
// deterministic: same world config, plan and workload — byte-identical
// auditor report.
func (w *World) RunChaos(aud *chaos.Auditor, workload func(step int)) (retErr error) {
	plan := w.Cfg.Chaos
	if plan == nil {
		return errors.New("sim: Config.Chaos is nil")
	}
	if err := plan.Validate(w.Cfg.NumISPs); err != nil {
		return err
	}
	if w.chaosDir == "" && w.Cfg.ChaosDir == "" {
		dir, err := os.MkdirTemp("", "zmail-chaos-")
		if err != nil {
			return err
		}
		w.chaosDir = dir
		defer func() {
			os.RemoveAll(dir)
			w.chaosDir = ""
		}()
	}
	// Crash persistence runs through per-node WALs: crashes close the
	// mutation log, restarts replay it.
	if err := w.EnableWAL(); err != nil {
		return err
	}
	defer func() {
		if err := w.CloseWALs(); err != nil && retErr == nil {
			retErr = err
		}
	}()
	w.losses = &lossLedger{}
	w.probes = &replayProbes{toBank: make([]*wire.Envelope, w.Cfg.NumISPs), toISP: make([]*wire.Envelope, w.Cfg.NumISPs)}
	w.Net.SetTrace(w.chaosTrace)
	defer w.Net.SetTrace(nil)

	start := w.Clock.Now()
	for step, ev := range plan.Events {
		// Advance first, then inject: traffic the workload leaves on the
		// wire at the event instant is genuinely in flight when the fault
		// fires (unless the plan asks for quiescent cuts).
		w.Clock.AdvanceTo(start.Add(ev.At))
		if workload != nil {
			workload(step)
		}
		if plan.AtQuiescence {
			w.Run()
			aud.CheckConservation(fmt.Sprintf("event[%d] %v", step, ev),
				w.TotalEPennies(), w.initialE+w.Bank.Outstanding())
		}
		if err := w.applyChaosEvent(ev); err != nil {
			return fmt.Errorf("sim: chaos event %d (%v): %w", step, ev, err)
		}
	}
	if workload != nil {
		workload(len(plan.Events))
	}
	w.Run()

	// Final conservation: exact unless value was stranded in a dropped
	// control message (which the ledger explains instead).
	if loss := w.losses.valueLoss(); loss == 0 {
		aud.CheckConservation("final", w.TotalEPennies(), w.initialE+w.Bank.Outstanding())
	} else {
		aud.Notef("conservation@final not exact by design: %d value-stranding control messages lost in flight", loss)
	}

	// Nonce monotonicity: replay the last delivered pre-restart traffic.
	w.probes.mu.Lock()
	toBank, toISP := w.probes.toBank, w.probes.toISP
	w.probes.mu.Unlock()
	pre := w.Bank.Stats()
	for i, env := range toBank {
		if env == nil {
			continue
		}
		err := w.Bank.Handle(env)
		aud.CheckReplayRejected(fmt.Sprintf("bank<-isp[%d] %v", i, env.Kind), err, bank.ErrReplay)
	}
	post := w.Bank.Stats()
	aud.Checkf(pre.Minted == post.Minted && pre.Burned == post.Burned,
		"nonce-monotonic@mint-counters", "minted %d->%d burned %d->%d",
		pre.Minted, post.Minted, pre.Burned, post.Burned)
	for i, env := range toISP {
		if env == nil || w.Engines[i] == nil {
			continue
		}
		err := w.Engines[i].HandleBank(env)
		aud.CheckReplayRejected(fmt.Sprintf("isp[%d]<-bank %v", i, env.Kind), err, isp.ErrStaleReply)
	}
	w.Run()

	// Final §4.4 audit round. A stall (a report lost to residual
	// faults) is aborted and retried once — the abort path is itself
	// part of what chaos certifies.
	violBefore := len(w.Bank.Violations())
	if err := w.Bank.StartSnapshot(); err != nil {
		return err
	}
	w.Run()
	if !w.Bank.RoundComplete() {
		aud.Notef("final audit round stalled; aborted and retried")
		if err := w.Bank.AbortRound(); err != nil {
			return err
		}
		violBefore = len(w.Bank.Violations())
		if err := w.Bank.StartSnapshot(); err != nil {
			return err
		}
		w.Run()
	}
	aud.Checkf(w.Bank.RoundComplete(), "audit-round-complete", "final credit-gathering round verified")

	if w.losses.reportLoss() == 0 {
		viol := w.Bank.Violations()[violBefore:]
		flagged := make(map[[2]int]int64, len(viol))
		for _, v := range viol {
			flagged[[2]int{v.I, v.J}] = v.CreditIJ + v.CreditJI
		}
		explained := w.losses.pairSums()
		aud.CheckAntisymmetry("final-round", flagged, explained)
		var want int64
		for _, v := range explained {
			want += v
		}
		aud.CheckSnapshotExact("final-round", w.Bank.LastRoundCreditSum(), want)
	} else {
		aud.Notef("antisymmetry@final-round not reconciled: %d credit reports lost in flight", w.losses.reportLoss())
	}
	return nil
}
