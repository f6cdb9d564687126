package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"zmail/internal/bank"
	"zmail/internal/clock"
	"zmail/internal/cluster"
	"zmail/internal/core"
	"zmail/internal/crypto"
	"zmail/internal/isp"
	"zmail/internal/mail"
	"zmail/internal/money"
)

// fedConfig is the federation every workload runs against. Only the
// smoke test shrinks it; the command line always uses production().
type fedConfig struct {
	ISPs        int
	UsersPerISP int
	// Balance is each user's starting e-penny balance and Limit the
	// daily send cap; both are sized so no send is ever refused.
	Balance money.EPenny
	Limit   int64
	// PoolSlack is what an ISP's pool holds once every user has drawn
	// their balance from it. The band [MinAvail, maxAvail()] contains
	// the pool from boot on, so neither registration nor mail-only
	// traffic ever triggers a bank order.
	MinAvail, PoolSlack money.EPenny
	Funds               money.Penny
	Freeze, Tick        time.Duration
	// AuditFirst/AuditEvery place the §4.4 rounds: the first fires
	// AuditFirst after driving starts, so a run of a given length always
	// crosses the same number of rounds.
	AuditFirst, AuditEvery time.Duration
}

func production() fedConfig {
	return fedConfig{
		ISPs:        2,
		UsersPerISP: 20000,
		Balance:     1000,
		Limit:       1 << 40,
		MinAvail:    1000,
		PoolSlack:   100_000,
		Funds:       1_000_000,
		Freeze:      150 * time.Millisecond,
		Tick:        50 * time.Millisecond,
		AuditFirst:  2500 * time.Millisecond,
		AuditEvery:  5 * time.Second,
	}
}

func (c fedConfig) initialAvail() money.EPenny {
	return money.EPenny(c.UsersPerISP)*c.Balance + c.PoolSlack
}

func (c fedConfig) maxAvail() money.EPenny { return 2 * c.initialAvail() }

func (c fedConfig) domains() []string {
	out := make([]string, c.ISPs)
	for i := range out {
		out[i] = domainOf(i)
	}
	return out
}

func domainOf(i int) string { return fmt.Sprintf("isp%d.zmail.test", i) }
func userName(u int) string { return fmt.Sprintf("u%05d", u) }
func walDirOf(dir string, kind string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%d", kind, i))
}

// daemonLog counts daemon diagnostics and keeps the first few: a relay
// failure or a dropped bank message is logged by the daemon and seen
// nowhere else.
type daemonLog struct {
	n     atomic.Int64
	mu    sync.Mutex
	first []string
}

func (l *daemonLog) logf(format string, args ...any) {
	l.n.Add(1)
	l.mu.Lock()
	if len(l.first) < 5 {
		l.first = append(l.first, fmt.Sprintf(format, args...))
	}
	l.mu.Unlock()
}

type bankDaemon struct {
	bank   *bank.Bank
	srv    *core.BankServer
	uplink *core.Uplink
}

type ispDaemon struct {
	index  int
	node   *core.Node
	walDir string
}

func (d *ispDaemon) engine() *isp.Engine { return d.node.Engine() }

// close shuts the daemon the way internal/cluster does: WAL first so
// the final ledger is durable, then the node.
func (d *ispDaemon) close() error {
	if d.node == nil {
		return nil
	}
	err := d.node.Engine().CloseWAL()
	if cerr := d.node.Close(); err == nil {
		err = cerr
	}
	d.node = nil
	return err
}

// federation is a booted real-TCP deployment: 2 ISPs, one leaf bank per
// ISP, a root. It repeats internal/cluster's boot sequence because the
// benchmark must install its own Mailbox and AckSink.
type federation struct {
	cfg     fedConfig
	dir     string
	mailbox func(user string, msg *mail.Message)
	ackSink func(user string, msg *mail.Message)
	log     daemonLog

	root     *bank.Root
	rootSrv  *core.BankServer
	banks    []*bankDaemon
	isps     []*ispDaemon
	initialE int64
	audits   int64
}

// boot starts every daemon with a WAL under dir. On error whatever
// started is closed.
func boot(cfg fedConfig, dir string, mailbox, ackSink func(string, *mail.Message)) (*federation, error) {
	f := &federation{cfg: cfg, dir: dir, mailbox: mailbox, ackSink: ackSink}
	if err := f.start(); err != nil {
		_ = f.close()
		return nil, err
	}
	f.initialE = f.totalEPennies()
	return f, nil
}

func (f *federation) start() error {
	cfg := f.cfg
	assign := make([]int, cfg.ISPs)
	for i := range assign {
		assign[i] = i
	}
	root, err := bank.NewRoot(bank.RootConfig{NumISPs: cfg.ISPs, Assign: assign, OwnSealer: crypto.Null{}})
	if err != nil {
		return err
	}
	f.root = root
	if f.rootSrv, err = core.StartBankHandler(root, "127.0.0.1:0", f.log.logf); err != nil {
		return err
	}
	for r := 0; r < cfg.ISPs; r++ {
		bd := &bankDaemon{}
		f.banks = append(f.banks, bd)
		compliant := make([]bool, cfg.ISPs)
		compliant[r] = true
		bd.bank, bd.srv, err = core.StartBank(bank.Config{
			NumISPs:        cfg.ISPs,
			Compliant:      compliant,
			InitialAccount: cfg.Funds,
			OwnSealer:      crypto.Null{},
		}, "127.0.0.1:0", f.log.logf)
		if err != nil {
			return err
		}
		if err := bd.bank.Enroll(r, crypto.Null{}); err != nil {
			return err
		}
		bd.uplink = core.NewUplink(f.rootSrv.Addr().String(), r, f.log.logf)
		bd.srv.SetForward(bd.uplink.Forward)
		walDir := walDirOf(f.dir, "bank", r)
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			return err
		}
		if err := bd.bank.AttachWAL(walDir); err != nil {
			return err
		}
	}
	for i := 0; i < cfg.ISPs; i++ {
		d := &ispDaemon{index: i, walDir: walDirOf(f.dir, "isp", i)}
		f.isps = append(f.isps, d)
		if err := f.startISP(d, false); err != nil {
			return err
		}
	}
	f.mesh()
	return nil
}

// engineConfig is ISP i's engine in the production configuration.
func engineConfig(cfg fedConfig, i int) isp.Config {
	return isp.Config{
		Index:          i,
		Domain:         domainOf(i),
		Directory:      isp.NewDirectory(cfg.domains(), nil),
		Clock:          clock.System(),
		MinAvail:       cfg.MinAvail,
		MaxAvail:       cfg.maxAvail(),
		InitialAvail:   cfg.initialAvail(),
		DefaultLimit:   cfg.Limit,
		FreezeDuration: cfg.Freeze,
		Policy:         isp.AcceptUnpaid,
		BankSealer:     crypto.Null{},
		OwnSealer:      crypto.Null{},
		BatchOrders:    true,
	}
}

// startISP boots the node for d; with recover set the ledger comes back
// from the WAL in d.walDir instead of being registered afresh.
func (f *federation) startISP(d *ispDaemon, recover bool) error {
	node, err := core.NewNode(core.NodeConfig{
		Engine:       engineConfig(f.cfg, d.index),
		ListenAddr:   "127.0.0.1:0",
		BankAddr:     f.banks[d.index].srv.Addr().String(),
		TickInterval: f.cfg.Tick,
		Queue:        true,
		Mailbox:      f.mailbox,
		AckSink:      f.ackSink,
		Logf:         f.log.logf,
	})
	if err != nil {
		return err
	}
	d.node = node
	eng := node.Engine()
	if recover {
		return eng.RecoverWAL(d.walDir)
	}
	if err := os.MkdirAll(d.walDir, 0o755); err != nil {
		return err
	}
	if err := eng.AttachWAL(d.walDir); err != nil {
		return err
	}
	return registerUsers(eng, f.cfg)
}

func registerUsers(eng *isp.Engine, cfg fedConfig) error {
	for u := 0; u < cfg.UsersPerISP; u++ {
		if err := eng.RegisterUser(userName(u), 0, cfg.Balance, cfg.Limit); err != nil {
			return err
		}
	}
	return nil
}

func (f *federation) mesh() {
	for i, a := range f.isps {
		for j, b := range f.isps {
			if i != j && a.node != nil && b.node != nil {
				a.node.AddPeer(j, b.node.Addr().String())
			}
		}
	}
}

func (f *federation) smtpAddr(i int) string { return f.isps[i].node.Addr().String() }

func (f *federation) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, d := range f.isps {
		keep(d.close())
	}
	for _, bd := range f.banks {
		if bd.uplink != nil {
			keep(bd.uplink.Close())
		}
		if bd.bank != nil {
			keep(bd.bank.CloseWAL())
		}
		if bd.srv != nil {
			keep(bd.srv.Close())
		}
	}
	if f.rootSrv != nil {
		keep(f.rootSrv.Close())
	}
	return first
}

func (f *federation) totalEPennies() int64 {
	var total int64
	for _, d := range f.isps {
		total += d.engine().TotalEPennies()
	}
	return total
}

func (f *federation) outstanding() int64 {
	var total int64
	for _, bd := range f.banks {
		total += bd.bank.Outstanding()
	}
	return total
}

// auditComplete reports whether every triggered round has verified at
// each leaf and at the root.
func (f *federation) auditComplete() bool {
	for _, bd := range f.banks {
		if !bd.bank.RoundComplete() {
			return false
		}
	}
	return f.root.RoundsVerified() >= f.audits
}

// auditRound is one §4.4 round as the benchmark saw it from outside.
type auditRound struct {
	start, end time.Duration // since epoch; end 0 if it never completed
	freeze     time.Duration // longest Frozen() interval over the ISPs
}

// runAudits triggers a round at first, first+every, … until stop is
// closed, skipping a tick while the previous round is incomplete, and
// follows each round to completion by polling once a millisecond.
func (f *federation) runAudits(stop <-chan struct{}, first, every time.Duration) []auditRound {
	var rounds []auditRound
	timer := time.NewTimer(first)
	defer timer.Stop()
	for {
		select {
		case <-stop:
			return rounds
		case <-timer.C:
		}
		timer.Reset(every)
		if !f.auditComplete() {
			continue
		}
		r := auditRound{start: sinceEpoch()}
		started := true
		for _, bd := range f.banks {
			if err := bd.bank.StartSnapshot(); err != nil {
				f.log.logf("bench: start snapshot: %v", err)
				started = false
			}
		}
		if !started {
			continue
		}
		f.audits++
		thawed := make([]time.Duration, len(f.isps))
		sawFrozen := make([]bool, len(f.isps))
		deadline := time.Now().Add(every)
		for !f.auditComplete() && time.Now().Before(deadline) {
			for i, d := range f.isps {
				switch frozen := d.engine().Frozen(); {
				case frozen:
					sawFrozen[i] = true
				case sawFrozen[i] && thawed[i] == 0:
					thawed[i] = sinceEpoch()
				}
			}
			time.Sleep(time.Millisecond)
		}
		if f.auditComplete() {
			r.end = sinceEpoch()
		}
		for i := range thawed {
			if thawed[i] == 0 {
				thawed[i] = r.end
			}
			if d := thawed[i] - r.start; d > r.freeze {
				r.freeze = d
			}
		}
		rounds = append(rounds, r)
	}
}

// quiesce brings the federation to rest after driving stops: every
// audit round verified, both admission queues drained.
func (f *federation) quiesce() error {
	if !cluster.WaitFor(5*time.Second, f.auditComplete) {
		return errors.New("federation did not quiesce: audit round incomplete")
	}
	for _, d := range f.isps {
		d.engine().FlushQueue()
	}
	return nil
}
