// Package cluster boots a complete Zmail federation over real TCP on
// loopback: two ISP daemons in front of either one central bank or the
// §5 two-level hierarchy — a leaf bank per ISP, forwarding credit
// reports to a root aggregator that verifies the cross-region pair.
// Every ISP and bank is booted by the same constructors cmd/zmaild and
// cmd/zbank call (core.StartISPDaemon, core.StartBankDaemon), so the
// suite runs their boot order, admin listener, optional WAL and
// shutdown order, not a copy of them.
//
// It is the harness for the end-to-end federation test suite in this
// package (`make cluster`), which re-stakes the in-process simulator's
// claims on real sockets. Throughput and latency are measured by the
// federation benchmark under bench/, not here.
//
// All listeners bind ephemeral loopback ports, so any number of
// clusters coexist on one machine (CI included). Nothing here sleeps a
// fixed amount: completion is always observed by polling daemon state
// with a deadline (see WaitFor).
package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"zmail/internal/bank"
	"zmail/internal/core"
	"zmail/internal/crypto"
	"zmail/internal/isp"
	"zmail/internal/mail"
	"zmail/internal/metrics"
	"zmail/internal/money"
	"zmail/internal/obsv"
)

// The federation every cluster boots: two ISPs of four users ("u000",
// "u001", …), each user and ISP funded the same way.
const (
	numISPs     = 2
	usersPerISP = 4

	initialBalance money.EPenny = 200       // each user's starting e-penny balance
	initialAccount money.Penny  = 1000      // each user's real-penny account
	ispFunds       money.Penny  = 1_000_000 // each ISP's account at its bank

	minAvail money.EPenny = 1000 // pool restock threshold
	maxAvail money.EPenny = 100_000

	// freezeDuration is the §4.4 snapshot quiet period. The paper's ten
	// minutes is a policy choice, not a protocol requirement; a short
	// freeze keeps the audit tests fast.
	freezeDuration = 100 * time.Millisecond
	tickInterval   = 50 * time.Millisecond // pool-maintenance cadence

	// Admission queue shape, used only when Config.Queue is set.
	queueDepth, queueWorkers = 64, 2
)

// Config shapes a cluster: the knobs the suite turns. The zero value
// boots a central bank, a daily limit of 50 and a 10,000 e-penny pool.
type Config struct {
	// Regions selects the bank topology: 0 or 1 boots one central
	// bank; 2 boots a leaf bank per ISP plus a root aggregator, all on
	// their own TCP listeners.
	Regions int
	// DailyLimit is the per-user daily send limit (default 50).
	DailyLimit int64
	// InitialAvail is each ISP's starting e-penny pool (default 10000).
	InitialAvail money.EPenny

	// BatchOrders has every ISP coalesce its bank buy/sell traffic into
	// sealed wire.BatchOrder round trips (partial-fill replies).
	BatchOrders bool
	// Queue starts each ISP's admission queue so SMTP DATA returns at
	// admission.
	Queue bool
	// Settle enables settlement at the central bank: each verified
	// audit round moves real money by multilateral netting. New refuses
	// it with Regions > 1, where the root verifies cross-region credit
	// but no bank settles it (DESIGN decision 12).
	Settle bool

	// WALDir, when set, gives every daemon a write-ahead log under
	// WALDir/ispN and WALDir/bankR; RestartISP then proves recovery.
	WALDir string
	// Logf receives daemon diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

func (cfg *Config) applyDefaults() {
	if cfg.Regions == 0 {
		cfg.Regions = 1
	}
	if cfg.DailyLimit == 0 {
		cfg.DailyLimit = 50
	}
	if cfg.InitialAvail == 0 {
		cfg.InitialAvail = 10_000
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
}

// ISP is one booted ISP daemon (core.StartISPDaemon) and the identity
// the suite gave it.
type ISP struct {
	Index  int
	Domain string
	Users  []string

	daemon    *core.ISPDaemon
	delivered atomic.Int64
}

// SMTPAddr returns the daemon's bound SMTP address.
func (i *ISP) SMTPAddr() string { return i.daemon.Node().Addr().String() }

// MetricsAddr returns the admin telemetry address.
func (i *ISP) MetricsAddr() string { return i.daemon.MetricsAddr().String() }

// Engine exposes the daemon's protocol engine (ledger inspection in
// tests; production callers scrape /metrics instead).
func (i *ISP) Engine() *isp.Engine { return i.daemon.Node().Engine() }

// Delivered counts messages the daemon handed to local mailboxes over
// its lifetime, surviving restarts (the counter lives in the harness,
// not the node).
func (i *ISP) Delivered() int64 { return i.delivered.Load() }

// Close shuts the daemon down (core.ISPDaemon.Close).
func (i *ISP) Close() error { return i.daemon.Close() }

// Cluster is a running federation.
type Cluster struct {
	cfg     Config
	Domains []string
	assign  []int // isp index → region

	isps  []*ISP
	banks []*core.BankDaemon // one per region

	root      *bank.Root
	rootSrv   *core.BankServer
	rootAdmin *obsv.Server

	audits   int64 // rounds triggered via TriggerAudit
	initialE int64 // federation e-penny total at boot
}

// New boots a cluster per cfg: banks first (root, then leaves, so
// forwarding links have somewhere to go), then every ISP daemon, then
// the peer mesh. On any error the partially booted cluster is torn
// down.
func New(cfg Config) (*Cluster, error) {
	cfg.applyDefaults()
	if cfg.Regions > numISPs {
		return nil, fmt.Errorf("cluster: %d regions for %d ISPs", cfg.Regions, numISPs)
	}
	if cfg.Settle && cfg.Regions > 1 {
		return nil, fmt.Errorf("cluster: Settle with %d regions: cross-region credit is verified at the root but settled by no bank", cfg.Regions)
	}
	c := &Cluster{cfg: cfg}
	for i := 0; i < numISPs; i++ {
		c.Domains = append(c.Domains, fmt.Sprintf("isp%d.zmail.test", i))
		c.assign = append(c.assign, i%cfg.Regions)
	}
	if err := c.boot(); err != nil {
		_ = c.Close()
		return nil, err
	}
	// The seeded pools and user balances predate the banks; everything
	// minted or burned after this instant must reconcile against them.
	c.initialE = c.TotalEPennies()
	return c, nil
}

func (c *Cluster) boot() error {
	cfg := c.cfg

	// Root aggregator (two-level topology only).
	if cfg.Regions > 1 {
		root, err := bank.NewRoot(bank.RootConfig{
			NumISPs:   numISPs,
			Assign:    c.assign,
			OwnSealer: crypto.Null{},
		})
		if err != nil {
			return err
		}
		srv, err := core.StartBankHandler(root, "127.0.0.1:0", cfg.Logf)
		if err != nil {
			return err
		}
		c.root, c.rootSrv = root, srv
		reg := metrics.NewRegistry()
		reg.Register(root)
		if c.rootAdmin, err = obsv.Start("127.0.0.1:0", obsv.Config{Registry: reg}); err != nil {
			return err
		}
		cfg.Logf("cluster: root bank on %s", srv.Addr())
	}

	// Leaf (or central) banks, then the ISP daemons, then the full peer
	// mesh once every port is known. A daemon that fails to boot has
	// released what it started; New's Close releases the rest.
	for r := 0; r < cfg.Regions; r++ {
		bd, err := c.bootBank(r)
		if err != nil {
			return err
		}
		c.banks = append(c.banks, bd)
	}
	for i := 0; i < numISPs; i++ {
		d := &ISP{Index: i, Domain: c.Domains[i]}
		for u := 0; u < usersPerISP; u++ {
			d.Users = append(d.Users, fmt.Sprintf("u%03d", u))
		}
		if err := c.startISP(d); err != nil {
			return err
		}
		c.isps = append(c.isps, d)
	}
	c.wirePeers()
	return nil
}

// wirePeers points every ISP's relay at every other ISP's current SMTP
// address.
func (c *Cluster) wirePeers() {
	for i, a := range c.isps {
		for j, b := range c.isps {
			if i != j {
				a.daemon.Node().AddPeer(j, b.SMTPAddr())
			}
		}
	}
}

// bootBank starts the bank daemon for one region. With a single
// region it is the central bank; with several, a leaf that serves only
// its region's ISPs and forwards their credit reports to the root.
func (c *Cluster) bootBank(r int) (*core.BankDaemon, error) {
	cfg := c.cfg
	compliant := make([]bool, numISPs)
	enroll := make(map[int]crypto.Sealer)
	var members []int
	for i := 0; i < numISPs; i++ {
		compliant[i] = c.assign[i] == r
		if compliant[i] {
			enroll[i] = crypto.Null{}
			members = append(members, i)
		}
	}
	dcfg := core.BankDaemonConfig{
		Bank: bank.Config{
			NumISPs:        numISPs,
			Compliant:      compliant,
			InitialAccount: ispFunds,
			OwnSealer:      crypto.Null{},
			SettleOnVerify: cfg.Settle,
		},
		ListenAddr:  "127.0.0.1:0",
		Enroll:      enroll,
		MetricsAddr: "127.0.0.1:0",
		Logf:        cfg.Logf,
	}
	if c.rootSrv != nil {
		dcfg.RootAddr = c.rootSrv.Addr().String()
	}
	if cfg.WALDir != "" {
		dcfg.WALDir = filepath.Join(cfg.WALDir, fmt.Sprintf("bank%d", r))
	}
	d, err := core.StartBankDaemon(dcfg)
	if err != nil {
		return nil, err
	}
	cfg.Logf("cluster: bank[%d] on %s serving %v", r, d.Addr(), members)
	return d, nil
}

// startISP boots (or reboots, from its WAL) the daemon behind d; d's
// identity fields are already set.
func (c *Cluster) startISP(d *ISP) error {
	cfg := c.cfg
	users := make([]core.User, len(d.Users))
	for u, name := range d.Users {
		users[u] = core.User{Name: name, Account: initialAccount, Balance: initialBalance, Limit: cfg.DailyLimit}
	}
	icfg := core.ISPDaemonConfig{
		Node: core.NodeConfig{
			Engine: isp.Config{
				Index:          d.Index,
				Domain:         d.Domain,
				Directory:      isp.NewDirectory(c.Domains, nil),
				MinAvail:       minAvail,
				MaxAvail:       maxAvail,
				InitialAvail:   cfg.InitialAvail,
				DefaultLimit:   cfg.DailyLimit,
				FreezeDuration: freezeDuration,
				Policy:         isp.AcceptUnpaid,
				BankSealer:     crypto.Null{},
				OwnSealer:      crypto.Null{},
				BatchOrders:    cfg.BatchOrders,
			},
			ListenAddr:   "127.0.0.1:0",
			BankAddr:     c.banks[c.assign[d.Index]].Addr().String(),
			TickInterval: tickInterval,
			Queue:        cfg.Queue,
			QueueDepth:   queueDepth,
			QueueWorkers: queueWorkers,
			Mailbox: func(user string, msg *mail.Message) {
				d.delivered.Add(1)
			},
			Logf: func(format string, args ...any) {
				cfg.Logf("isp[%d]: "+format, append([]any{d.Index}, args...)...)
			},
		},
		Users:       users,
		MetricsAddr: "127.0.0.1:0",
	}
	if cfg.WALDir != "" {
		icfg.WALDir = filepath.Join(cfg.WALDir, fmt.Sprintf("isp%d", d.Index))
	}
	daemon, err := core.StartISPDaemon(icfg)
	if err != nil {
		return fmt.Errorf("cluster: isp[%d]: %w", d.Index, err)
	}
	d.daemon = daemon
	cfg.Logf("cluster: isp[%d] %s smtp on %s", d.Index, d.Domain, d.SMTPAddr())
	return nil
}

// ISP returns daemon i.
func (c *Cluster) ISP(i int) *ISP { return c.isps[i] }

// Banks returns every bank-level daemon, indexed by region (one
// central, or R leaves).
func (c *Cluster) Banks() []*core.BankDaemon { return c.banks }

// Root returns the root aggregator, nil for the central topology.
func (c *Cluster) Root() *bank.Root { return c.root }

// MetricsAddrs lists every daemon's admin telemetry address: ISPs
// first, then banks, then the root.
func (c *Cluster) MetricsAddrs() []string {
	var out []string
	for _, d := range c.isps {
		out = append(out, d.MetricsAddr())
	}
	for _, b := range c.banks {
		out = append(out, b.MetricsAddr().String())
	}
	if c.rootAdmin != nil {
		out = append(out, c.rootAdmin.Addr().String())
	}
	return out
}

// TriggerAudit starts one federation-wide §4.4 audit round: every
// leaf (or the central bank) snapshots its ISPs. Completion is
// observable via AuditComplete.
func (c *Cluster) TriggerAudit() error {
	for r, bd := range c.banks {
		if err := bd.Bank().StartSnapshot(); err != nil {
			return fmt.Errorf("cluster: bank[%d]: %w", r, err)
		}
	}
	c.audits++
	return nil
}

// AuditComplete reports whether every round triggered so far has fully
// verified — at every leaf, and (two-level topology) at the root.
func (c *Cluster) AuditComplete() bool {
	for _, bd := range c.banks {
		if !bd.Bank().RoundComplete() {
			return false
		}
	}
	if c.root != nil && c.root.RoundsVerified() < c.audits {
		return false
	}
	return true
}

// Violations gathers every flagged pair across the bank tree:
// intra-region pairs from the leaves, cross-region pairs from the
// root.
func (c *Cluster) Violations() []bank.Violation {
	var out []bank.Violation
	for _, bd := range c.banks {
		out = append(out, bd.Bank().Violations()...)
	}
	if c.root != nil {
		out = append(out, c.root.Violations()...)
	}
	return out
}

// TotalEPennies sums the conserved quantity over every ISP ledger:
// user balances + pool + credit claims. Paired with Outstanding it is
// the federation conservation check (experiment E1, now over TCP).
func (c *Cluster) TotalEPennies() int64 {
	var total int64
	for _, d := range c.isps {
		total += d.Engine().TotalEPennies()
	}
	return total
}

// Outstanding sums net minted e-pennies over every bank daemon.
func (c *Cluster) Outstanding() int64 {
	var total int64
	for _, bd := range c.banks {
		total += bd.Bank().Outstanding()
	}
	return total
}

// Conserved reports whether the ISP-side and bank-side tallies agree
// right now: TotalEPennies == the boot total + Outstanding, the same
// invariant experiment E1 checks in-process. Transient disagreement is
// normal while a buy or sell is in flight; callers poll it into
// stability with WaitFor.
func (c *Cluster) Conserved() bool {
	return c.TotalEPennies() == c.initialE+c.Outstanding()
}

// RestartISP crash-stops daemon i (closing its WAL the way a clean
// shutdown would; the WAL replay tests under internal/isp cover dirty
// tails) and boots a fresh daemon from the same WAL directory on new
// ephemeral ports, then re-wires the peer mesh. The restarted engine's
// ledger must come back entirely from the log.
func (c *Cluster) RestartISP(i int) error {
	d := c.isps[i]
	if err := d.Close(); err != nil {
		return fmt.Errorf("cluster: stop isp[%d]: %w", i, err)
	}
	if err := c.startISP(d); err != nil {
		return err
	}
	c.wirePeers()
	return nil
}

// Close tears the whole federation down, ISPs first so their final
// bank traffic still has a server to fail against quietly.
func (c *Cluster) Close() error {
	var errs []error
	for _, d := range c.isps {
		errs = append(errs, d.Close())
	}
	for _, bd := range c.banks {
		errs = append(errs, bd.Close())
	}
	errs = append(errs, c.rootAdmin.Close())
	if c.rootSrv != nil {
		errs = append(errs, c.rootSrv.Close())
	}
	return errors.Join(errs...)
}

// WaitFor polls cond every few milliseconds until it holds or the
// deadline passes — the no-fixed-sleeps idiom every cluster test uses
// (like experiment E12's live-TCP poll loops).
func WaitFor(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}
