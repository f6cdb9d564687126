// Package cluster boots a complete Zmail federation over real TCP on
// loopback: two ISP daemons (the same core.Node that cmd/zmaild runs,
// with SMTP listeners, persistent bank links, tick loops, admin
// telemetry and optional WAL durability) in front of either one central
// bank or the §5 two-level hierarchy — a leaf bank per ISP, forwarding
// credit reports to a root aggregator that verifies the cross-region
// pair.
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
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"zmail/internal/bank"
	"zmail/internal/clock"
	"zmail/internal/core"
	"zmail/internal/crypto"
	"zmail/internal/isp"
	"zmail/internal/mail"
	"zmail/internal/metrics"
	"zmail/internal/money"
	"zmail/internal/obsv"
	"zmail/internal/persist"
	"zmail/internal/trace"
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
	// GroupSettle enables settlement at every (leaf) bank with
	// multilateral netting per verified audit round.
	GroupSettle bool

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

// ISP is one booted ISP daemon plus its telemetry surface.
type ISP struct {
	Index  int
	Domain string
	Region int
	Users  []string

	node      *core.Node
	admin     *obsv.Server
	walDir    string
	delivered atomic.Int64
}

// SMTPAddr returns the daemon's bound SMTP address.
func (i *ISP) SMTPAddr() string { return i.node.Addr().String() }

// MetricsAddr returns the admin telemetry address.
func (i *ISP) MetricsAddr() string { return i.admin.Addr().String() }

// Engine exposes the daemon's protocol engine (ledger inspection in
// tests; production callers scrape /metrics instead).
func (i *ISP) Engine() *isp.Engine { return i.node.Engine() }

// Delivered counts messages the daemon handed to local mailboxes over
// its lifetime, surviving restarts (the counter lives in the harness,
// not the node).
func (i *ISP) Delivered() int64 { return i.delivered.Load() }

// Close tears this ISP daemon down: telemetry first, then the WAL so
// the final ledger state is durable, then the node itself. Safe on a
// partially booted daemon — whatever never started is skipped.
func (i *ISP) Close() error {
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if i.admin != nil {
		keep(i.admin.Close())
		i.admin = nil
	}
	if i.node != nil {
		if i.walDir != "" {
			keep(i.node.Engine().CloseWAL())
		}
		keep(i.node.Close())
	}
	return firstErr
}

// BankDaemon is one bank-level daemon: the single central bank, or one
// leaf of the two-level hierarchy.
type BankDaemon struct {
	Region int
	Bank   *bank.Bank

	srv    *core.BankServer
	admin  *obsv.Server
	uplink *core.Uplink
	walDir string
}

// Addr returns the daemon's bound bank-protocol address.
func (b *BankDaemon) Addr() string { return b.srv.Addr().String() }

// MetricsAddr returns the admin telemetry address.
func (b *BankDaemon) MetricsAddr() string { return b.admin.Addr().String() }

// Close tears this bank daemon down: telemetry, the root uplink, the
// WAL, and finally the serving socket. Safe on a partially booted
// daemon.
func (b *BankDaemon) Close() error {
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if b.admin != nil {
		keep(b.admin.Close())
		b.admin = nil
	}
	if b.uplink != nil {
		keep(b.uplink.Close())
	}
	if b.Bank != nil && b.walDir != "" {
		keep(b.Bank.CloseWAL())
	}
	if b.srv != nil {
		keep(b.srv.Close())
	}
	return firstErr
}

// Cluster is a running federation.
type Cluster struct {
	cfg     Config
	Domains []string
	assign  []int // isp index → region

	isps  []*ISP
	banks []*BankDaemon

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

	// Leaf (or central) banks. Daemons are recorded before the error
	// check: boot helpers return the partially built daemon alongside
	// their error, so New's Close-on-failure can release whatever did
	// start (listeners, WALs, tickers) instead of leaking it.
	for r := 0; r < cfg.Regions; r++ {
		bd, err := c.bootBank(r)
		c.banks = append(c.banks, bd)
		if err != nil {
			return err
		}
	}

	// ISP daemons, then the full peer mesh once every port is known.
	for i := 0; i < numISPs; i++ {
		node, err := c.bootISP(i)
		c.isps = append(c.isps, node)
		if err != nil {
			return err
		}
	}
	for i, a := range c.isps {
		for j, b := range c.isps {
			if i != j {
				a.node.AddPeer(j, b.SMTPAddr())
			}
		}
	}
	return nil
}

// bootBank starts the bank daemon for one region. With a single
// region it is the central bank; with several, a leaf that serves only
// its region's ISPs and forwards their credit reports to the root.
func (c *Cluster) bootBank(r int) (*BankDaemon, error) {
	cfg := c.cfg
	compliant := make([]bool, numISPs)
	for i := 0; i < numISPs; i++ {
		compliant[i] = c.assign[i] == r
	}

	bd := &BankDaemon{Region: r}
	bk, srv, err := core.StartBank(bank.Config{
		NumISPs:        numISPs,
		Compliant:      compliant,
		InitialAccount: ispFunds,
		OwnSealer:      crypto.Null{},
		SettleOnVerify: cfg.GroupSettle,
		GroupSettle:    cfg.GroupSettle,
	}, "127.0.0.1:0", cfg.Logf)
	if err != nil {
		return bd, err
	}
	bd.Bank, bd.srv = bk, srv
	for i := 0; i < numISPs; i++ {
		if compliant[i] {
			if err := bk.Enroll(i, crypto.Null{}); err != nil {
				return bd, err
			}
		}
	}
	if c.rootSrv != nil {
		bd.uplink = core.NewUplink(c.rootSrv.Addr().String(), r, cfg.Logf)
		srv.SetForward(bd.uplink.Forward)
	}
	if cfg.WALDir != "" {
		bd.walDir = filepath.Join(cfg.WALDir, fmt.Sprintf("bank%d", r))
		if err := os.MkdirAll(bd.walDir, 0o755); err != nil {
			return bd, err
		}
		if err := bk.AttachWAL(bd.walDir); err != nil {
			return bd, err
		}
	}
	reg := metrics.NewRegistry()
	reg.Register(bk)
	if bd.admin, err = obsv.Start("127.0.0.1:0", obsv.Config{Registry: reg}); err != nil {
		return bd, err
	}
	cfg.Logf("cluster: bank[%d] on %s serving %v", r, srv.Addr(), regionMembers(c.assign, r))
	return bd, nil
}

func regionMembers(assign []int, r int) []int {
	var out []int
	for i, a := range assign {
		if a == r {
			out = append(out, i)
		}
	}
	return out
}

// bootISP builds and starts the daemon for federation index i,
// recovering from its WAL when one exists (the restart path).
func (c *Cluster) bootISP(i int) (*ISP, error) {
	d := &ISP{Index: i, Domain: c.Domains[i], Region: c.assign[i]}
	for u := 0; u < usersPerISP; u++ {
		d.Users = append(d.Users, fmt.Sprintf("u%03d", u))
	}
	return d, c.startISP(d)
}

// startISP boots (or reboots) the node behind d; d's identity fields
// are already set.
func (c *Cluster) startISP(d *ISP) error {
	cfg := c.cfg
	clk := clock.System()
	ring := trace.NewRing(1024)
	tracer := trace.New(d.Domain, d.Index, clk, ring)

	node, err := core.NewNode(core.NodeConfig{
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
			Clock:          clk,
			Tracer:         tracer,
			BatchOrders:    cfg.BatchOrders,
		},
		ListenAddr:   "127.0.0.1:0",
		BankAddr:     c.banks[c.assign[d.Index]].Addr(),
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
	})
	if err != nil {
		return err
	}
	d.node = node
	reg := metrics.NewRegistry()
	reg.Register(node.Engine())
	reg.Register(node)

	if cfg.WALDir != "" {
		d.walDir = filepath.Join(cfg.WALDir, fmt.Sprintf("isp%d", d.Index))
		if err := os.MkdirAll(d.walDir, 0o755); err != nil {
			return err
		}
		eng := node.Engine()
		if persist.HasWAL(d.walDir) {
			if err := eng.RecoverWAL(d.walDir); err != nil {
				return fmt.Errorf("cluster: recover isp[%d] wal: %w", d.Index, err)
			}
		} else if err := eng.AttachWAL(d.walDir); err != nil {
			return fmt.Errorf("cluster: init isp[%d] wal: %w", d.Index, err)
		}
	}

	for _, u := range d.Users {
		err := node.Engine().RegisterUser(u, initialAccount, initialBalance, cfg.DailyLimit)
		if err != nil && !errors.Is(err, isp.ErrDuplicateUser) {
			return err
		}
	}

	if d.admin, err = obsv.Start("127.0.0.1:0", obsv.Config{Registry: reg, Ring: ring}); err != nil {
		return err
	}
	cfg.Logf("cluster: isp[%d] %s smtp on %s", d.Index, d.Domain, d.SMTPAddr())
	return nil
}

// ISP returns daemon i.
func (c *Cluster) ISP(i int) *ISP { return c.isps[i] }

// Banks returns every bank-level daemon (one central, or R leaves).
func (c *Cluster) Banks() []*BankDaemon { return c.banks }

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
		out = append(out, b.MetricsAddr())
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
	for _, bd := range c.banks {
		if err := bd.Bank.StartSnapshot(); err != nil {
			return fmt.Errorf("cluster: bank[%d]: %w", bd.Region, err)
		}
	}
	c.audits++
	return nil
}

// AuditComplete reports whether every round triggered so far has fully
// verified — at every leaf, and (two-level topology) at the root.
func (c *Cluster) AuditComplete() bool {
	for _, bd := range c.banks {
		if !bd.Bank.RoundComplete() {
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
		out = append(out, bd.Bank.Violations()...)
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
		total += bd.Bank.Outstanding()
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
	for j, other := range c.isps {
		if j == i {
			continue
		}
		other.node.AddPeer(i, d.SMTPAddr())
		d.node.AddPeer(j, other.SMTPAddr())
	}
	return nil
}

// Close tears the whole federation down, ISPs first so their final
// bank traffic still has a server to fail against quietly.
func (c *Cluster) Close() error {
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, d := range c.isps {
		if d != nil {
			keep(d.Close())
		}
	}
	for _, bd := range c.banks {
		if bd != nil {
			keep(bd.Close())
		}
	}
	if c.rootAdmin != nil {
		keep(c.rootAdmin.Close())
	}
	if c.rootSrv != nil {
		keep(c.rootSrv.Close())
	}
	return firstErr
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
