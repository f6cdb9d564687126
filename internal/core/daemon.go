package core

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"time"

	"zmail/internal/bank"
	"zmail/internal/clock"
	"zmail/internal/crypto"
	"zmail/internal/isp"
	"zmail/internal/metrics"
	"zmail/internal/money"
	"zmail/internal/obsv"
	"zmail/internal/persist"
	"zmail/internal/trace"
)

// A daemon boots in one order: build the engine, replay or create its
// WAL, register users or enroll ISPs, and only then open the network,
// so no peer meets a ledger the replay has not finished. Close runs the
// reverse: telemetry, the uplink, the node or server (draining what it
// accepted), the final checkpoint, and the WAL close, so every reply a
// peer saw has its record logged.

// traceRingSpans is how many recent spans a daemon retains for
// /tracez. At one paid delivery ≈ three spans this is a few minutes of
// history on a busy ISP, in ~300 KB.
const traceRingSpans = 4096

// checkpointEvery is how often a daemon fsyncs (or compacts) its WAL
// before the checkpoint that shutdown takes.
const checkpointEvery = 5 * time.Minute

// User is one account an ISP daemon registers at boot.
type User struct {
	Name    string
	Account money.Penny
	Balance money.EPenny
	Limit   int64
}

// ISPDaemonConfig configures StartISPDaemon.
type ISPDaemonConfig struct {
	// Node is the node's whole configuration, Mailbox and AckSink
	// included. A nil Engine.Tracer records into the daemon's /tracez
	// ring.
	Node NodeConfig
	// WALDir, when set, holds the ledger's write-ahead log: replayed
	// at boot when one exists there, created otherwise.
	WALDir string
	// Users are registered at boot. A user the recovered ledger
	// already holds keeps its logged state.
	Users []User
	// MetricsAddr, when set, binds the admin listener: /metrics,
	// /healthz, /tracez, /debug/pprof and the ledger pages (see
	// ledgerPages).
	MetricsAddr string
}

// ISPDaemon is one booted compliant-ISP daemon: a Node, its WAL and
// checkpoint timer, and its admin listener.
type ISPDaemon struct {
	node     *Node
	admin    *obsv.Server // nil without MetricsAddr
	stopCkpt func()
}

// StartISPDaemon boots an ISP daemon (see the order above). On error
// everything it started is released.
func StartISPDaemon(cfg ISPDaemonConfig) (_ *ISPDaemon, err error) {
	ncfg := cfg.Node
	if ncfg.Engine.Clock == nil {
		ncfg.Engine.Clock = clock.System()
	}
	ring := trace.NewRing(traceRingSpans)
	if ncfg.Engine.Tracer == nil {
		ncfg.Engine.Tracer = trace.New(ncfg.Engine.Domain, ncfg.Engine.Index, ncfg.Engine.Clock, ring)
	}
	n, err := newNode(ncfg)
	if err != nil {
		return nil, err
	}
	d := &ISPDaemon{node: n, stopCkpt: func() {}}
	defer func() {
		if err != nil {
			_ = d.Close()
		}
	}()
	eng, logf := n.engine, n.cfg.Logf
	if cfg.WALDir != "" {
		if err := openWAL(cfg.WALDir, eng.RecoverWAL, eng.AttachWAL, logf); err != nil {
			return nil, err
		}
		d.stopCkpt = persist.StartCheckpoints(eng.Clock(), eng.Checkpoint, checkpointEvery, func(err error) {
			logf("checkpoint: %v", err)
		})
	}
	for _, u := range cfg.Users {
		err := eng.RegisterUser(u.Name, u.Account, u.Balance, u.Limit)
		if err != nil && !errors.Is(err, isp.ErrDuplicateUser) { // a logged user keeps its state
			return nil, err
		}
	}
	if err := n.start(); err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	reg.Register(eng)
	reg.Register(n)
	if d.admin, err = obsv.Start(cfg.MetricsAddr, obsv.Config{Registry: reg, Ring: ring, Health: walHealth(eng.WALErrors), Pages: ledgerPages(eng)}); err != nil {
		return nil, err
	}
	return d, nil
}

// Node returns the daemon's node.
func (d *ISPDaemon) Node() *Node { return d.node }

// MetricsAddr returns the bound admin listener address, or nil.
func (d *ISPDaemon) MetricsAddr() net.Addr { return d.admin.Addr() }

// Close shuts the daemon down in the reverse of boot order. It is safe
// to call more than once.
func (d *ISPDaemon) Close() error {
	d.stopCkpt()
	err := errors.Join(d.admin.Close(), d.node.Close())
	if eng := d.node.engine; eng.WALAttached() {
		err = errors.Join(err, eng.Checkpoint(), eng.CloseWAL())
	}
	return err
}

// BankDaemonConfig configures StartBankDaemon.
type BankDaemonConfig struct {
	// Bank configures the bank; its Transport is the daemon's server.
	// A nil Tracer records into the daemon's /tracez ring.
	Bank bank.Config
	// ListenAddr is the bank-protocol listen address.
	ListenAddr string
	// WALDir, when set, holds the bank's write-ahead log: replayed at
	// boot when one exists there, created otherwise.
	WALDir string
	// Enroll maps each served ISP's index to its reply sealer (its
	// public key).
	Enroll map[int]crypto.Sealer
	// RootAddr, when set, is the root of the bank tree: every credit
	// report the bank handles is forwarded there.
	RootAddr string
	// MetricsAddr, when set, binds the admin listener.
	MetricsAddr string
	// Logf logs diagnostics; nil uses log.Printf.
	Logf func(format string, args ...any)
}

// BankDaemon is one booted bank (central, or a leaf of the bank tree):
// the bank, its checkpoint timer, its server, its optional uplink to
// the root, and its admin listener.
type BankDaemon struct {
	bank     *bank.Bank
	srv      *BankServer
	uplink   *Uplink      // nil without RootAddr
	admin    *obsv.Server // nil without MetricsAddr
	stopCkpt func()
}

// StartBankDaemon boots a bank daemon (see the order above). On error
// everything it started is released.
func StartBankDaemon(cfg BankDaemonConfig) (_ *BankDaemon, err error) {
	srv := NewBankServer(nil, cfg.Logf)
	bcfg := cfg.Bank
	bcfg.Transport = srv.Transport()
	ring := trace.NewRing(traceRingSpans)
	if bcfg.Tracer == nil {
		bcfg.Tracer = trace.New("bank", -1, clock.System(), ring)
	}
	b, err := bank.New(bcfg)
	if err != nil {
		return nil, err
	}
	srv.bank = b
	d := &BankDaemon{bank: b, srv: srv, stopCkpt: func() {}}
	defer func() {
		if err != nil {
			_ = d.Close()
		}
	}()
	for idx, sealer := range cfg.Enroll {
		if err := b.Enroll(idx, sealer); err != nil {
			return nil, err
		}
	}
	if cfg.WALDir != "" {
		if err := openWAL(cfg.WALDir, b.RecoverWAL, b.AttachWAL, srv.logf); err != nil {
			return nil, err
		}
		d.stopCkpt = persist.StartCheckpoints(clock.System(), b.Checkpoint, checkpointEvery, func(err error) {
			srv.logf("checkpoint: %v", err)
		})
	}
	if cfg.RootAddr != "" {
		// The root tells leaves apart by the index in their hello; a
		// leaf announces the first ISP it serves.
		from := max(slices.Index(bcfg.Compliant, true), 0)
		d.uplink = NewUplink(cfg.RootAddr, from, srv.logf)
		srv.SetForward(d.uplink.Forward)
	}
	if err := srv.Listen(cfg.ListenAddr); err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	reg.Register(b)
	if d.admin, err = obsv.Start(cfg.MetricsAddr, obsv.Config{Registry: reg, Ring: ring, Health: walHealth(b.WALErrors)}); err != nil {
		return nil, err
	}
	return d, nil
}

// Bank returns the daemon's bank.
func (d *BankDaemon) Bank() *bank.Bank { return d.bank }

// Addr returns the bound bank-protocol address.
func (d *BankDaemon) Addr() net.Addr { return d.srv.Addr() }

// MetricsAddr returns the bound admin listener address, or nil.
func (d *BankDaemon) MetricsAddr() net.Addr { return d.admin.Addr() }

// Close shuts the daemon down in the reverse of boot order. It is safe
// to call more than once.
func (d *BankDaemon) Close() error {
	d.stopCkpt()
	err := d.admin.Close()
	if d.uplink != nil {
		err = errors.Join(err, d.uplink.Close())
	}
	err = errors.Join(err, d.srv.Close())
	if d.bank.WALAttached() {
		err = errors.Join(err, d.bank.Checkpoint(), d.bank.CloseWAL())
	}
	return err
}

// openWAL replays the WAL in dir when one exists there and creates it
// otherwise.
func openWAL(dir string, replay, attach func(string) error, logf func(string, ...any)) error {
	if persist.HasWAL(dir) {
		if err := replay(dir); err != nil {
			return fmt.Errorf("recover %s: %w", dir, err)
		}
		logf("recovered ledger from WAL %s", dir)
		return nil
	}
	if err := attach(dir); err != nil {
		return fmt.Errorf("init %s: %w", dir, err)
	}
	logf("write-ahead log initialized at %s", dir)
	return nil
}

// walHealth fails /healthz once a mutation record has failed to reach
// the WAL: the ledger then holds state a restart would not recover.
func walHealth(walErrors func() int64) func() error {
	return func() error {
		if n := walErrors(); n > 0 {
			return fmt.Errorf("wal append failures: %d", n)
		}
		return nil
	}
}

// ledgerPages are an ISP's ledger views on its admin listener, the ones
// /metrics does not carry: every user, one user's statement (the §1.3
// transparency view), the credit array of the current billing period,
// and the pool with its band.
func ledgerPages(eng *isp.Engine) map[string]http.HandlerFunc {
	return map[string]http.HandlerFunc{
		"/users": func(w http.ResponseWriter, _ *http.Request) {
			for _, u := range eng.Users() {
				fmt.Fprintf(w, "%s balance=%v account=%v sent=%d/%d\n",
					u.Name, u.Balance, u.Account, u.Sent, u.Limit)
			}
		},
		"/statement": func(w http.ResponseWriter, r *http.Request) {
			name := r.URL.Query().Get("user")
			if name == "" {
				http.Error(w, "usage: /statement?user=<name>", http.StatusBadRequest)
				return
			}
			if _, ok := eng.User(name); !ok {
				http.Error(w, fmt.Sprintf("%v: %q", isp.ErrUnknownUser, name), http.StatusNotFound)
				return
			}
			fmt.Fprint(w, eng.FormatStatement(name))
		},
		"/credit": func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprintf(w, "credit=%v\n", eng.Credit())
		},
		"/pool": func(w http.ResponseWriter, _ *http.Request) {
			lo, hi := eng.PoolBand()
			fmt.Fprintf(w, "avail=%v band=[%v, %v]\n", eng.Avail(), lo, hi)
		},
	}
}
