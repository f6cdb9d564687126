// Package sim builds deterministic multi-ISP Zmail worlds for the
// experiment harness: compliant ISP engines and the central bank wired
// over the simulated network (internal/simnet) under a virtual clock,
// plus plain-SMTP non-compliant ISPs for spam injection and
// incremental-deployment scenarios.
//
// Everything is reproducible from Config.Seed. The heavyweight crypto
// is swapped for crypto.Null by default (the protocol logic — nonces,
// sequence numbers, replay handling — still runs; only the sealing cost
// is elided), and can be enabled for end-to-end realism.
package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"zmail/internal/bank"
	"zmail/internal/chaos"
	"zmail/internal/clock"
	"zmail/internal/crypto"
	"zmail/internal/isp"
	"zmail/internal/mail"
	"zmail/internal/metrics"
	"zmail/internal/money"
	"zmail/internal/simnet"
	"zmail/internal/trace"
	"zmail/internal/wire"
)

// Config sizes a world.
type Config struct {
	// NumISPs is the federation size; domains are isp0.example … unless
	// Domains overrides them.
	NumISPs int
	// Domains optionally names each ISP.
	Domains []string
	// Compliant marks participating ISPs; nil means all compliant.
	Compliant []bool
	// UsersPerISP registers u0…u{n-1} at every ISP.
	UsersPerISP int
	// InitialBalance and InitialAccount seed each user.
	InitialBalance money.EPenny
	// InitialAccount is each user's real-money deposit.
	InitialAccount money.Penny
	// DefaultLimit is the per-user daily send cap.
	DefaultLimit int64
	// MinAvail/MaxAvail/InitialAvail configure each compliant ISP pool.
	MinAvail, MaxAvail, InitialAvail money.EPenny
	// BankFunds seeds each compliant ISP's account at the bank.
	BankFunds money.Penny
	// FreezeDuration is the snapshot quiet period; zero selects one
	// virtual minute (delivery latency is milliseconds, so a minute is
	// the paper's 10 minutes scaled to the simulated link speed).
	FreezeDuration time.Duration
	// Policy is each engine's unpaid-mail policy.
	Policy isp.NonCompliantPolicy
	// Filter backs FilterUnpaid policies.
	Filter func(*mail.Message) bool
	// RealCrypto enables RSA sealed boxes instead of crypto.Null.
	RealCrypto bool
	// Settle enables inter-ISP real-money settlement at each verified
	// audit round (bank.Config.SettleOnVerify).
	Settle bool
	// Seed drives the network and any stochastic workload.
	Seed int64
	// Faults configures network fault injection (drops, duplicates);
	// the zero value is a perfect network. Partitions can be added at
	// runtime via World.Net.
	Faults simnet.FaultPlan
	// RestockRetry is handed to every engine (isp.Config.RestockRetry):
	// re-arm an unanswered pool buy after this much virtual time, so a
	// buy lost to a bank outage does not park the restock handshake
	// forever. Zero disables retries (the seed behavior).
	RestockRetry time.Duration
	// Chaos is an optional crash/restart fault plan executed by
	// World.RunChaos (see internal/chaos and chaos.go in this package).
	// Nil disables chaos.
	Chaos *chaos.Plan
	// ChaosDir holds the per-node WAL directories written during a
	// chaos run; empty selects a fresh temp directory owned (and
	// removed) by RunChaos.
	ChaosDir string
}

func (c *Config) fill() {
	if c.NumISPs == 0 {
		c.NumISPs = 3
	}
	if c.Domains == nil {
		c.Domains = make([]string, c.NumISPs)
		for i := range c.Domains {
			c.Domains[i] = fmt.Sprintf("isp%d.example", i)
		}
	}
	if c.Compliant == nil {
		c.Compliant = make([]bool, c.NumISPs)
		for i := range c.Compliant {
			c.Compliant[i] = true
		}
	}
	if c.UsersPerISP == 0 {
		c.UsersPerISP = 4
	}
	if c.InitialBalance == 0 {
		c.InitialBalance = 100
	}
	if c.InitialAccount == 0 {
		c.InitialAccount = 1000
	}
	if c.DefaultLimit == 0 {
		c.DefaultLimit = 1000
	}
	if c.MinAvail == 0 {
		c.MinAvail = 500
	}
	if c.MaxAvail == 0 {
		c.MaxAvail = 5000
	}
	if c.InitialAvail == 0 {
		// Cover every user's seed balance plus a healthy operating
		// band, so registration never drains the pool below MinAvail.
		c.InitialAvail = money.EPenny(c.UsersPerISP)*c.InitialBalance + 2*c.MinAvail
		if c.InitialAvail > c.MaxAvail {
			c.MaxAvail = 2 * c.InitialAvail
		}
	}
	if c.BankFunds == 0 {
		c.BankFunds = 1_000_000
	}
	if c.FreezeDuration == 0 {
		c.FreezeDuration = time.Minute
	}
}

// Latency is the simulated network's per-message delay.
const Latency = 10 * time.Millisecond

// mailPayload travels ISP→ISP on the simulated network.
type mailPayload struct {
	fromDomain string
	msg        *mail.Message
}

// World is one running simulation.
type World struct {
	Cfg   Config
	Clock *clock.Virtual
	Net   *simnet.Network
	Dir   *isp.Directory
	Bank  *bank.Bank
	// Engines[i] is nil for non-compliant ISPs.
	Engines []*isp.Engine
	// Trace records every span from every party, queryable by flow ID.
	// Tracing is always on: the tracers run off the virtual clock and
	// plain counters, so seeded output is unchanged by it.
	Trace *trace.Recorder

	mu       sync.Mutex
	inboxes  map[string][]*mail.Message // key "user@domain"
	ackSinks map[string]func(*mail.Message)
	foreign  int64 // mail routed to unknown domains
	rng      *rand.Rand

	initialE int64

	// Key material, per-node transports, and tracers are retained so a
	// crashed node can be rebuilt with the same identity (see chaos.go).
	// Reusing the tracer across incarnations keeps minted flow IDs
	// unique for the whole run.
	bankBox    crypto.Sealer
	ispBoxes   []crypto.Sealer
	ispTrans   []*ispTransport
	bankTrans  *bankTransport
	tracers    []*trace.Tracer
	bankTracer *trace.Tracer

	// Chaos bookkeeping (chaos.go): which nodes are down, each down
	// ISP's durable e-penny total (the disk survives the process), the
	// channel-loss ledger, and captured envelopes for replay probes.
	nodeIdx   map[simnet.NodeID]int
	ispDown   []bool
	bankDown  bool
	downTotal []int64
	chaosDir  string
	losses    *lossLedger
	probes    *replayProbes
}

func nodeISP(i int) simnet.NodeID { return simnet.NodeID(fmt.Sprintf("isp%d", i)) }

const nodeBank = simnet.NodeID("bank")

// ispTransport adapts one engine to the world. Each engine incarnation
// owns one; the dead flag silences a crashed incarnation's stragglers
// (a pending freeze timer firing during downtime must not put traffic
// on the wire from a process that no longer exists).
type ispTransport struct {
	w     *World
	index int
	dead  atomic.Bool
}

var _ isp.Transport = (*ispTransport)(nil)

func (t *ispTransport) SendMail(toIndex int, toDomain string, msg *mail.Message) {
	if t.dead.Load() {
		return
	}
	if toIndex < 0 {
		t.w.mu.Lock()
		t.w.foreign++
		t.w.mu.Unlock()
		return
	}
	payload := mailPayload{fromDomain: t.w.Cfg.Domains[t.index], msg: msg}
	_ = t.w.Net.Send(nodeISP(t.index), nodeISP(toIndex), payload)
}

func (t *ispTransport) SendBank(env *wire.Envelope) {
	if t.dead.Load() {
		return
	}
	_ = t.w.Net.Send(nodeISP(t.index), nodeBank, env)
}

func (t *ispTransport) DeliverLocal(user string, msg *mail.Message) {
	if t.dead.Load() {
		return
	}
	t.w.deliver(user+"@"+t.w.Cfg.Domains[t.index], msg)
}

func (t *ispTransport) DeliverAck(user string, msg *mail.Message) {
	if t.dead.Load() {
		return
	}
	t.w.deliverAck(user+"@"+t.w.Cfg.Domains[t.index], msg)
}

// bankTransport adapts the bank to the world, with the same dead-flag
// semantics as ispTransport.
type bankTransport struct {
	w    *World
	dead atomic.Bool
}

var _ bank.Transport = (*bankTransport)(nil)

func (t *bankTransport) SendISP(index int, env *wire.Envelope) {
	if t.dead.Load() {
		return
	}
	_ = t.w.Net.Send(nodeBank, nodeISP(index), env)
}

// NewWorld wires up the federation.
func NewWorld(cfg Config) (*World, error) {
	cfg.fill()
	if cfg.Chaos != nil {
		if err := cfg.Chaos.Validate(cfg.NumISPs); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	w := &World{
		Cfg:      cfg,
		Clock:    clock.NewVirtual(time.Unix(1_100_000_000, 0)), // Nov 2004, the paper's era
		inboxes:  make(map[string][]*mail.Message),
		ackSinks: make(map[string]func(*mail.Message)),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}
	w.Net = simnet.New(simnet.Config{
		Clock:  w.Clock,
		Seed:   cfg.Seed + 1,
		Faults: cfg.Faults,
		Latency: func(_, _ simnet.NodeID, _ *rand.Rand) time.Duration {
			return Latency
		},
	})
	w.Dir = isp.NewDirectory(cfg.Domains, cfg.Compliant)

	// Crypto material.
	var bankBox crypto.Sealer = crypto.Null{}
	ispBoxes := make([]crypto.Sealer, cfg.NumISPs)
	for i := range ispBoxes {
		ispBoxes[i] = crypto.Null{}
	}
	if cfg.RealCrypto {
		bb, err := crypto.GenerateBox(1024, nil)
		if err != nil {
			return nil, fmt.Errorf("sim: bank keys: %w", err)
		}
		bankBox = bb
		for i := range ispBoxes {
			if !cfg.Compliant[i] {
				continue
			}
			box, err := crypto.GenerateBox(1024, nil)
			if err != nil {
				return nil, fmt.Errorf("sim: isp keys: %w", err)
			}
			ispBoxes[i] = box
		}
	}

	w.bankBox = bankBox
	w.ispBoxes = ispBoxes
	w.Trace = trace.NewRecorder()
	w.bankTracer = trace.New("bank", -1, w.Clock, w.Trace)
	w.tracers = make([]*trace.Tracer, cfg.NumISPs)
	for i := range w.tracers {
		w.tracers[i] = trace.New(cfg.Domains[i], i, w.Clock, w.Trace)
	}
	w.ispTrans = make([]*ispTransport, cfg.NumISPs)
	w.ispDown = make([]bool, cfg.NumISPs)
	w.downTotal = make([]int64, cfg.NumISPs)
	w.nodeIdx = make(map[simnet.NodeID]int, cfg.NumISPs)
	for i := 0; i < cfg.NumISPs; i++ {
		w.nodeIdx[nodeISP(i)] = i
	}

	w.bankTrans = &bankTransport{w: w}
	bk, err := bank.New(bank.Config{
		NumISPs:        cfg.NumISPs,
		Compliant:      cfg.Compliant,
		InitialAccount: cfg.BankFunds,
		Transport:      w.bankTrans,
		OwnSealer:      bankBox,
		SettleOnVerify: cfg.Settle,
		Tracer:         w.bankTracer,
	})
	if err != nil {
		return nil, err
	}
	w.Bank = bk
	w.Net.Register(nodeBank, w.bankHandler())

	w.Engines = make([]*isp.Engine, cfg.NumISPs)
	for i := 0; i < cfg.NumISPs; i++ {
		if !cfg.Compliant[i] {
			// Non-compliant ISP: a plain mail sink/source.
			w.Net.Register(nodeISP(i), func(_ simnet.NodeID, payload any) {
				if mp, ok := payload.(mailPayload); ok {
					w.deliver(mp.msg.To.String(), mp.msg)
				}
			})
			continue
		}
		eng, err := w.buildEngine(i)
		if err != nil {
			return nil, err
		}
		w.Engines[i] = eng
		if err := bk.Enroll(i, ispBoxes[i]); err != nil {
			return nil, err
		}
		w.Net.Register(nodeISP(i), w.ispHandler(eng))
		for u := 0; u < cfg.UsersPerISP; u++ {
			name := fmt.Sprintf("u%d", u)
			if err := eng.RegisterUser(name, cfg.InitialAccount, cfg.InitialBalance, cfg.DefaultLimit); err != nil {
				return nil, fmt.Errorf("sim: register %s@%s: %w", name, cfg.Domains[i], err)
			}
		}
	}
	w.initialE = w.TotalEPennies()
	return w, nil
}

// buildEngine constructs the compliant engine (and its transport) for
// index i with the world's retained key material. Used at world
// construction and again when a crashed ISP restarts.
func (w *World) buildEngine(i int) (*isp.Engine, error) {
	tr := &ispTransport{w: w, index: i}
	eng, err := isp.New(isp.Config{
		Index:          i,
		Domain:         w.Cfg.Domains[i],
		Directory:      w.Dir,
		Clock:          w.Clock,
		Transport:      tr,
		MinAvail:       w.Cfg.MinAvail,
		MaxAvail:       w.Cfg.MaxAvail,
		InitialAvail:   w.Cfg.InitialAvail,
		DefaultLimit:   w.Cfg.DefaultLimit,
		FreezeDuration: w.Cfg.FreezeDuration,
		RestockRetry:   w.Cfg.RestockRetry,
		Policy:         w.Cfg.Policy,
		Filter:         w.Cfg.Filter,
		BankSealer:     w.bankBox.PublicOnly(),
		OwnSealer:      w.ispBoxes[i],
		Tracer:         w.tracers[i],
	})
	if err != nil {
		return nil, err
	}
	w.ispTrans[i] = tr
	return eng, nil
}

// ispHandler is the network receive loop for one engine incarnation.
func (w *World) ispHandler(eng *isp.Engine) simnet.Handler {
	return func(_ simnet.NodeID, payload any) {
		switch p := payload.(type) {
		case mailPayload:
			_ = eng.ReceiveRemote(p.fromDomain, p.msg)
		case *wire.Envelope:
			_ = eng.HandleBank(p)
		}
		_ = eng.Tick()
	}
}

// bankHandler is the bank's receive loop; it reads w.Bank on every
// delivery so a restarted bank instance picks up seamlessly.
func (w *World) bankHandler() simnet.Handler {
	return func(_ simnet.NodeID, payload any) {
		if env, ok := payload.(*wire.Envelope); ok {
			_ = w.Bank.Handle(env)
		}
	}
}

func (w *World) deliver(addr string, msg *mail.Message) {
	w.mu.Lock()
	w.inboxes[addr] = append(w.inboxes[addr], msg)
	w.mu.Unlock()
}

func (w *World) deliverAck(addr string, msg *mail.Message) {
	w.mu.Lock()
	sink := w.ackSinks[addr]
	w.mu.Unlock()
	if sink != nil {
		sink(msg)
		return
	}
	// No registered sink: drop silently, as an MUA would for machine
	// mail it did not ask for.
}

// SetAckSink routes acknowledgments for one address (a mailing-list
// distributor) to a handler.
func (w *World) SetAckSink(addr string, sink func(*mail.Message)) {
	w.mu.Lock()
	w.ackSinks[addr] = sink
	w.mu.Unlock()
}

// Inbox returns the messages delivered to addr.
func (w *World) Inbox(addr string) []*mail.Message {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]*mail.Message(nil), w.inboxes[addr]...)
}

// InboxCount returns how many messages addr has received.
func (w *World) InboxCount(addr string) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.inboxes[addr])
}

// TotalInbox returns total delivered messages across all mailboxes.
func (w *World) TotalInbox() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, msgs := range w.inboxes {
		n += len(msgs)
	}
	return n
}

// ForeignCount reports messages routed to unknown domains.
func (w *World) ForeignCount() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.foreign
}

// Engine returns the compliant engine at index i (nil otherwise).
func (w *World) Engine(i int) *isp.Engine { return w.Engines[i] }

// Send submits a message from a user of a compliant ISP through the
// synchronous submission path, so seeded serial runs stay
// bit-identical regardless of any attached admission queue.
func (w *World) Send(from, to, subject, body string) (isp.SendOutcome, error) {
	fa, err := mail.ParseAddress(from)
	if err != nil {
		return 0, err
	}
	ta, err := mail.ParseAddress(to)
	if err != nil {
		return 0, err
	}
	idx, compliant, ok := w.Dir.Lookup(fa.Domain)
	if !ok || !compliant {
		return 0, fmt.Errorf("sim: %s is not a compliant-ISP user; use InjectUnpaid", from)
	}
	msg := mail.NewMessage(fa, ta, subject, body)
	eng := w.Engines[idx]
	if eng == nil {
		return 0, fmt.Errorf("sim: %s is down (crashed)", fa.Domain)
	}
	return eng.SubmitSync(msg)
}

// SendSpec describes one submission for SendAll.
type SendSpec struct {
	From, To, Subject, Body string
}

// SendResult pairs a SendAll outcome with its error, positionally
// matching the input spec.
type SendResult struct {
	Outcome isp.SendOutcome
	Err     error
}

// SendAll submits a batch of messages serially, in spec order, as
// Send would one by one. Results are positional, so callers can
// correlate errors with specs.
func (w *World) SendAll(specs []SendSpec) []SendResult {
	results := make([]SendResult, len(specs))
	for i, s := range specs {
		results[i].Outcome, results[i].Err = w.Send(s.From, s.To, s.Subject, s.Body)
	}
	return results
}

// InjectUnpaid delivers a message from a non-compliant or foreign
// domain straight onto the wire toward the recipient's ISP — the path
// spam takes from outside the federation.
func (w *World) InjectUnpaid(fromDomain, to, subject, body string) error {
	ta, err := mail.ParseAddress(to)
	if err != nil {
		return err
	}
	idx, _, ok := w.Dir.Lookup(ta.Domain)
	if !ok {
		return fmt.Errorf("sim: unknown destination domain %s", ta.Domain)
	}
	from := mail.Address{Local: "bulk", Domain: fromDomain}
	msg := mail.NewMessage(from, ta, subject, body)
	var src simnet.NodeID = "foreign:" + simnet.NodeID(fromDomain)
	if srcIdx, _, known := w.Dir.Lookup(fromDomain); known {
		src = nodeISP(srcIdx)
	} else {
		// Foreign sources must exist as nodes to send; register a sink
		// once.
		w.Net.Register(src, func(simnet.NodeID, any) {})
	}
	return w.Net.Send(src, nodeISP(idx), mailPayload{fromDomain: fromDomain, msg: msg})
}

// Run drains the world to quiescence and returns events fired.
func (w *World) Run() int { return w.Clock.RunUntilIdle() }

// RunFor advances virtual time by d, delivering everything due.
func (w *World) RunFor(d time.Duration) { w.Clock.Advance(d) }

// SnapshotRound drives one complete §4.4 audit: bank request, ISP
// freezes, reports, verification. It runs the world to quiescence.
func (w *World) SnapshotRound() error {
	if err := w.Bank.StartSnapshot(); err != nil {
		return err
	}
	w.Run()
	if !w.Bank.RoundComplete() {
		return fmt.Errorf("sim: snapshot round did not complete")
	}
	return nil
}

// TotalEPennies sums pool + balances + credit over all compliant ISPs.
// At quiescence, TotalEPennies − initial == Bank.Outstanding unless an
// engine is cheating (experiment E1). A crashed ISP contributes its
// durable (checkpointed) total: the disk survives the process.
func (w *World) TotalEPennies() int64 {
	var total int64
	for i, e := range w.Engines {
		switch {
		case e != nil:
			total += e.TotalEPennies()
		case w.ispDown[i]:
			total += w.downTotal[i]
		}
	}
	return total
}

// InitialEPennies reports the world's starting stock.
func (w *World) InitialEPennies() int64 { return w.initialE }

// ConservationHolds checks the E1 invariant at quiescence.
func (w *World) ConservationHolds() bool {
	return w.TotalEPennies() == w.initialE+w.Bank.Outstanding()
}

// EndOfDay resets every live compliant engine's sent counters.
func (w *World) EndOfDay() {
	for _, e := range w.Engines {
		if e != nil {
			e.EndOfDay()
		}
	}
}

// Rand exposes the world's seeded RNG for workload generators.
func (w *World) Rand() *rand.Rand { return w.rng }

// UserAddr builds "u<n>@<domain i>".
func (w *World) UserAddr(ispIdx, userIdx int) string {
	return fmt.Sprintf("u%d@%s", userIdx, w.Cfg.Domains[ispIdx])
}

var _ metrics.Collector = (*World)(nil)

// Collect implements metrics.Collector for the whole federation: every
// live compliant engine plus the bank publish into r, so one registry
// (and one /metrics scrape, under the harness) covers the world.
func (w *World) Collect(r *metrics.Registry) {
	for _, e := range w.Engines {
		if e != nil {
			e.Collect(r)
		}
	}
	w.Bank.Collect(r)
}
