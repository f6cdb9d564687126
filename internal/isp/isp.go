// Package isp implements the compliant-ISP side of the Zmail protocol
// (§4 of the paper): the per-user e-penny ledger, the per-peer credit
// arrays, the e-penny pool traded with the bank, the daily send limits
// that bound zombie damage, and the snapshot freeze that lets the bank
// audit the federation.
//
// The Engine is pure bookkeeping plus an injected clock: all I/O is
// delegated to callbacks (Transport), so the identical engine runs
// under the deterministic in-process simulator (internal/sim) and under
// the real SMTP/TCP daemon (cmd/zmaild). Callbacks are always invoked
// after every engine lock is released, so they may re-enter the engine.
//
// # Concurrency architecture
//
// The hot send/receive path is lock-striped so concurrent SMTP sessions
// (and parallel simulator workers) proceed in parallel:
//
//   - per-user account state (balance, sent, limit, journal) lives in
//     N stripes keyed by an FNV-1a hash of the username; an operation
//     locks only the stripe(s) it touches (two stripes, in index order,
//     for an intra-ISP transfer);
//   - per-peer credit counters are plain atomics — a paid send or
//     receive adjusts them without any lock;
//   - freezeMu (an RWMutex) gates the hot path against the §4.4
//     snapshot: senders and receivers hold it for read, the freeze /
//     thaw transition holds it for write, so the credit report is an
//     exact cut while in-flight mail still drains during the quiet
//     period (preserving the E9 semantics);
//   - the remaining cold state — the e-penny pool, the bank trade
//     handshakes, the buffered outbox — stays behind a single mutex
//     that the send path only takes while frozen.
//
// Lock ordering, for every code path: freezeMu → stripe locks (in
// ascending stripe index) → mu. Whole-ledger snapshots (TotalEPennies,
// ExportState) take freezeMu for write to stop the world and read an
// exactly consistent ledger. The order is checked at run time by
// TestLockRanks: for every entry point that takes more than one rank,
// it holds each rank's lock in turn, lets the call block on it, and
// requires every lock ranked after it to be free.
package isp

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"zmail/internal/clock"
	"zmail/internal/crypto"
	"zmail/internal/mail"
	"zmail/internal/mempool"
	"zmail/internal/metrics"
	"zmail/internal/money"
	"zmail/internal/persist"
	"zmail/internal/trace"
	"zmail/internal/wire"
)

// Directory maps mail domains to federation ISP indexes and records
// which ISPs are compliant. It corresponds to the paper's published
// "compliant" array, extended with the domain names real SMTP needs.
type Directory struct {
	Domains   []string
	Compliant []bool

	// byDomain accelerates Lookup; built by NewDirectory. A Directory
	// assembled by hand (nil map) falls back to a linear scan.
	byDomain map[string]int
}

// NewDirectory builds a directory; compliant may be nil (all
// compliant).
func NewDirectory(domains []string, compliant []bool) *Directory {
	if compliant == nil {
		compliant = make([]bool, len(domains))
		for i := range compliant {
			compliant[i] = true
		}
	}
	byDomain := make(map[string]int, len(domains))
	for i, dom := range domains {
		if _, dup := byDomain[dom]; !dup {
			byDomain[dom] = i
		}
	}
	return &Directory{Domains: domains, Compliant: compliant, byDomain: byDomain}
}

// Lookup resolves a domain. ok is false for domains outside the
// directory (treated as non-compliant foreign ISPs). It runs on every
// send and receive, so directories built by NewDirectory answer from a
// map rather than scanning the federation.
func (d *Directory) Lookup(domain string) (index int, compliant bool, ok bool) {
	if d.byDomain != nil {
		if i, ok := d.byDomain[domain]; ok {
			return i, d.Compliant[i], true
		}
		return -1, false, false
	}
	for i, dom := range d.Domains {
		if dom == domain {
			return i, d.Compliant[i], true
		}
	}
	return -1, false, false
}

// Len returns the number of ISPs in the federation.
func (d *Directory) Len() int { return len(d.Domains) }

// NonCompliantPolicy selects what a compliant ISP does with mail
// arriving from non-compliant ISPs. §4.1 leaves this open ("deliver to
// r or discard it"); §5 notes users "may decide to segregate or discard
// email from non-compliant ISPs, or require [it] to pass a spam
// filter".
type NonCompliantPolicy int

// Policies for unpaid inbound mail.
const (
	// AcceptUnpaid delivers mail from non-compliant ISPs normally.
	AcceptUnpaid NonCompliantPolicy = iota + 1
	// TagUnpaid delivers it with an X-Zmail-Unpaid header so clients
	// can segregate it.
	TagUnpaid
	// FilterUnpaid passes it through the configured Filter; rejected
	// mail is discarded.
	FilterUnpaid
	// RejectUnpaid discards all unpaid mail.
	RejectUnpaid
)

// HeaderUnpaid marks mail that arrived without an e-penny payment.
const HeaderUnpaid = "X-Zmail-Unpaid"

// Transport carries the engine's outbound traffic. Implementations
// must not block for long; they are called outside every engine lock
// and may be called from multiple goroutines concurrently.
type Transport interface {
	// SendMail takes a message for the ISP at the given federation
	// index (or any foreign domain when index is -1) and returns without
	// waiting for it to be sent: a peer's handler may be calling the
	// same method on its own transport to answer us. core's
	// implementation queues it for that peer's relay sessions; the
	// simulator's hands it to the network model.
	SendMail(toIndex int, toDomain string, msg *mail.Message)
	// SendBank transmits a sealed control message to the bank.
	SendBank(env *wire.Envelope)
	// DeliverLocal hands an inbound message to a local mailbox.
	DeliverLocal(user string, msg *mail.Message)
	// DeliverAck hands an inbound acknowledgment (never shown to a
	// human) to whatever local agent awaits it, e.g. a mailing-list
	// distributor.
	DeliverAck(user string, msg *mail.Message)
}

// Config configures an Engine.
type Config struct {
	// Index is this ISP's federation index.
	Index int
	// Domain is this ISP's mail domain.
	Domain string
	// Directory is the federation map (required).
	Directory *Directory
	// Clock is injected time (required).
	Clock clock.Clock
	// Transport carries outbound traffic (required).
	Transport Transport

	// MinAvail/MaxAvail bound the e-penny pool (§4.3). When the pool
	// drops below MinAvail the engine orders it back up to the band
	// midpoint; above MaxAvail it sells the excess down to the
	// midpoint.
	MinAvail, MaxAvail money.EPenny
	// InitialAvail seeds the pool.
	InitialAvail money.EPenny
	// RestockRetry re-arms an unanswered pool order after this much
	// time, so an order lost to a bank crash does not park the restock
	// handshake forever. Zero disables retries, matching the paper's
	// reliable-channel assumption. Retrying is safe when the request was
	// lost (the bank never minted); if instead the reply was lost after
	// the bank minted, the minted value is stranded — a loss the chaos
	// auditor (internal/chaos) accounts explicitly.
	RestockRetry time.Duration

	// BatchOrders is ignored: every engine trades through one
	// wire.BatchOrder exchange (see Tick).
	//
	// Deprecated: ignored; kept so that existing callers still compile.
	BatchOrders bool

	// DefaultLimit is the per-user daily send cap applied when a user
	// registers without an explicit limit (§5, zombie containment).
	DefaultLimit int64

	// FreezeDuration is the snapshot quiet period (§4.4's "10
	// minutes"): the time from the bank's request to the cut that is
	// reported. Paid mail stays buffered a quarter of it longer, so
	// that it cannot overtake a peer's cut (thawGuardShare). Zero
	// selects 10 minutes.
	FreezeDuration time.Duration

	// Policy selects handling of unpaid inbound mail; zero selects
	// AcceptUnpaid.
	Policy NonCompliantPolicy
	// Filter is consulted when Policy is FilterUnpaid; it reports
	// whether the message should be delivered.
	Filter func(msg *mail.Message) bool

	// Stripes is the number of user-account lock stripes; zero selects
	// DefaultStripes. Values are rounded up to the next power of two.
	// One stripe degenerates to the old single-lock ledger.
	Stripes int

	// BankSealer seals control messages to the bank (required for bank
	// traffic; crypto.Null{} is acceptable in simulations).
	BankSealer crypto.Sealer
	// OwnSealer opens bank replies sealed to this ISP (required for
	// bank traffic).
	OwnSealer crypto.Sealer

	// Tracer, when non-nil, mints flow IDs at submission and records a
	// span for every e-penny movement the engine performs (charge,
	// transfer, credit, buy, sell, restock — see internal/trace). Nil
	// disables tracing at the cost of one nil check per site.
	Tracer *trace.Tracer
}

// Errors reported by the engine.
var (
	ErrUnknownUser         = errors.New("isp: unknown user")
	ErrDuplicateUser       = errors.New("isp: user already registered")
	ErrInsufficientBalance = errors.New("isp: insufficient e-penny balance")
	ErrInsufficientFunds   = errors.New("isp: insufficient real-money account")
	ErrLimitExceeded       = errors.New("isp: daily send limit exceeded")
	ErrPoolExhausted       = errors.New("isp: e-penny pool exhausted")
	ErrBadAmount           = errors.New("isp: amount must be positive")
	ErrNotCompliant        = errors.New("isp: operation requires a compliant ISP")
)

// SendOutcome describes what Submit did with a message.
type SendOutcome int

// Submit outcomes.
const (
	// SentLocal: delivered to a mailbox on this ISP; one e-penny moved
	// between the two local balances.
	SentLocal SendOutcome = iota + 1
	// SentPaid: transmitted to a compliant peer; sender charged, this
	// ISP's credit against the peer incremented.
	SentPaid
	// SentUnpaid: transmitted to a non-compliant or foreign ISP with no
	// payment (the paper's ~compliant[j] branch).
	SentUnpaid
	// SentBuffered: the engine is frozen for a snapshot; the message is
	// queued and will be charged and transmitted at thaw (§4.4: "these
	// emails will be buffered and sent right after the timeout
	// expires").
	SentBuffered
)

// String names the outcome.
func (o SendOutcome) String() string {
	switch o {
	case SentLocal:
		return "local"
	case SentPaid:
		return "paid"
	case SentUnpaid:
		return "unpaid"
	case SentBuffered:
		return "buffered"
	default:
		return fmt.Sprintf("SendOutcome(%d)", int(o))
	}
}

// user is the paper's per-user state row.
type user struct {
	name    string       // mailbox local part (stripe maps are keyed by it too)
	account money.Penny  // real pennies on deposit with the ISP
	balance money.EPenny // e-pennies
	sent    int64        // emails sent today (compliant paths only)
	limit   int64        // daily cap
	// warnedToday marks that the §5 zombie warning has been delivered
	// for the current day; reset at EndOfDay.
	warnedToday bool
	// pending counts messages admitted into the async queue but not yet
	// committed; admission enforces the daily limit against sent+pending
	// so a burst cannot overshoot the cap while queued. Deliberately
	// volatile (not in the WAL or snapshots): queued mail charges nobody
	// until commit, so a crash loses only unacknowledged work.
	pending int64
	// journal is the user's recent statement ring (see journal.go).
	journal []Entry
}

// UserInfo is a read-only snapshot of one user's state.
type UserInfo struct {
	Name    string
	Account money.Penny
	Balance money.EPenny
	Sent    int64
	Limit   int64
}

// Stats is a read-only snapshot of engine counters.
type Stats struct {
	Submitted      int64
	DeliveredLocal int64
	SentPaid       int64
	SentUnpaid     int64
	ReceivedPaid   int64
	ReceivedUnpaid int64
	Discarded      int64
	AcksGenerated  int64
	AcksReceived   int64
	Buffered       int64
	LimitRejects   int64
	BalanceRejects int64
	SnapshotRounds int64
	ZombieWarnings int64
	RestockRetries int64
	QueueRejected  int64
	QueueDropped   int64
}

// engineStats is the live, lock-free counter set behind Stats.
type engineStats struct {
	submitted      atomic.Int64
	deliveredLocal atomic.Int64
	sentPaid       atomic.Int64
	sentUnpaid     atomic.Int64
	receivedPaid   atomic.Int64
	receivedUnpaid atomic.Int64
	discarded      atomic.Int64
	acksGenerated  atomic.Int64
	acksReceived   atomic.Int64
	buffered       atomic.Int64
	limitRejects   atomic.Int64
	balanceRejects atomic.Int64
	snapshotRounds atomic.Int64
	zombieWarnings atomic.Int64
	restockRetries atomic.Int64
	queueRejected  atomic.Int64
	queueDropped   atomic.Int64
}

// engineLatencies are the engine-owned hot-path latency histograms.
// The engine observes into them directly; Collect registers the same
// pointers with the scrape registry, so repeated scrapes never
// double-count.
type engineLatencies struct {
	submit     *metrics.LatencyHist // SubmitSync, end to end
	admit      *metrics.LatencyHist // Submit admission (policy + enqueue)
	receive    *metrics.LatencyHist // ReceiveRemote, end to end
	bankRTT    *metrics.LatencyHist // pool order issue → reply
	stripeWait *metrics.LatencyHist // contended stripe-lock waits
}

func newEngineLatencies() engineLatencies {
	return engineLatencies{
		submit:     metrics.NewLatencyHist(),
		admit:      metrics.NewLatencyHist(),
		receive:    metrics.NewLatencyHist(),
		bankRTT:    metrics.NewLatencyHist(),
		stripeWait: metrics.NewLatencyHist(),
	}
}

// Engine is one compliant ISP's protocol state machine.
type Engine struct {
	cfg    Config
	nonces *crypto.Source
	msgIDs *mail.MessageIDCounter
	tracer *trace.Tracer

	// Hot state: user-account stripes, per-peer credit atomics, stats.
	stripes    []accountStripe
	stripeMask uint32
	credit     []atomic.Int64
	journalSeq atomic.Int64
	cheat      atomic.Bool
	stats      engineStats
	contention contentionCounters
	lat        engineLatencies

	// queue, when non-nil, is the async admission queue drained into
	// commitQueued (see admit.go). An atomic pointer: Submit pays one
	// load, and StopQueue can detach it while traffic flows.
	queue atomic.Pointer[mempool.Queue]

	// wal, when non-nil, receives a mutation record for every durable
	// ledger change (see wal.go). An atomic pointer so hot-path hooks
	// pay one load when no WAL is attached, and so a dead incarnation's
	// stragglers (a pending freeze timer) no-op after CloseWAL swaps it
	// out. walErrs counts records that failed to reach the log.
	wal     atomic.Pointer[persist.WAL]
	walErrs atomic.Int64

	// freezeMu gates the hot path against §4.4 snapshot transitions;
	// see the package comment for the lock ordering.
	freezeMu sync.RWMutex
	frozen   bool // guarded by freezeMu
	// freezing is the round the current freeze reports, and held a
	// bank request for a newer round that arrived during it, which
	// thaw begins; both guarded by freezeMu.
	freezing uint64
	held     *heldRound

	// mu guards the cold state: pool level, bank trade handshakes and
	// the frozen outbox.
	mu     sync.Mutex
	avail  money.EPenny
	outbox []*mail.Message
	seq    uint64

	// Pool-order handshake state (see tick): one outstanding
	// BatchOrder at a time.
	canOrder bool
	ordNonce crypto.Nonce // pending order nonce
	ordBuy   money.EPenny // buy side of the pending order
	ordAt    time.Time    // when the pending order was issued
	ordTrace trace.ID     // flow ID of the pending order exchange
}

// New validates cfg and builds an engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Directory == nil {
		return nil, errors.New("isp: Config.Directory is required")
	}
	if cfg.Clock == nil {
		return nil, errors.New("isp: Config.Clock is required")
	}
	if cfg.Transport == nil {
		return nil, errors.New("isp: Config.Transport is required")
	}
	if cfg.Index < 0 || cfg.Index >= cfg.Directory.Len() {
		return nil, fmt.Errorf("isp: index %d outside directory of %d ISPs", cfg.Index, cfg.Directory.Len())
	}
	if !cfg.Directory.Compliant[cfg.Index] {
		return nil, ErrNotCompliant
	}
	if cfg.MinAvail == 0 {
		cfg.MinAvail = 100
	}
	if cfg.MaxAvail == 0 {
		cfg.MaxAvail = 10 * cfg.MinAvail
	}
	if cfg.MaxAvail <= cfg.MinAvail {
		return nil, fmt.Errorf("isp: MaxAvail %d must exceed MinAvail %d", cfg.MaxAvail, cfg.MinAvail)
	}
	if cfg.DefaultLimit == 0 {
		cfg.DefaultLimit = 500
	}
	if cfg.FreezeDuration == 0 {
		cfg.FreezeDuration = 10 * time.Minute
	}
	if cfg.Policy == 0 {
		cfg.Policy = AcceptUnpaid
	}
	if cfg.Stripes == 0 {
		cfg.Stripes = DefaultStripes
	}
	cfg.Stripes = ceilPow2(cfg.Stripes)
	e := &Engine{
		cfg:      cfg,
		nonces:   crypto.NewSource(nil),
		tracer:   cfg.Tracer,
		stripes:  make([]accountStripe, cfg.Stripes),
		credit:   make([]atomic.Int64, cfg.Directory.Len()),
		avail:    cfg.InitialAvail,
		canOrder: true,
		msgIDs:   mail.NewMessageIDCounter(cfg.Domain),
		lat:      newEngineLatencies(),
	}
	e.stripeMask = uint32(cfg.Stripes - 1)
	for i := range e.stripes {
		e.stripes[i].idx = i
		e.stripes[i].users = make(map[string]*user)
	}
	e.contention.stripeHits = make([]atomic.Int64, cfg.Stripes)
	return e, nil
}

// Index returns this ISP's federation index.
func (e *Engine) Index() int { return e.cfg.Index }

// Domain returns this ISP's mail domain.
func (e *Engine) Domain() string { return e.cfg.Domain }

// Clock returns the engine's injected clock, so callers can schedule
// work (persist.StartCheckpoints, say) on the same timeline the engine
// runs on.
func (e *Engine) Clock() clock.Clock { return e.cfg.Clock }

// Stripes reports the configured stripe count.
func (e *Engine) Stripes() int { return len(e.stripes) }

// emitQueue collects transport callbacks during one operation; they
// run after every engine lock is released, so transports may re-enter
// the engine. Each operation owns its queue — there is no shared
// emit buffer to contend on.
type emitQueue []func()

func (q *emitQueue) add(fn func()) { *q = append(*q, fn) }

func (q emitQueue) run() {
	for _, fn := range q {
		fn()
	}
}

// RegisterUser creates a mailbox. limit <= 0 selects the configured
// default. account and balance seed the user's real-money and e-penny
// holdings (the paper's "initial balances ... to buffer the
// fluctuations"); the initial e-pennies are drawn from the ISP pool and
// fail with ErrPoolExhausted if it cannot cover them.
func (e *Engine) RegisterUser(name string, account money.Penny, balance money.EPenny, limit int64) error {
	if limit <= 0 {
		limit = e.cfg.DefaultLimit
	}
	if balance < 0 || account < 0 {
		return ErrBadAmount
	}
	e.freezeMu.RLock()
	defer e.freezeMu.RUnlock()
	s := e.stripeFor(name)
	e.lockStripe(s)
	defer s.mu.Unlock()
	if _, dup := s.users[name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateUser, name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if balance > e.avail {
		return fmt.Errorf("%w: need %v, pool has %v", ErrPoolExhausted, balance, e.avail)
	}
	// Pool → user transfer: the debit has no credit of its own, because
	// the debited e-pennies land in the new user's starting balance, the
	// composite literal one line down.
	e.avail -= balance
	u := &user{name: name, account: account, balance: balance, limit: limit}
	s.users[name] = u
	e.walUserPut(s.idx, u, -int64(balance))
	return nil
}

// User returns a snapshot of one user's state.
func (e *Engine) User(name string) (UserInfo, bool) {
	s := e.stripeFor(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	u, ok := s.users[name]
	if !ok {
		return UserInfo{}, false
	}
	return UserInfo{Name: name, Account: u.account, Balance: u.balance, Sent: u.sent, Limit: u.limit}, true
}

// Users lists all user snapshots, sorted by name.
func (e *Engine) Users() []UserInfo {
	var out []UserInfo
	for i := range e.stripes {
		s := &e.stripes[i]
		s.mu.Lock()
		for name, u := range s.users {
			out = append(out, UserInfo{Name: name, Account: u.account, Balance: u.balance, Sent: u.sent, Limit: u.limit})
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SetLimit updates a user's daily cap (§5: "a user specified limit on
// the number of e-pennies the user is willing to spend per day").
func (e *Engine) SetLimit(name string, limit int64) error {
	if limit <= 0 {
		return ErrBadAmount
	}
	s := e.stripeFor(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	u, ok := s.users[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownUser, name)
	}
	u.limit = limit
	e.walUserPut(s.idx, u, 0)
	return nil
}

// Avail returns the pool level.
func (e *Engine) Avail() money.EPenny {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.avail
}

// Credit returns a copy of the credit array.
func (e *Engine) Credit() []int64 {
	out := make([]int64, len(e.credit))
	for i := range e.credit {
		out[i] = e.credit[i].Load()
	}
	return out
}

// Frozen reports whether a snapshot freeze is in effect.
func (e *Engine) Frozen() bool {
	e.freezeMu.RLock()
	defer e.freezeMu.RUnlock()
	return e.frozen
}

// Stats returns a copy of the engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Submitted:      e.stats.submitted.Load(),
		DeliveredLocal: e.stats.deliveredLocal.Load(),
		SentPaid:       e.stats.sentPaid.Load(),
		SentUnpaid:     e.stats.sentUnpaid.Load(),
		ReceivedPaid:   e.stats.receivedPaid.Load(),
		ReceivedUnpaid: e.stats.receivedUnpaid.Load(),
		Discarded:      e.stats.discarded.Load(),
		AcksGenerated:  e.stats.acksGenerated.Load(),
		AcksReceived:   e.stats.acksReceived.Load(),
		Buffered:       e.stats.buffered.Load(),
		LimitRejects:   e.stats.limitRejects.Load(),
		BalanceRejects: e.stats.balanceRejects.Load(),
		SnapshotRounds: e.stats.snapshotRounds.Load(),
		ZombieWarnings: e.stats.zombieWarnings.Load(),
		RestockRetries: e.stats.restockRetries.Load(),
		QueueRejected:  e.stats.queueRejected.Load(),
		QueueDropped:   e.stats.queueDropped.Load(),
	}
}

// TotalEPennies returns pool + all user balances + credit entries; with
// every engine quiescent, summing this across the federation is the
// conserved quantity of experiment E1. It stops the world (no send or
// receive is in flight while it reads), so even a concurrent caller
// sees an exactly consistent cut of the ledger.
func (e *Engine) TotalEPennies() int64 {
	e.freezeMu.Lock()
	defer e.freezeMu.Unlock()
	var total int64
	for i := range e.stripes {
		s := &e.stripes[i]
		s.mu.Lock()
		for _, u := range s.users {
			total += int64(u.balance)
		}
		s.mu.Unlock()
	}
	e.mu.Lock()
	total += int64(e.avail)
	e.mu.Unlock()
	for i := range e.credit {
		total += e.credit[i].Load()
	}
	return total
}

// SetCheat makes the engine misbehave for experiment E4: it keeps
// charging its users but stops incrementing its credit array on
// outbound paid mail, understating what it owes the federation. The
// bank's §4.4 verification is designed to flag every pair involving a
// cheater after the next snapshot round.
func (e *Engine) SetCheat(cheat bool) { e.cheat.Store(cheat) }

// EndOfDay resets every user's sent counter (§4.1's midnight action).
func (e *Engine) EndOfDay() {
	for i := range e.stripes {
		s := &e.stripes[i]
		s.mu.Lock()
		for _, u := range s.users {
			u.sent = 0
			u.warnedToday = false
		}
		e.walDayReset(s.idx)
		s.mu.Unlock()
	}
}
