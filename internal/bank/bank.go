// Package bank implements the Zmail central bank (§4.3–§4.4 of the
// paper): it keeps a real-money account for every compliant ISP, mints
// and redeems e-penny pool inventory against those accounts, and
// periodically snapshots every ISP's credit array to detect misbehaving
// pairs (credit_i[j] + credit_j[i] must be zero over a closed billing
// period).
//
// Like the ISP engine, the bank is pure bookkeeping over injected
// callbacks, so it runs identically under the in-process simulator and
// the TCP daemon (cmd/zbank).
package bank

import (
	"errors"
	"fmt"
	"sync"

	"zmail/internal/crypto"
	"zmail/internal/money"
	"zmail/internal/persist"
	"zmail/internal/trace"
	"zmail/internal/wire"
)

// Transport carries the bank's outbound control messages.
type Transport interface {
	// SendISP transmits a sealed envelope to the ISP at index.
	SendISP(index int, env *wire.Envelope)
}

// Config configures a Bank.
type Config struct {
	// NumISPs is the federation size (the paper's n).
	NumISPs int
	// Compliant marks which indexes participate; nil means all.
	Compliant []bool
	// InitialAccount seeds each compliant ISP's real-money account.
	InitialAccount money.Penny
	// Transport carries outbound traffic (required).
	Transport Transport
	// OwnSealer opens requests sealed to the bank's public key
	// (required; crypto.Null{} acceptable in simulation).
	OwnSealer crypto.Sealer
	// SettleOnVerify moves real money between ISP accounts after each
	// verified audit round, backing the period's e-penny flows by
	// multilateral netting (see settlement.go).
	SettleOnVerify bool
	// Tracer records mint/burn/audit spans (nil disables tracing).
	// Mint and burn spans join the ordering ISP's flow via the
	// envelope trace; audit rounds get a bank-minted flow of their own.
	Tracer *trace.Tracer
}

// Errors reported by the bank.
var (
	ErrUnknownISP    = errors.New("bank: unknown or non-compliant ISP")
	ErrNotEnrolled   = errors.New("bank: ISP has no enrolled reply sealer")
	ErrReplay        = errors.New("bank: replayed nonce")
	ErrRoundActive   = errors.New("bank: snapshot round already in progress")
	ErrNoRound       = errors.New("bank: no snapshot round in progress")
	ErrRoundNotReady = errors.New("bank: snapshot round still awaiting replies")
)

// Violation is one flagged ISP pair from a verification sweep, with the
// two reported tallies whose sum should have been zero.
type Violation struct {
	I, J               int
	CreditIJ, CreditJI int64
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("isp[%d]/isp[%d]: %d + %d != 0", v.I, v.J, v.CreditIJ, v.CreditJI)
}

// Stats is a snapshot of bank counters.
type Stats struct {
	BuysAccepted int64
	BuysDenied   int64
	Sells        int64
	// BatchOrders counts pool orders processed; BatchPartialFills
	// counts orders whose buy side was only partly covered by the
	// ISP's account.
	BatchOrders       int64
	BatchPartialFills int64
	Minted            int64
	Burned            int64
	Replays           int64
	Rounds            int64
	RoundsAborted     int64
	ControlMsgs       int64 // total control messages processed (E5 metric)
	ViolationsAll     int64

	// Settlement counters (see settlement.go).
	SettledPennies       int64
	SettlementTransfers  int64
	SettlementShortfalls int64
}

// Bank is the central e-penny authority.
type Bank struct {
	cfg Config

	mu         sync.Mutex
	account    []money.Penny
	compliant  []bool
	ispSealers []crypto.Sealer // public-only sealers for replies
	seenNonces map[uint64]bool
	seq        uint64

	// Snapshot round state (§4.4): verify[i][g] holds credit[i] as
	// reported by isp[g]; total counts outstanding replies.
	verify     [][]int64
	replied    []bool
	total      int
	gathering  bool
	roundTrace trace.ID // flow ID of the in-progress audit round

	violations    []Violation
	lastTransfers []Transfer
	lastRoundSum  int64
	stats         Stats

	// wal, when attached, receives one record per durable mutation
	// (wal.go); walErrs counts appends that failed.
	wal     *persist.WAL
	walErrs int64

	emitq []func()
}

// New validates cfg and builds a bank.
func New(cfg Config) (*Bank, error) {
	if cfg.NumISPs <= 0 {
		return nil, errors.New("bank: NumISPs must be positive")
	}
	if cfg.Transport == nil {
		return nil, errors.New("bank: Config.Transport is required")
	}
	if cfg.OwnSealer == nil {
		return nil, errors.New("bank: Config.OwnSealer is required")
	}
	compliant := cfg.Compliant
	if compliant == nil {
		compliant = make([]bool, cfg.NumISPs)
		for i := range compliant {
			compliant[i] = true
		}
	}
	if len(compliant) != cfg.NumISPs {
		return nil, fmt.Errorf("bank: Compliant has %d entries for %d ISPs", len(compliant), cfg.NumISPs)
	}
	b := &Bank{
		cfg:        cfg,
		account:    make([]money.Penny, cfg.NumISPs),
		compliant:  append([]bool(nil), compliant...),
		ispSealers: make([]crypto.Sealer, cfg.NumISPs),
		seenNonces: make(map[uint64]bool),
		verify:     make([][]int64, cfg.NumISPs),
		replied:    make([]bool, cfg.NumISPs),
	}
	for i := range b.verify {
		b.verify[i] = make([]int64, cfg.NumISPs)
		if compliant[i] {
			b.account[i] = cfg.InitialAccount
		}
	}
	return b, nil
}

// Enroll registers the reply sealer (the ISP's public key) for one
// compliant ISP. Bank→ISP traffic is sealed with it.
func (b *Bank) Enroll(index int, sealer crypto.Sealer) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if index < 0 || index >= b.cfg.NumISPs || !b.compliant[index] {
		return fmt.Errorf("%w: %d", ErrUnknownISP, index)
	}
	b.ispSealers[index] = sealer.PublicOnly()
	return nil
}

// Account returns an ISP's real-money balance at the bank.
func (b *Bank) Account(index int) (money.Penny, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if index < 0 || index >= b.cfg.NumISPs {
		return 0, fmt.Errorf("%w: %d", ErrUnknownISP, index)
	}
	return b.account[index], nil
}

// Deposit adds real money to an ISP's account (out-of-band funding).
func (b *Bank) Deposit(index int, amount money.Penny) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if index < 0 || index >= b.cfg.NumISPs || !b.compliant[index] {
		return fmt.Errorf("%w: %d", ErrUnknownISP, index)
	}
	if amount <= 0 {
		return errors.New("bank: deposit must be positive")
	}
	b.account[index] += amount
	b.walDeposit(index, int64(amount))
	return nil
}

// Stats returns a copy of the counters.
func (b *Bank) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// Outstanding reports net e-pennies in circulation (minted − burned).
func (b *Bank) Outstanding() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats.Minted - b.stats.Burned
}

// Violations returns all violations flagged so far.
func (b *Bank) Violations() []Violation {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Violation(nil), b.violations...)
}

func (b *Bank) flush() {
	for {
		b.mu.Lock()
		if len(b.emitq) == 0 {
			b.mu.Unlock()
			return
		}
		q := b.emitq
		b.emitq = nil
		b.mu.Unlock()
		for _, fn := range q {
			fn()
		}
	}
}

// sealTo seals a body to an enrolled ISP; call with mu held.
func (b *Bank) sealTo(index int, kind wire.Kind, body []byte) (*wire.Envelope, error) {
	s := b.ispSealers[index]
	if s == nil {
		return nil, fmt.Errorf("%w: %d", ErrNotEnrolled, index)
	}
	sealed, err := s.Seal(body)
	if err != nil {
		return nil, fmt.Errorf("bank: seal to isp[%d]: %w", index, err)
	}
	return &wire.Envelope{Kind: kind, From: -1, Payload: sealed}, nil
}

// Handle processes one inbound envelope from an ISP: a pool order or a
// snapshot reply. Replayed nonces are counted and rejected (§4.3's
// replay protection made explicit with bank-side memory).
func (b *Bank) Handle(env *wire.Envelope) error {
	err := b.handleLocked(env)
	b.flush()
	return err
}

func (b *Bank) handleLocked(env *wire.Envelope) error {
	plain, err := b.cfg.OwnSealer.Open(env.Payload)
	if err != nil {
		return fmt.Errorf("bank: open envelope: %w", err)
	}

	b.mu.Lock()
	defer b.mu.Unlock()
	b.stats.ControlMsgs++

	g := int(env.From)
	if g < 0 || g >= b.cfg.NumISPs || !b.compliant[g] {
		return fmt.Errorf("%w: %d", ErrUnknownISP, g)
	}

	tid := trace.ID(env.Trace)

	switch env.Kind {
	case wire.KindBatchOrder:
		var m wire.BatchOrder
		if err := m.UnmarshalBinary(plain); err != nil {
			return err
		}
		if b.seenNonces[m.Nonce] {
			b.stats.Replays++
			return ErrReplay
		}
		b.seenNonces[m.Nonce] = true
		if m.Buy < 0 || m.Sell < 0 || (m.Buy == 0 && m.Sell == 0) {
			// Durable replay protection even for a malformed order.
			b.walNonce(m.Nonce)
			return errors.New("bank: batch order with no positive side")
		}
		// The buy side fills up to the ISP's account — a partial fill,
		// not the paper's all-or-nothing buyreply, so a thin account
		// still restocks what it can afford in the same round trip.
		fill := m.Buy
		if avail := int64(b.account[g]); fill > avail {
			fill = avail
		}
		if fill > 0 {
			b.account[g] -= money.Penny(fill)
			b.stats.Minted += fill
			b.stats.BuysAccepted++
			if fill < m.Buy {
				b.stats.BatchPartialFills++
			}
			b.cfg.Tracer.Record(tid, "mint", fill, "accepted")
		} else if m.Buy > 0 {
			b.stats.BuysDenied++
			b.cfg.Tracer.Record(tid, "mint", 0, "denied")
		}
		if m.Sell > 0 {
			b.account[g] += money.Penny(m.Sell)
			b.stats.Burned += m.Sell
			b.stats.Sells++
			b.cfg.Tracer.Record(tid, "burn", -m.Sell, "accepted")
		}
		b.stats.BatchOrders++
		b.walBatch(m.Nonce, g, fill, m.Sell)
		reply, err := b.sealTo(g, wire.KindBatchReply,
			(&wire.BatchReply{Nonce: m.Nonce, BuyFilled: fill, SellBurned: m.Sell}).MarshalBinary())
		if err != nil {
			return err
		}
		reply.Trace = env.Trace
		b.emitq = append(b.emitq, func() { b.cfg.Transport.SendISP(g, reply) })
		return nil

	case wire.KindReply:
		var m wire.CreditReport
		if err := m.UnmarshalBinary(plain); err != nil {
			return err
		}
		if !b.gathering || m.Seq != b.seq || b.replied[g] {
			return ErrReplay
		}
		b.replied[g] = true
		b.cfg.Tracer.Record(b.roundTrace, "report", 0, "received")
		for i := 0; i < b.cfg.NumISPs && i < len(m.Credits); i++ {
			b.verify[i][g] = m.Credits[i]
		}
		b.total--
		if b.total == 0 {
			b.verifyLocked()
		}
		return nil

	default:
		return fmt.Errorf("bank: unexpected message kind %v", env.Kind)
	}
}

// StartSnapshot begins a §4.4 credit-gathering round: one sealed
// request(seq) to every compliant ISP.
func (b *Bank) StartSnapshot() error {
	err := b.startSnapshotLocked()
	b.flush()
	return err
}

func (b *Bank) startSnapshotLocked() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.gathering {
		return ErrRoundActive
	}
	b.gathering = true
	b.total = 0
	for i := range b.replied {
		b.replied[i] = false
	}
	b.roundTrace = b.cfg.Tracer.Next()
	b.cfg.Tracer.Record(b.roundTrace, "audit", 0, "start")
	body := (&wire.Request{Seq: b.seq}).MarshalBinary()
	for i := 0; i < b.cfg.NumISPs; i++ {
		if !b.compliant[i] {
			continue
		}
		env, err := b.sealTo(i, wire.KindRequest, body)
		if err != nil {
			b.gathering = false
			return err
		}
		env.Trace = uint64(b.roundTrace)
		b.total++
		idx := i
		b.emitq = append(b.emitq, func() { b.cfg.Transport.SendISP(idx, env) })
	}
	if b.total == 0 {
		b.gathering = false
		return errors.New("bank: no compliant ISPs to snapshot")
	}
	// The round consumes its seq: an ISP that reports moves past it, so
	// a bank that crashes mid-round must replay to seq+1, the value
	// ExportState reports while gathering.
	b.walSeq(b.seq + 1)
	return nil
}

// RoundComplete reports whether the last started round has verified.
func (b *Bank) RoundComplete() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.gathering
}

// AbortRound abandons an in-progress snapshot round that can never
// complete (an ISP crashed mid-round, or its report was lost). The
// round's sequence number is retired — ISPs that already reported have
// moved to seq+1, so reusing the seq would wedge them — and the partial
// verify matrix is discarded. The skipped round's credits are not lost:
// ISPs that never reported carry them into the next round, and the
// engines' adopt-forward seq handling realigns everyone on the next
// StartSnapshot.
func (b *Bank) AbortRound() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.gathering {
		return ErrNoRound
	}
	b.gathering = false
	b.total = 0
	b.seq++ // logged when the round started
	b.stats.RoundsAborted++
	b.cfg.Tracer.Record(b.roundTrace, "audit", 0, "aborted")
	for i := range b.verify {
		for j := range b.verify[i] {
			b.verify[i][j] = 0
		}
	}
	return nil
}

// LastRoundCreditSum reports the sum over every entry of the last
// verified round's credit matrix. Over a closed billing period with no
// channel losses it is exactly zero — every pair's claims cancel (the
// freeze-snapshot exactness invariant); with losses it equals the
// number of paid messages (or acks) lost in flight during the period.
func (b *Bank) LastRoundCreditSum() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lastRoundSum
}

// verifyLocked is the §4.4 pairwise sweep; call with mu held.
func (b *Bank) verifyLocked() {
	n := b.cfg.NumISPs
	prevViolations := len(b.violations)
	b.lastRoundSum = 0
	for i := range b.verify {
		for _, v := range b.verify[i] {
			b.lastRoundSum += v
		}
	}
	flagged := make(map[[2]int]bool)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !b.compliant[i] || !b.compliant[j] {
				continue
			}
			cij, cji := b.verify[j][i], b.verify[i][j]
			// cij: isp[i]'s reported credit against j is row j of i's
			// report, stored at verify[j][i]; symmetric for cji.
			if cij+cji != 0 {
				b.violations = append(b.violations, Violation{I: i, J: j, CreditIJ: cij, CreditJI: cji})
				b.stats.ViolationsAll++
				flagged[[2]int{i, j}] = true
			}
		}
	}
	if b.cfg.SettleOnVerify {
		b.settleNetLocked(flagged)
	}
	for i := range b.verify {
		for j := range b.verify[i] {
			b.verify[i][j] = 0
		}
	}
	b.seq++
	b.walRound(b.seq, b.violations[prevViolations:])
	b.gathering = false
	b.stats.Rounds++
	// The span's amount is the round's credit-matrix sum: zero over a
	// lossless closed period, the count of in-flight losses otherwise.
	b.cfg.Tracer.Record(b.roundTrace, "audit", b.lastRoundSum, "verified")
}
