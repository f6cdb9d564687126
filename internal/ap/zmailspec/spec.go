// Package zmailspec is the paper's formal Zmail specification (§4 and
// the appendix) transcribed action-for-action onto the AP runtime in
// internal/ap.
//
// Every variable of the paper's isp[i] and bank processes appears here
// under its paper name (avail, account, balance, sent, credit, cansend,
// canbuy, cansell, seq, verify, total, …), and every guarded action is
// one ap action. Encryption (NCR/DCR) is modeled abstractly — the AP
// channels are private, so messages carry their fields in the clear,
// exactly as the paper's reasoning treats them after decryption; the
// nonce and sequence-number comparisons are executed literally so
// replay handling is still exercised.
//
// Running the spec under the randomized fair scheduler with the
// registered invariants turns it into a model-checking harness for the
// protocol's safety properties:
//
//	conservation — e-pennies are neither created nor destroyed except
//	               by bank mint/burn (the paper's "zero-sum" claim);
//	antisymmetry — credit_i[j] + credit_j[i] equals the paid traffic
//	               in flight between i and j, hence 0 at quiescence;
//	solvency     — balances, avail pools and accounts never go negative;
//	rate limit   — sent[u] never exceeds limit[u].
//
// Three paper deviations, each documented where it occurs:
//
//  1. the bank's verification action is additionally guarded by a
//     "gathering" flag (the paper's guard total=0 ∧ ¬canrequest is
//     already true in the initial state, which would fire verification
//     before any snapshot);
//  2. the 10-minute snapshot timeout is expressed as the AP timeout
//     guard "no email involving me is in flight and every compliant
//     peer is frozen or has reported" — the global condition the
//     paper's wall-clock wait is standing in for;
//  3. a frozen ISP resumes sending on an explicit resume message from
//     the bank after verification, rather than immediately after its
//     own report. Without this barrier an early reporter can send new
//     (next-period) paid mail that a late reporter books into the
//     *current* period, making the bank flag two honest ISPs — the
//     billing-boundary race the paper waves off as "extremely small".
//     The model checker needs zero false positives, so the barrier is
//     made explicit.
//  4. the sell flow escrows the sold amount when the sell message is
//     sent, not when the reply arrives. The paper's pseudocode
//     performs avail := avail − sellvalue in the sellreply handler;
//     model checking found that user buys during the bank round-trip
//     can then overdraw the pool (avail < 0). This is a genuine bug in
//     the published specification, discovered by this reproduction's
//     randomized invariant checking (experiment E14).
package zmailspec

import (
	"fmt"
	"math/rand"

	"zmail/internal/ap"
)

// Config sizes and seeds a spec instance.
type Config struct {
	// NumISPs is the paper's constant n.
	NumISPs int
	// UsersPerISP is the paper's constant m.
	UsersPerISP int
	// Compliant is the paper's compliant array; nil means all compliant.
	Compliant []bool
	// Limit is the per-user daily send limit (paper's limit[j]),
	// applied uniformly.
	Limit int64
	// MinAvail and MaxAvail are the ISP pool thresholds.
	MinAvail, MaxAvail int64
	// InitAvail seeds each compliant ISP's pool.
	InitAvail int64
	// InitBalance seeds every user's e-penny balance.
	InitBalance int64
	// InitAccount seeds every user's real-penny account.
	InitAccount int64
	// InitBankAccount seeds every ISP's real-penny account at the bank.
	InitBankAccount int64
	// BuyAmount and SellAmount are the "any" values users and ISPs pick
	// when trading; the spec draws uniformly in [1, amount].
	BuyAmount int64
	// Seed drives both the scheduler and the simulated user choices.
	Seed int64

	// Ablations. Each re-enables one behavior of the paper's literal
	// pseudocode that this reproduction fixed, so the resulting failure
	// can be demonstrated (experiment E16):
	//
	// PaperSellAtReply restores §4.3's avail := avail − sellvalue in
	// the sellreply handler (instead of escrow at send). Expect the
	// solvency invariant to fire once user buys race the bank
	// round-trip.
	PaperSellAtReply bool
	// UnsafeResume restores §4.4's literal cansend := true at the
	// ISP's own timeout (instead of the post-verification resume
	// barrier), with the timeout guard reduced to "my own outbound is
	// drained". Expect the bank to flag honest pairs when periods
	// misalign. The credit-antisymmetry invariant is not registered in
	// this mode — period misalignment makes it meaningless, which is
	// the point.
	UnsafeResume bool
}

func (c *Config) fill() {
	if c.NumISPs == 0 {
		c.NumISPs = 3
	}
	if c.UsersPerISP == 0 {
		c.UsersPerISP = 4
	}
	if c.Compliant == nil {
		c.Compliant = make([]bool, c.NumISPs)
		for i := range c.Compliant {
			c.Compliant[i] = true
		}
	}
	if c.Limit == 0 {
		c.Limit = 50
	}
	if c.MinAvail == 0 {
		c.MinAvail = 20
	}
	if c.MaxAvail == 0 {
		c.MaxAvail = 200
	}
	if c.InitAvail == 0 {
		c.InitAvail = 100
	}
	if c.InitBalance == 0 {
		c.InitBalance = 10
	}
	if c.InitAccount == 0 {
		c.InitAccount = 100
	}
	if c.InitBankAccount == 0 {
		c.InitBankAccount = 10_000
	}
	if c.BuyAmount == 0 {
		c.BuyAmount = 50
	}
}

// email is the payload of the paper's email(s, r) message. paid records
// whether the sender performed the compliant-path bookkeeping, which
// the conservation invariants need to see for in-flight messages.
type email struct {
	s, r int
	paid bool
}

// buyMsg, buyReply, sellMsg, sellReply, request and reply mirror the
// paper's message bodies after DCR.
type buyMsg struct {
	value int64
	nonce uint64
}

type buyReply struct {
	nonce    uint64
	accepted bool
	value    int64 // echoed so the bank's mint is attributable
}

type sellMsg struct {
	value int64
	nonce uint64
}

type sellReply struct{ nonce uint64 }

type request struct{ seq uint64 }

type reply struct {
	credit []int64
}

// ISPState is the paper's isp[i] variable block, exported for
// invariants and tests.
type ISPState struct {
	Avail   int64
	Account []int64
	Balance []int64
	Sent    []int64
	Credit  []int64

	CanSend, CanBuy, CanSell bool
	BuyValue, SellValue      int64
	NS1, NS2                 uint64
	Seq                      uint64

	// SnapshotPending is set between receiving request(seq) and the
	// timeout expiring (the paper's "timeout after 10 minutes").
	SnapshotPending bool

	// Replied is set when this ISP has reported its credit array for
	// the round in progress and is waiting for the bank's resume.
	Replied bool

	// Cheat, when set, makes the ISP skip its credit increment on send
	// — the misbehavior §4.4's verification is designed to catch.
	Cheat bool
}

// BankState is the paper's bank variable block.
type BankState struct {
	Account    []int64
	Verify     [][]int64
	Seq        uint64
	Total      int64
	CanRequest bool
	// gathering guards verification until a snapshot has actually been
	// requested (see the package comment on paper deviations).
	gathering bool
	// seenNonces provides the bank-side replay memory that makes the
	// nonce comparisons meaningful under message duplication.
	seenNonces map[uint64]bool
}

// Spec is an executable instance of the paper's protocol.
type Spec struct {
	Cfg  Config
	Sys  *ap.System
	ISPs []*ISPState
	Bank *BankState

	// MintedApplied and BurnedApplied count e-pennies added to and
	// removed from ISP pools (instrumentation for the conservation
	// invariant; not part of the paper's state).
	MintedApplied, BurnedApplied int64

	// CheatedSends counts paid sends on which a cheating ISP skipped
	// its credit increment. Each one removes an e-penny from the books
	// (the sender was charged but no claim was recorded), so the
	// conservation invariant nets them out.
	CheatedSends int64

	// ReportedOutstanding holds the summed credit rows that ISPs have
	// zeroed and shipped to the bank during the round in progress; the
	// value lives "at the bank" until verification writes the round
	// off. WrittenOff accumulates those write-offs: against a cheater
	// it exactly cancels CheatedSends (the receiver's users keep the
	// balances they were credited; the negative claim is erased), so
	// long-run conservation is restored — the cheat surfaces in the
	// bank's flags, not in the totals.
	ReportedOutstanding, WrittenOff int64

	// Violations records ISP pairs flagged by the bank's §4.4
	// verification sweep.
	Violations [][2]int

	// AutoRounds makes snapshot rounds repeat forever once triggered,
	// as in the paper's literal pseudocode; when false (default) each
	// round must be started with TriggerSnapshot.
	AutoRounds bool

	// DeliveredEmails counts emails handed to receiving users.
	DeliveredEmails int64

	rng     *rand.Rand
	nonceCt uint64
	initial int64 // initial total e-pennies, for conservation
}

func ispName(i int) string { return fmt.Sprintf("isp[%d]", i) }

// New builds the spec's processes, actions, and invariants.
func New(cfg Config) *Spec {
	cfg.fill()
	s := &Spec{
		Cfg: cfg,
		Sys: ap.NewSystem(cfg.Seed),
		rng: rand.New(rand.NewSource(cfg.Seed + 1)),
	}
	n, m := cfg.NumISPs, cfg.UsersPerISP

	for i := 0; i < n; i++ {
		st := &ISPState{
			Account: make([]int64, m),
			Balance: make([]int64, m),
			Sent:    make([]int64, m),
			Credit:  make([]int64, n),
			CanSend: true, CanBuy: true, CanSell: true,
		}
		if cfg.Compliant[i] {
			st.Avail = cfg.InitAvail
		}
		for u := 0; u < m; u++ {
			st.Account[u] = cfg.InitAccount
			st.Balance[u] = cfg.InitBalance
		}
		s.ISPs = append(s.ISPs, st)
	}
	s.Bank = &BankState{
		Account:    make([]int64, n),
		Verify:     make([][]int64, n),
		seenNonces: make(map[uint64]bool),
	}
	for i := range s.Bank.Verify {
		s.Bank.Verify[i] = make([]int64, n)
		s.Bank.Account[i] = cfg.InitBankAccount
	}
	s.initial = s.TotalE()

	for i := 0; i < n; i++ {
		s.buildISP(i)
	}
	s.buildBank()
	s.addInvariants()
	return s
}

// nnc is the paper's NNC nonce function: unpredictable within the model
// (drawn from the spec rng) and never repeating (counter in high bits).
func (s *Spec) nnc() uint64 {
	s.nonceCt++
	return s.nonceCt<<32 | uint64(s.rng.Uint32())
}

// buildISP adds the paper's isp[i] actions.
func (s *Spec) buildISP(i int) {
	cfg := s.Cfg
	st := s.ISPs[i]
	me := ispName(i)
	p := s.Sys.NewProcess(me)
	n, m := cfg.NumISPs, cfg.UsersPerISP

	// §4.1 — sending email. The paper's "any" choices for s, j, r are
	// drawn from the spec rng.
	p.AddAction("send-email", func() bool { return st.CanSend }, func() {
		sender := s.rng.Intn(m)
		j := s.rng.Intn(n)
		r := s.rng.Intn(m)
		switch {
		case i == j:
			if st.Balance[sender] >= 1 && st.Sent[sender] < cfg.Limit {
				st.Balance[sender]--
				st.Balance[r]++
				st.Sent[sender]++
				s.DeliveredEmails++
			}
		case cfg.Compliant[i] && cfg.Compliant[j]:
			if st.Balance[sender] >= 1 && st.Sent[sender] < cfg.Limit {
				// Cheat mode (E4) charges the user but never credits the
				// peer ISP; CheatedSends records the skimmed value and the
				// bank's verification round is what catches it. The skipped
				// Credit[j]++ is by design: E4's verification flags it.
				st.Balance[sender]--
				if st.Cheat {
					s.CheatedSends++
				} else {
					st.Credit[j]++
				}
				st.Sent[sender]++
				s.Sys.Send(me, ispName(j), "email", email{s: sender, r: r, paid: !st.Cheat})
			}
		default:
			// Either endpoint non-compliant: plain SMTP, no payment.
			s.Sys.Send(me, ispName(j), "email", email{s: sender, r: r, paid: false})
		}
	})

	// §4.1 — receiving email. The receiver trusts the compliant flag,
	// not the sender's actual bookkeeping: a cheating compliant sender
	// still gets credited here, which is exactly the asymmetry the
	// bank's verification detects.
	p.AddReceive("rcv-email", "", "email", func(from string, data any) {
		g := ispIndex(from)
		if cfg.Compliant[i] && cfg.Compliant[g] {
			e := data.(email)
			st.Balance[e.r]++
			st.Credit[g]--
		}
		s.DeliveredEmails++
	})

	if !cfg.Compliant[i] {
		return // non-compliant ISPs run no payment machinery
	}

	// §4.2 — user buys e-pennies from the ISP pool.
	p.AddAction("user-buy", func() bool { return true }, func() {
		t := s.rng.Intn(m)
		x := 1 + s.rng.Int63n(cfg.BuyAmount)
		if st.Account[t] >= x && st.Avail >= x {
			st.Account[t] -= x
			st.Balance[t] += x
			st.Avail -= x
		}
	})

	// §4.2 — user sells e-pennies back.
	p.AddAction("user-sell", func() bool { return true }, func() {
		t := s.rng.Intn(m)
		x := 1 + s.rng.Int63n(cfg.BuyAmount)
		if st.Balance[t] >= x {
			st.Account[t] += x
			st.Balance[t] -= x
			st.Avail += x
		}
	})

	// §4.3 — ISP buys pool inventory from the bank.
	p.AddAction("bank-buy", func() bool { return st.CanBuy && st.Avail < cfg.MinAvail }, func() {
		st.CanBuy = false
		st.BuyValue = 1 + s.rng.Int63n(cfg.BuyAmount)
		st.NS1 = s.nnc()
		s.Sys.Send(me, "bank", "buy", buyMsg{value: st.BuyValue, nonce: st.NS1})
	})

	p.AddReceive("rcv-buyreply", "bank", "buyreply", func(_ string, data any) {
		br := data.(buyReply)
		if st.NS1 != br.nonce {
			return // replay or stale: drop, per §4.3
		}
		st.CanBuy = true
		if br.accepted {
			st.Avail += st.BuyValue
			s.MintedApplied += st.BuyValue
		}
	})

	// §4.3 — ISP sells excess inventory back to the bank. Deviation 4:
	// the sold amount is escrowed out of avail here, at send time; the
	// paper's reply-time decrement can overdraw the pool.
	p.AddAction("bank-sell", func() bool { return st.CanSell && st.Avail > cfg.MaxAvail }, func() {
		st.CanSell = false
		st.SellValue = 1 + s.rng.Int63n(cfg.BuyAmount)
		if st.SellValue > st.Avail {
			st.SellValue = st.Avail
		}
		if !cfg.PaperSellAtReply {
			st.Avail -= st.SellValue
			s.BurnedApplied += st.SellValue
		}
		st.NS2 = s.nnc()
		s.Sys.Send(me, "bank", "sell", sellMsg{value: st.SellValue, nonce: st.NS2})
	})

	p.AddReceive("rcv-sellreply", "bank", "sellreply", func(_ string, data any) {
		sr := data.(sellReply)
		if st.NS2 != sr.nonce {
			return
		}
		if cfg.PaperSellAtReply {
			// The paper's literal handler: decrement only now, after
			// the round-trip — the ablation that overdraws the pool.
			st.Avail -= st.SellValue
			s.BurnedApplied += st.SellValue
		}
		st.CanSell = true
	})

	// §4.4 — snapshot request: freeze sending, wait out the in-flight
	// mail, then report and reset the credit array.
	p.AddReceive("rcv-request", "bank", "request", func(_ string, data any) {
		rq := data.(request)
		if st.Seq != rq.seq {
			return // replayed request
		}
		st.CanSend = false
		st.SnapshotPending = true
		st.Replied = false
	})

	// The paper's "timeout after 10 minutes" exists to guarantee every
	// email isp[i] sent has been received (and, implicitly, that no
	// peer will send more current-period mail); the AP timeout guard
	// states those conditions directly. See deviation 2 in the package
	// comment.
	p.AddTimeout("snapshot-timeout", func() bool {
		if !st.SnapshotPending {
			return false
		}
		for j := 0; j < n; j++ {
			if j == i || !cfg.Compliant[j] {
				continue
			}
			if s.Sys.ChannelKindLen(me, ispName(j), "email") > 0 {
				return false // my outbound not drained
			}
			if cfg.UnsafeResume {
				continue // the paper's literal wait checks nothing else
			}
			if !s.ISPs[j].SnapshotPending && !s.ISPs[j].Replied {
				return false // peer has not frozen yet
			}
			if s.Sys.ChannelScan(ispName(j), me, func(m ap.Message) bool {
				e, ok := m.Data.(email)
				return ok && e.paid
			}) > 0 {
				return false // paid inbound not yet booked
			}
		}
		return true
	}, func() {
		creditCopy := make([]int64, n)
		copy(creditCopy, st.Credit)
		s.Sys.Send(me, "bank", "reply", reply{credit: creditCopy})
		for z, c := range st.Credit {
			s.ReportedOutstanding += c
			st.Credit[z] = 0
		}
		st.SnapshotPending = false
		st.Seq++
		if cfg.UnsafeResume {
			// The paper's literal cansend := true right here — the
			// ablation that lets periods misalign across ISPs.
			st.CanSend = true
		} else {
			st.Replied = true
			// CanSend stays false until the bank's resume (deviation 3).
		}
	})

	p.AddReceive("rcv-resume", "bank", "resume", func(_ string, _ any) {
		st.CanSend = true
		st.Replied = false
	})
}

// buildBank adds the paper's bank actions.
func (s *Spec) buildBank() {
	cfg := s.Cfg
	bk := s.Bank
	p := s.Sys.NewProcess("bank")
	n := cfg.NumISPs

	p.AddReceive("rcv-buy", "", "buy", func(from string, data any) {
		g := ispIndex(from)
		bm := data.(buyMsg)
		if bk.seenNonces[bm.nonce] {
			return // replayed buy: ignore entirely
		}
		bk.seenNonces[bm.nonce] = true
		if bk.Account[g] >= bm.value {
			bk.Account[g] -= bm.value
			s.Sys.Send("bank", from, "buyreply", buyReply{nonce: bm.nonce, accepted: true, value: bm.value})
		} else {
			s.Sys.Send("bank", from, "buyreply", buyReply{nonce: bm.nonce, accepted: false})
		}
	})

	p.AddReceive("rcv-sell", "", "sell", func(from string, data any) {
		g := ispIndex(from)
		sm := data.(sellMsg)
		if bk.seenNonces[sm.nonce] {
			return
		}
		bk.seenNonces[sm.nonce] = true
		bk.Account[g] += sm.value
		s.Sys.Send("bank", from, "sellreply", sellReply{nonce: sm.nonce})
	})

	// §4.4 — initiate a snapshot round. canrequest starts false; the
	// driver (or a prior completed round) enables it.
	p.AddAction("request-credits", func() bool { return bk.CanRequest }, func() {
		bk.Total = 0
		for i := 0; i < n; i++ {
			if cfg.Compliant[i] {
				bk.Total++
				s.Sys.Send("bank", ispName(i), "request", request{seq: bk.Seq})
			}
		}
		bk.CanRequest = false
		bk.gathering = true
	})

	p.AddReceive("rcv-reply", "", "reply", func(from string, data any) {
		g := ispIndex(from)
		if !cfg.Compliant[g] {
			return
		}
		rp := data.(reply)
		bk.Total--
		for i := 0; i < n && i < len(rp.credit); i++ {
			bk.Verify[i][g] = rp.credit[i]
		}
	})

	// §4.4 — pairwise verification once every reply is in. The extra
	// "gathering" conjunct is the documented deviation: without it the
	// guard is true in the initial state.
	p.AddAction("verify-credits", func() bool {
		return bk.Total == 0 && !bk.CanRequest && bk.gathering
	}, func() {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i < j && bk.Verify[i][j]+bk.Verify[j][i] != 0 {
					s.Violations = append(s.Violations, [2]int{i, j})
				}
			}
		}
		for i := range bk.Verify {
			for j := range bk.Verify[i] {
				bk.Verify[i][j] = 0
			}
		}
		// Write the round's parked credit off (see ReportedOutstanding).
		s.WrittenOff -= s.ReportedOutstanding
		s.ReportedOutstanding = 0
		bk.Seq++
		bk.gathering = false
		// The paper re-enables canrequest here, i.e. rounds repeat
		// forever; the harness usually wants to drive rounds itself
		// ("once a week or once a month"), so AutoRounds gates it.
		bk.CanRequest = s.AutoRounds
		if !cfg.UnsafeResume {
			for i := 0; i < n; i++ {
				if cfg.Compliant[i] {
					s.Sys.Send("bank", ispName(i), "resume", struct{}{})
				}
			}
		}
	})
}

// TotalE computes Σ user balances + Σ ISP pools + Σ credit entries.
// Credit entries net out in-flight paid email, so this quantity changes
// only when the bank mints or burns (see package comment).
func (s *Spec) TotalE() int64 {
	var total int64
	for _, st := range s.ISPs {
		total += st.Avail
		for _, b := range st.Balance {
			total += b
		}
		for _, c := range st.Credit {
			total += c
		}
	}
	return total
}

// addInvariants registers the safety properties checked at every step.
func (s *Spec) addInvariants() {
	n := s.Cfg.NumISPs

	s.Sys.AddInvariant("conservation", func() bool {
		return s.TotalE()+s.ReportedOutstanding ==
			s.initial+s.MintedApplied-s.BurnedApplied-s.CheatedSends+s.WrittenOff
	})

	if s.Cfg.UnsafeResume {
		// Period misalignment makes pairwise antisymmetry meaningless;
		// E16 demonstrates the resulting bank false positives instead.
		s.addSafetyInvariants()
		return
	}
	s.Sys.AddInvariant("credit-antisymmetry", func() bool {
		if s.roundActive() {
			// Mid-round, one side of a pair can have reported and reset
			// while the other has not; the relation is re-established
			// once the bank's resume lands. Skip the check until then.
			return true
		}
		paidInFlight := func(a, b int) int64 {
			return int64(s.Sys.ChannelScan(ispName(a), ispName(b), func(m ap.Message) bool {
				e, ok := m.Data.(email)
				return ok && e.paid
			}))
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if s.ISPs[i].Cheat || s.ISPs[j].Cheat {
					continue // cheaters are *supposed* to break this
				}
				if s.ISPs[i].Credit[j]+s.ISPs[j].Credit[i] != paidInFlight(i, j)+paidInFlight(j, i) {
					return false
				}
			}
		}
		return true
	})

	s.addSafetyInvariants()
}

// addSafetyInvariants registers the invariants that hold in every
// mode, including the E16 ablations.
func (s *Spec) addSafetyInvariants() {
	s.Sys.AddInvariant("solvency", func() bool {
		for _, st := range s.ISPs {
			if st.Avail < 0 {
				return false
			}
			for u := range st.Balance {
				if st.Balance[u] < 0 || st.Account[u] < 0 {
					return false
				}
			}
		}
		for _, a := range s.Bank.Account {
			if a < 0 {
				return false
			}
		}
		return true
	})

	s.Sys.AddInvariant("rate-limit", func() bool {
		for _, st := range s.ISPs {
			for u := range st.Sent {
				if st.Sent[u] > s.Cfg.Limit {
					return false
				}
			}
		}
		return true
	})
}

// roundActive reports whether a snapshot round is anywhere in progress:
// the bank is gathering, a compliant ISP is frozen or awaiting resume,
// or round-control messages are in flight.
func (s *Spec) roundActive() bool {
	if s.Bank.gathering || s.Bank.CanRequest {
		return true
	}
	for i, st := range s.ISPs {
		if !s.Cfg.Compliant[i] {
			continue
		}
		if st.SnapshotPending || st.Replied || !st.CanSend {
			return true
		}
	}
	return false
}

// TriggerSnapshot enables the bank's request-credits action (the
// paper's canrequest := true, performed by the operator).
func (s *Spec) TriggerSnapshot() { s.Bank.CanRequest = true }

// TriggerEndOfDay performs the §4.1 daily reset on every ISP ("execute
// at the end of every day"). It is driven by the harness rather than
// modeled as an always-enabled action, which would flood the fair
// scheduler.
func (s *Spec) TriggerEndOfDay() {
	for _, st := range s.ISPs {
		for u := range st.Sent {
			st.Sent[u] = 0
		}
	}
}

// InjectCheat makes isp[i] stop incrementing its credit array when
// sending (it still charges its user). §4.4's verification should flag
// every pair involving i after the next snapshot.
func (s *Spec) InjectCheat(i int) { s.ISPs[i].Cheat = true }

// Run advances the system up to maxSteps actions.
func (s *Spec) Run(maxSteps int) (int, error) { return s.Sys.Run(maxSteps) }

func ispIndex(name string) int {
	var i int
	if _, err := fmt.Sscanf(name, "isp[%d]", &i); err != nil {
		return -1
	}
	return i
}
