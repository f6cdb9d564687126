package bank

import (
	"errors"
	"fmt"
	"sync"

	"zmail/internal/crypto"
	"zmail/internal/metrics"
	"zmail/internal/wire"
)

// Root is the top level of the two-level bank hierarchy of §5 ("a
// hierarchy of banks"). The deployment, as zbank, internal/cluster and
// E17 run it, is:
//
//   - one leaf (regional) bank per region — an ordinary Bank whose
//     Compliant mask admits only the region's ISPs. It owns their
//     real-money accounts, serves their buy/sell traffic, and runs
//     audit rounds that verify intra-region pairs locally;
//   - one Root, to which every leaf forwards each credit-report
//     envelope it accepted, verbatim (core.BankServer's Forward hook).
//     The root never sees buy/sell traffic; per audit round it receives
//     one report per compliant ISP and verifies only the cross-region
//     pairs the leaves cannot check alone.
//
// The leaf↔root link deliberately reuses the existing wire vocabulary:
// a forwarded reply(seq, credits) envelope still carries the
// originating ISP's index in From, so the root needs no new message
// kinds — it is a second, partial consumer of the same §4.4 reports.
// Rounds are correlated by sequence number: every leaf starts at seq 0
// and advances once per completed round, so report k from every region
// belongs to federation round k. Leaf and root share the bank's key
// material (the regions are organs of one distributed bank), which is
// what lets the root open reports that were sealed "to the bank".
type Root struct {
	cfg RootConfig

	mu         sync.Mutex
	rounds     map[uint64]map[int][]int64 // seq → isp → credit array
	violations []Violation
	stats      RootStats
}

// RootConfig configures a Root.
type RootConfig struct {
	// NumISPs is the federation size.
	NumISPs int
	// Assign maps each ISP index to its region; ISPs in different
	// regions form the cross-region pairs the root verifies.
	Assign []int
	// Compliant marks participating ISPs; nil means all.
	Compliant []bool
	// OwnSealer opens forwarded reports (the shared bank key material;
	// crypto.Null{} in insecure deployments).
	OwnSealer crypto.Sealer
}

// RootStats counts the root's audit work.
type RootStats struct {
	Reports       int64 // forwarded credit reports accepted
	Rounds        int64 // federation rounds fully verified
	CrossPairs    int64 // cross-region pairs checked
	ViolationsAll int64
	Replays       int64 // duplicate/unroutable reports rejected
}

// rootMaxOpenRounds bounds how many partially gathered rounds the root
// retains; with leaves triggered together skew is one or two rounds,
// so anything this far behind is a lost round, not a late one.
const rootMaxOpenRounds = 8

// NewRoot validates cfg and builds the root aggregator.
func NewRoot(cfg RootConfig) (*Root, error) {
	if cfg.NumISPs <= 0 {
		return nil, errors.New("bank: NumISPs must be positive")
	}
	if len(cfg.Assign) != cfg.NumISPs {
		return nil, fmt.Errorf("bank: Assign has %d entries for %d ISPs", len(cfg.Assign), cfg.NumISPs)
	}
	if cfg.OwnSealer == nil {
		return nil, errors.New("bank: RootConfig.OwnSealer is required")
	}
	if cfg.Compliant == nil {
		cfg.Compliant = make([]bool, cfg.NumISPs)
		for i := range cfg.Compliant {
			cfg.Compliant[i] = true
		}
	}
	if len(cfg.Compliant) != cfg.NumISPs {
		return nil, fmt.Errorf("bank: Compliant has %d entries for %d ISPs", len(cfg.Compliant), cfg.NumISPs)
	}
	return &Root{cfg: cfg, rounds: make(map[uint64]map[int][]int64)}, nil
}

// Handle accepts one forwarded envelope from a leaf. Hellos (the
// leaf's connection registration) are ignored; credit reports are
// gathered per sequence number and verified when the round is full.
// Anything else on the uplink is a protocol error.
func (r *Root) Handle(env *wire.Envelope) error {
	switch env.Kind {
	case wire.KindHello:
		return nil
	case wire.KindReply:
	default:
		return fmt.Errorf("bank: root received unexpected message kind %v", env.Kind)
	}
	plain, err := r.cfg.OwnSealer.Open(env.Payload)
	if err != nil {
		return fmt.Errorf("bank: root open report: %w", err)
	}
	var m wire.CreditReport
	if err := m.UnmarshalBinary(plain); err != nil {
		return err
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	g := int(env.From)
	if g < 0 || g >= r.cfg.NumISPs || !r.cfg.Compliant[g] {
		r.stats.Replays++
		return fmt.Errorf("%w: %d", ErrUnknownISP, g)
	}
	round := r.rounds[m.Seq]
	if round == nil {
		round = make(map[int][]int64)
		r.rounds[m.Seq] = round
	}
	if _, dup := round[g]; dup {
		r.stats.Replays++
		return ErrReplay
	}
	round[g] = append([]int64(nil), m.Credits...)
	r.stats.Reports++
	if len(round) == r.compliantCount() {
		r.verifyRound(round)
		delete(r.rounds, m.Seq)
		r.stats.Rounds++
	}
	r.pruneRounds(m.Seq)
	return nil
}

func (r *Root) compliantCount() int {
	n := 0
	for _, c := range r.cfg.Compliant {
		if c {
			n++
		}
	}
	return n
}

// verifyRound applies the §4.4 pairwise test to every cross-region
// pair; intra-region pairs were already verified by their leaf. Call
// with r.mu held.
func (r *Root) verifyRound(round map[int][]int64) {
	n := r.cfg.NumISPs
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.cfg.Assign[i] == r.cfg.Assign[j] {
				continue
			}
			if !r.cfg.Compliant[i] || !r.cfg.Compliant[j] {
				continue
			}
			ri, rj := round[i], round[j]
			var cij, cji int64
			if j < len(ri) {
				cij = ri[j]
			}
			if i < len(rj) {
				cji = rj[i]
			}
			r.stats.CrossPairs++
			if cij+cji != 0 {
				r.violations = append(r.violations, Violation{I: i, J: j, CreditIJ: cij, CreditJI: cji})
				r.stats.ViolationsAll++
			}
		}
	}
}

// pruneRounds drops partial rounds that have fallen hopelessly behind
// the newest sequence number seen; call with r.mu held.
func (r *Root) pruneRounds(latest uint64) {
	for seq := range r.rounds {
		if seq+rootMaxOpenRounds < latest {
			delete(r.rounds, seq)
		}
	}
}

// Stats returns a copy of the root's counters.
func (r *Root) Stats() RootStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Violations returns every cross-region pair flagged so far.
func (r *Root) Violations() []Violation {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Violation(nil), r.violations...)
}

// RoundsVerified reports how many federation rounds have fully
// verified at the root.
func (r *Root) RoundsVerified() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats.Rounds
}

// Collect implements metrics.Collector: the root's audit counters,
// labeled by level so a shared scrape config tells root and leaves
// apart.
func (r *Root) Collect(reg *metrics.Registry) {
	st := r.Stats()
	g := func(name string, v float64) { reg.Gauge(name, "level", "root").Set(v) }
	g("zmail_root_reports_total", float64(st.Reports))
	g("zmail_root_rounds_total", float64(st.Rounds))
	g("zmail_root_cross_pairs_total", float64(st.CrossPairs))
	g("zmail_root_violations_total", float64(st.ViolationsAll))
	g("zmail_root_replays_total", float64(st.Replays))
	reg.Gauge("zmail_root_open_rounds", "level", "root").Set(float64(r.openRounds()))
}

func (r *Root) openRounds() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.rounds)
}
