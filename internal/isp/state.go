package isp

import (
	"fmt"
	"sort"

	"zmail/internal/money"
)

// Durable state. A zmaild restart must not lose the ledger: balances
// are user money and the credit array is this period's claim against
// the federation. ExportState captures everything durable; a fresh
// engine built with the same Config restores it with restoreState.
//
// Deliberately NOT persisted, and why that is safe:
//
//   - the snapshot freeze and buffered outbox — a restart mid-freeze
//     loses the buffered submissions (clients retry, as with any MTA
//     restart) and skips the round's report; the bank's round stalls
//     and is retried next period;
//   - the in-flight bank order — a reply arriving for a pre-restart
//     nonce is dropped by the nonce check. A filled-but-unapplied
//     order is the one real loss window; operators should drain (stop
//     Tick) before planned restarts. Config.RestockRetry re-arms a lost
//     order so the pool recovers; the stranded value of a lost *reply* is
//     what internal/chaos's auditor accounts for.
//
// The nonce source's monotonic counter IS persisted (NonceCounter):
// restoring it keeps post-restart nonces strictly above every nonce the
// previous incarnation issued, so the bank's replay protection and the
// engine's own stale-reply checks stay sound across crashes.

// EngineStateVersion identifies the state schema.
const EngineStateVersion = 1

// UserState is one user's durable row.
type UserState struct {
	Name        string `json:"name"`
	Account     int64  `json:"account"`
	Balance     int64  `json:"balance"`
	Sent        int64  `json:"sent"`
	Limit       int64  `json:"limit"`
	WarnedToday bool   `json:"warnedToday,omitempty"`
	// Journal is the user's statement ring (bounded, see journal.go).
	Journal []Entry `json:"journal,omitempty"`
}

// EngineState is the engine's durable snapshot.
type EngineState struct {
	Version    int     `json:"version"`
	Domain     string  `json:"domain"`
	Index      int     `json:"index"`
	Avail      int64   `json:"avail"`
	Seq        uint64  `json:"seq"`
	Credit     []int64 `json:"credit"`
	JournalSeq int64   `json:"journalSeq"`
	// NonceCounter is the monotonic half of the nonce source, persisted
	// so a restarted engine never reuses a pre-crash nonce.
	NonceCounter uint32      `json:"nonceCounter,omitempty"`
	Users        []UserState `json:"users"`
}

// Total sums the ledger value captured in the snapshot: the pool, every
// user balance, and every credit entry. While the exporting node is
// down, this is its contribution to the federation's conserved e-penny
// total (the disk survives the process).
func (st *EngineState) Total() int64 {
	total := st.Avail
	for i := range st.Credit {
		total += st.Credit[i]
	}
	for i := range st.Users {
		total += st.Users[i].Balance
	}
	return total
}

// ExportState captures the durable ledger. It stops the world (no send
// or receive in flight) so the snapshot is exactly consistent even on
// a busy daemon; users are listed sorted by name so identical ledgers
// serialize identically.
func (e *Engine) ExportState() *EngineState {
	return e.exportState(nil)
}

// exportState is ExportState with a hook: onCut, when non-nil, runs at
// the scalar cut — freeze write lock and cold mutex both held — which
// is where WAL compaction captures its mark (wal.go): every mutation
// not yet reflected here will log with a higher LSN.
func (e *Engine) exportState(onCut func()) *EngineState {
	e.freezeMu.Lock()
	defer e.freezeMu.Unlock()
	e.mu.Lock()
	st := &EngineState{
		Version:      EngineStateVersion,
		Domain:       e.cfg.Domain,
		Index:        e.cfg.Index,
		Avail:        int64(e.avail),
		Seq:          e.seq,
		JournalSeq:   e.journalSeq.Load(),
		NonceCounter: e.nonces.Counter(),
	}
	if onCut != nil {
		onCut()
	}
	e.mu.Unlock()
	st.Credit = make([]int64, len(e.credit))
	for i := range e.credit {
		st.Credit[i] = e.credit[i].Load()
	}
	for i := range e.stripes {
		s := &e.stripes[i]
		s.mu.Lock()
		for name, u := range s.users {
			st.Users = append(st.Users, UserState{
				Name:        name,
				Account:     int64(u.account),
				Balance:     int64(u.balance),
				Sent:        u.sent,
				Limit:       u.limit,
				WarnedToday: u.warnedToday,
				Journal:     append([]Entry(nil), u.journal...),
			})
		}
		s.mu.Unlock()
	}
	sort.Slice(st.Users, func(i, j int) bool { return st.Users[i].Name < st.Users[j].Name })
	return st
}

// restoreState loads a snapshot into a freshly-constructed engine
// (same Config as the exporter). It refuses mismatched identity or
// schema, and refuses to clobber an engine that already has users. The
// engine takes the users' journals over, so st must not be used after.
func (e *Engine) restoreState(st *EngineState) error {
	if st == nil {
		return fmt.Errorf("isp: nil state")
	}
	if st.Version != EngineStateVersion {
		return fmt.Errorf("isp: state version %d, want %d", st.Version, EngineStateVersion)
	}
	e.freezeMu.Lock()
	defer e.freezeMu.Unlock()
	if st.Domain != e.cfg.Domain || st.Index != e.cfg.Index {
		return fmt.Errorf("isp: state is for %s[%d], engine is %s[%d]",
			st.Domain, st.Index, e.cfg.Domain, e.cfg.Index)
	}
	if len(st.Credit) != len(e.credit) {
		return fmt.Errorf("isp: state has %d credit entries, federation has %d",
			len(st.Credit), len(e.credit))
	}
	for i := range e.stripes {
		s := &e.stripes[i]
		s.mu.Lock()
		n := len(s.users)
		s.mu.Unlock()
		if n != 0 {
			return fmt.Errorf("isp: engine already has users; restore onto a fresh engine")
		}
	}
	if st.Avail < 0 {
		return fmt.Errorf("isp: state pool is negative")
	}
	for _, us := range st.Users {
		if us.Balance < 0 || us.Account < 0 || us.Limit <= 0 {
			return fmt.Errorf("isp: state user %q has invalid ledger", us.Name)
		}
	}
	e.mu.Lock()
	e.avail = money.EPenny(st.Avail)
	e.seq = st.Seq
	e.mu.Unlock()
	for i := range e.credit {
		e.credit[i].Store(st.Credit[i])
	}
	e.journalSeq.Store(st.JournalSeq)
	e.nonces.SetCounter(st.NonceCounter)
	for _, us := range st.Users {
		s := e.stripeFor(us.Name)
		s.mu.Lock()
		s.users[us.Name] = &user{
			name:        us.Name,
			account:     money.Penny(us.Account),
			balance:     money.EPenny(us.Balance),
			sent:        us.Sent,
			limit:       us.Limit,
			warnedToday: us.WarnedToday,
			journal:     us.Journal,
		}
		s.mu.Unlock()
	}
	return nil
}
