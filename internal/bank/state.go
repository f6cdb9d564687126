package bank

import (
	"fmt"
	"sort"

	"zmail/internal/money"
)

// Durable state for the central bank: the real-money accounts are the
// federation's funds, the mint counters back the outstanding e-penny
// supply, the nonce memory is the replay defense, and the violation
// log is the audit trail. Round-in-progress state (gathering, partial
// verify matrix) is deliberately transient: a bank restart abandons
// the round and the operator starts a new one.

// BankStateVersion identifies the state schema.
const BankStateVersion = 1

// BankState is the bank's durable snapshot.
type BankState struct {
	Version    int         `json:"version"`
	NumISPs    int         `json:"numISPs"`
	Accounts   []int64     `json:"accounts"`
	Seq        uint64      `json:"seq"`
	Minted     int64       `json:"minted"`
	Burned     int64       `json:"burned"`
	Nonces     []uint64    `json:"nonces"`
	Violations []Violation `json:"violations,omitempty"`
}

// ExportState captures the durable ledger under the bank lock.
func (b *Bank) ExportState() *BankState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.exportStateLocked()
}

// exportStateLocked is ExportState's body, split out so WAL attach and
// compaction (wal.go) can cut a snapshot at a point they also mark —
// call with mu held.
func (b *Bank) exportStateLocked() *BankState {
	seq := b.seq
	if b.gathering {
		// The in-flight round has consumed this seq: ISPs that already
		// reported are at seq+1. Export the retired value so a restore
		// starts the next round convergent with every survivor (the
		// round itself is abandoned, as documented above).
		seq++
	}
	st := &BankState{
		Version: BankStateVersion,
		NumISPs: b.cfg.NumISPs,
		Seq:     seq,
		Minted:  b.stats.Minted,
		Burned:  b.stats.Burned,
	}
	for _, a := range b.account {
		st.Accounts = append(st.Accounts, int64(a))
	}
	st.Nonces = make([]uint64, 0, len(b.seenNonces))
	for n := range b.seenNonces {
		st.Nonces = append(st.Nonces, n)
	}
	// Sorted so identical ledgers serialize identically (map order is
	// random); state files must be byte-stable for golden comparisons.
	sort.Slice(st.Nonces, func(i, j int) bool { return st.Nonces[i] < st.Nonces[j] })
	st.Violations = append(st.Violations, b.violations...)
	return st
}

// restoreState loads a snapshot into a freshly-constructed bank with
// the same federation size.
func (b *Bank) restoreState(st *BankState) error {
	if st == nil {
		return fmt.Errorf("bank: nil state")
	}
	if st.Version != BankStateVersion {
		return fmt.Errorf("bank: state version %d, want %d", st.Version, BankStateVersion)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if st.NumISPs != b.cfg.NumISPs || len(st.Accounts) != b.cfg.NumISPs {
		return fmt.Errorf("bank: state is for %d ISPs, bank has %d", st.NumISPs, b.cfg.NumISPs)
	}
	if b.gathering {
		return fmt.Errorf("bank: cannot restore during an audit round")
	}
	for i, a := range st.Accounts {
		if a < 0 {
			return fmt.Errorf("bank: state account[%d] is negative", i)
		}
		b.account[i] = money.Penny(a)
	}
	b.seq = st.Seq
	b.stats.Minted = st.Minted
	b.stats.Burned = st.Burned
	b.seenNonces = make(map[uint64]bool, len(st.Nonces))
	for _, n := range st.Nonces {
		b.seenNonces[n] = true
	}
	b.violations = append([]Violation(nil), st.Violations...)
	b.stats.ViolationsAll = int64(len(b.violations))
	return nil
}
