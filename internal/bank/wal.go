package bank

import (
	"fmt"
	"sort"

	"zmail/internal/persist"
)

// WAL integration for the bank. Unlike the ISP engine the bank has no
// lock striping — every durable mutation happens under b.mu — so the
// log is a single segment whose file order is exactly the mutation
// order, and replay is a straight fold with no idempotence caveats.
// The compaction mark is captured under b.mu at the same instant the
// snapshot is cut, so a record is either inside the snapshot or has a
// higher LSN, never both.

// Bank WAL record kinds (first payload byte).
const (
	// bankRecBuy and bankRecSell are written no more: they logged the
	// retired split buy/sell exchange. Replay still reads them, so a log
	// written before the batch order became the only form recovers.
	bankRecBuy     byte = iota + 1 // nonce retired + mint (when accepted)
	bankRecSell                    // nonce retired + burn
	bankRecNonce                   // nonce retired, no ledger effect (rejected order)
	bankRecDeposit                 // out-of-band account funding
	bankRecRound                   // audit round verified: seq advance + violations
	bankRecSeq                     // audit round aborted: seq advance
	bankRecSettle                  // verified round's real-money settlement transfers
	bankRecBatch                   // nonce retired + coalesced mint/burn (batch order)
)

// bankWALSegments: all bank mutations serialize under b.mu.
const bankWALSegments = 1

// bankWALCompactThreshold is the live-log volume above which Checkpoint
// rewrites the snapshot instead of just fsyncing.
const bankWALCompactThreshold = 4 << 20

// walAppend logs one record, counting (never surfacing) failures: the
// mutation has already been applied in memory, and the WAL's sticky
// error resurfaces at the next Checkpoint sync or Close. Call with mu
// held so the segment's file order matches the mutation order.
func (b *Bank) walAppend(payload []byte) {
	if b.wal == nil {
		return
	}
	if err := b.wal.Append(0, payload); err != nil {
		b.walErrs++
	}
}

// walBatch logs a coalesced batch order: the nonce is retired, fill
// pennies left the account as a mint and sell pennies returned as a
// burn (either side may be zero). Call with mu held.
func (b *Bank) walBatch(nonce uint64, isp int, fill, sell int64) {
	if b.wal == nil {
		return
	}
	var enc persist.RecordEnc
	enc.U8(bankRecBatch)
	enc.U64(nonce)
	enc.U32(uint32(isp))
	enc.I64(fill)
	enc.I64(sell)
	b.walAppend(enc.B)
}

// walNonce logs a nonce retired with no ledger effect: a degenerate
// order is marked seen before it is rejected, and that memory is
// durable replay protection. Call with mu held.
func (b *Bank) walNonce(nonce uint64) {
	if b.wal == nil {
		return
	}
	var enc persist.RecordEnc
	enc.U8(bankRecNonce)
	enc.U64(nonce)
	b.walAppend(enc.B)
}

// walDeposit logs out-of-band account funding. Call with mu held.
func (b *Bank) walDeposit(isp int, amount int64) {
	if b.wal == nil {
		return
	}
	var enc persist.RecordEnc
	enc.U8(bankRecDeposit)
	enc.U32(uint32(isp))
	enc.I64(amount)
	b.walAppend(enc.B)
}

// walRound logs a verified audit round: the retired seq and the
// violations the sweep added. Call with mu held.
func (b *Bank) walRound(newSeq uint64, added []Violation) {
	if b.wal == nil {
		return
	}
	var enc persist.RecordEnc
	enc.U8(bankRecRound)
	enc.U64(newSeq)
	enc.U32(uint32(len(added)))
	for _, v := range added {
		enc.U32(uint32(v.I))
		enc.U32(uint32(v.J))
		enc.I64(v.CreditIJ)
		enc.I64(v.CreditJI)
	}
	b.walAppend(enc.B)
}

// walSettle logs a verified round's settlement transfers: replay must
// re-apply the real-money account moves, not just the seq advance, or
// a crash between settlement and the next snapshot silently un-pays
// every settled ISP. Call with mu held.
func (b *Bank) walSettle(transfers []Transfer) {
	if b.wal == nil || len(transfers) == 0 {
		return
	}
	var enc persist.RecordEnc
	enc.U8(bankRecSettle)
	enc.U32(uint32(len(transfers)))
	for _, t := range transfers {
		enc.U32(uint32(t.From))
		enc.U32(uint32(t.To))
		enc.I64(int64(t.Amount))
	}
	b.walAppend(enc.B)
}

// walSeq logs the seq a started round consumes, so a replay resumes
// past it whether the round then verifies (walRound logs the same
// value) or aborts. Call with mu held.
func (b *Bank) walSeq(newSeq uint64) {
	if b.wal == nil {
		return
	}
	var enc persist.RecordEnc
	enc.U8(bankRecSeq)
	enc.U64(newSeq)
	b.walAppend(enc.B)
}

// WALErrors reports how many mutation records failed to reach the log.
func (b *Bank) WALErrors() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.walErrs
}

// WALAttached reports whether the bank's durability is WAL-backed.
func (b *Bank) WALAttached() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.wal != nil
}

// AttachWAL initializes dir as the bank's write-ahead log, seeded with
// a snapshot of the current state.
func (b *Bank) AttachWAL(dir string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.wal != nil {
		return fmt.Errorf("bank: wal already attached")
	}
	w, err := persist.CreateWAL(dir, bankWALSegments, b.exportStateLocked())
	if err != nil {
		return err
	}
	b.wal = w
	return nil
}

// bankReplay folds snapshot+log during RecoverWAL.
type bankReplay struct {
	st     *BankState
	nonces map[uint64]bool
}

func newBankReplay(st *BankState) *bankReplay {
	r := &bankReplay{st: st, nonces: make(map[uint64]bool, len(st.Nonces))}
	for _, n := range st.Nonces {
		r.nonces[n] = true
	}
	return r
}

func (r *bankReplay) account(isp int) (int, error) {
	if isp < 0 || isp >= len(r.st.Accounts) {
		return 0, fmt.Errorf("bank: wal record for isp %d of %d", isp, len(r.st.Accounts))
	}
	return isp, nil
}

// apply replays one record.
func (r *bankReplay) apply(payload []byte) error {
	d := persist.DecodeRecord(payload)
	switch kind := d.U8(); kind {
	case bankRecBuy:
		nonce := d.U64()
		isp := int(d.U32())
		value := d.I64()
		accepted := d.Flag()
		if err := d.Err(); err != nil {
			return err
		}
		g, err := r.account(isp)
		if err != nil {
			return err
		}
		r.nonces[nonce] = true
		if accepted {
			r.st.Accounts[g] = r.st.Accounts[g] - value
			r.st.Minted += value
		}
	case bankRecSell:
		nonce := d.U64()
		isp := int(d.U32())
		value := d.I64()
		if err := d.Err(); err != nil {
			return err
		}
		g, err := r.account(isp)
		if err != nil {
			return err
		}
		r.nonces[nonce] = true
		r.st.Accounts[g] = r.st.Accounts[g] + value
		r.st.Burned += value
	case bankRecBatch:
		nonce := d.U64()
		isp := int(d.U32())
		fill := d.I64()
		sell := d.I64()
		if err := d.Err(); err != nil {
			return err
		}
		g, err := r.account(isp)
		if err != nil {
			return err
		}
		r.nonces[nonce] = true
		if fill > 0 {
			r.st.Accounts[g] -= fill
			r.st.Minted += fill
		}
		if sell > 0 {
			r.st.Accounts[g] += sell
			r.st.Burned += sell
		}
	case bankRecNonce:
		nonce := d.U64()
		if err := d.Err(); err != nil {
			return err
		}
		r.nonces[nonce] = true
	case bankRecDeposit:
		isp := int(d.U32())
		amount := d.I64()
		if err := d.Err(); err != nil {
			return err
		}
		g, err := r.account(isp)
		if err != nil {
			return err
		}
		r.st.Accounts[g] = r.st.Accounts[g] + amount
	case bankRecRound:
		newSeq := d.U64()
		n := int(d.U32())
		if n < 0 || n > len(r.st.Accounts)*len(r.st.Accounts) {
			return persist.ErrBadRecord
		}
		added := make([]Violation, 0, n)
		for i := 0; i < n; i++ {
			v := Violation{I: int(d.U32()), J: int(d.U32())}
			v.CreditIJ = d.I64()
			v.CreditJI = d.I64()
			added = append(added, v)
		}
		if err := d.Err(); err != nil {
			return err
		}
		r.st.Seq = newSeq
		r.st.Violations = append(r.st.Violations, added...)
	case bankRecSeq:
		newSeq := d.U64()
		if err := d.Err(); err != nil {
			return err
		}
		r.st.Seq = newSeq
	case bankRecSettle:
		n := int(d.U32())
		if n < 0 || n > len(r.st.Accounts)*len(r.st.Accounts) {
			return persist.ErrBadRecord
		}
		for i := 0; i < n; i++ {
			from := int(d.U32())
			to := int(d.U32())
			amt := d.I64()
			if err := d.Err(); err != nil {
				return err
			}
			f, err := r.account(from)
			if err != nil {
				return err
			}
			t, err := r.account(to)
			if err != nil {
				return err
			}
			r.st.Accounts[f] -= amt
			r.st.Accounts[t] += amt
		}
	default:
		return fmt.Errorf("%w: kind %d", persist.ErrBadRecord, kind)
	}
	return nil
}

// finalize folds the nonce set back into the snapshot, sorted for the
// byte-stable export contract.
func (r *bankReplay) finalize() {
	r.st.Nonces = r.st.Nonces[:0]
	for n := range r.nonces {
		r.st.Nonces = append(r.st.Nonces, n)
	}
	sort.Slice(r.st.Nonces, func(i, j int) bool { return r.st.Nonces[i] < r.st.Nonces[j] })
}

// RecoverWAL boots a freshly-built bank from the WAL at dir: load the
// snapshot, replay every surviving record, restore, and resume logging
// to the same WAL.
func (b *Bank) RecoverWAL(dir string) error {
	b.mu.Lock()
	attached := b.wal != nil
	b.mu.Unlock()
	if attached {
		return fmt.Errorf("bank: wal already attached")
	}
	var snap BankState
	var rp *bankReplay
	w, err := persist.RecoverWAL(dir, bankWALSegments, &snap, func(seg int, payload []byte) error {
		if rp == nil {
			rp = newBankReplay(&snap)
		}
		return rp.apply(payload)
	})
	if err != nil {
		return err
	}
	if rp != nil {
		rp.finalize()
	}
	if err := b.restoreState(&snap); err != nil {
		if cerr := w.Close(); cerr != nil {
			return fmt.Errorf("bank: restore after replay: %w (wal close also failed: %v)", err, cerr)
		}
		return err
	}
	b.mu.Lock()
	b.wal = w
	b.mu.Unlock()
	return nil
}

// CloseWAL detaches and closes the bank's WAL.
func (b *Bank) CloseWAL() error {
	b.mu.Lock()
	w := b.wal
	b.wal = nil
	b.mu.Unlock()
	if w == nil {
		return nil
	}
	return w.Close()
}

// Checkpoint makes the ledger durable: fsync the WAL, or, once the live
// log has outgrown bankWALCompactThreshold, compact it into a fresh
// snapshot. It fails when no WAL is attached. The bank has no injected
// clock, so periodic checkpoints are the caller's job: a bank daemon
// (core.StartBankDaemon) runs persist.StartCheckpoints on the wall
// clock.
func (b *Bank) Checkpoint() error {
	b.mu.Lock()
	w := b.wal
	b.mu.Unlock()
	if w == nil {
		return fmt.Errorf("bank: no wal attached")
	}
	if w.SizeSinceSnapshot() >= bankWALCompactThreshold {
		return b.compactWAL(w)
	}
	return w.Sync()
}

// CompactWAL rewrites the WAL snapshot from current state and drops
// fully-covered log volume.
func (b *Bank) CompactWAL() error {
	b.mu.Lock()
	w := b.wal
	b.mu.Unlock()
	if w == nil {
		return fmt.Errorf("bank: no wal attached")
	}
	return b.compactWAL(w)
}

// compactWAL captures the mark and the snapshot atomically under b.mu,
// then writes outside the lock (records appended meanwhile carry
// higher LSNs and survive the truncation).
func (b *Bank) compactWAL(w *persist.WAL) error {
	b.mu.Lock()
	mark := w.LSN()
	st := b.exportStateLocked()
	b.mu.Unlock()
	return w.WriteSnapshot(st, mark)
}
