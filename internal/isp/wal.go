package isp

import (
	"fmt"
	"sort"
	"time"

	"zmail/internal/persist"
)

// WAL integration: the engine's durable state as an append-only
// mutation log (internal/persist's WAL) instead of whole-state JSON.
//
// Segment assignment mirrors the lock striping: stripe i logs to
// segment i, so two users in different stripes append without
// contending, and one extra "meta" segment (index len(stripes)) holds
// everything guarded by the cold mutex or the freeze gate — pool
// deltas, credit deltas, the per-round credit zeroing, and the nonce
// counter. Checkpointing a WAL-backed engine is a per-segment fsync;
// only compaction (rewriting the snapshot) needs the stop-world export.
//
// Replay is order-independent across segments by construction:
//
//   - a user's row is only ever touched by records in its own stripe
//     segment, where file order is mutation order;
//   - pool changes are logged as signed deltas, which commute across
//     segments (the user-put and trade records carry their pool delta so
//     a pool↔user move is one atomic record);
//   - credit deltas and the zeroing record share the single meta
//     segment, and their relative order is exact because the zeroing
//     runs under the freeze write lock that excludes every delta.
//
// Records emitted while *not* holding the freeze gate (deposits,
// withdrawals, limit changes, the end-of-day reset) are idempotent
// full-row puts or resets: a compaction cut can race them, and replay
// must tolerate re-applying them over a snapshot that already saw them.

// ISP WAL record kinds (first payload byte).
const (
	ispRecUserPut    byte = iota + 1 // full user row + pool delta (idempotent)
	ispRecSend                       // balance/sent delta + one journal entry per e-penny
	ispRecWarn                       // zombie warning flag set
	ispRecTrade                      // user buy/sell: account/balance/pool deltas + entry
	ispRecPoolAdd                    // pool delta (bank trades, escrow, refunds)
	ispRecCreditAdd                  // per-peer credit delta
	ispRecCreditZero                 // snapshot round: zero credit, set seq
	ispRecNonce                      // nonce counter high-water mark
	ispRecDayReset                   // end-of-day: reset sent/warned in this stripe
)

// walCompactThreshold is the live-log volume above which Checkpoint
// rewrites the snapshot instead of just fsyncing the segments.
const walCompactThreshold = 4 << 20

// walEncEntry appends one journal entry to a record payload.
func walEncEntry(enc *persist.RecordEnc, en Entry) error {
	tb, err := en.Time.MarshalBinary()
	if err != nil {
		return err
	}
	enc.I64(en.Seq)
	enc.Blob(tb)
	enc.U8(byte(en.Kind))
	enc.Str(en.Counterparty)
	enc.I64(en.EPennies)
	enc.I64(en.Pennies)
	enc.Str(en.MsgID)
	return nil
}

// walDecEntry reads one journal entry; a bad timestamp marks the whole
// decode failed.
func walDecEntry(d *persist.RecordDec) Entry {
	var en Entry
	en.Seq = d.I64()
	if tb := d.Blob(); tb != nil {
		var ts time.Time
		if err := ts.UnmarshalBinary(tb); err != nil {
			d.SetFailed()
		}
		en.Time = ts
	}
	en.Kind = EntryKind(d.U8())
	en.Counterparty = d.Str()
	en.EPennies = d.I64()
	en.Pennies = d.I64()
	en.MsgID = d.Str()
	return en
}

// metaSeg is the segment for cold-state records (pool, credit, nonce).
func (e *Engine) metaSeg() int { return len(e.stripes) }

// walSegments is the WAL's segment count: one per stripe plus meta.
func (e *Engine) walSegments() int { return len(e.stripes) + 1 }

// walAppend writes one record, counting (never surfacing) failures:
// the hot path cannot usefully handle an I/O error mid-stripe-lock,
// and the WAL's sticky per-segment error resurfaces at the next
// Checkpoint sync or Close.
func (e *Engine) walAppend(w *persist.WAL, seg int, payload []byte, encErr error) {
	if encErr != nil {
		e.walErrs.Add(1)
		return
	}
	if err := w.Append(seg, payload); err != nil {
		e.walErrs.Add(1)
	}
}

// walUserPut logs a user's full row (idempotent). poolDelta is the
// pool-side half of the mutation for registration's pool→balance seed.
// Caller holds the user's stripe lock.
func (e *Engine) walUserPut(seg int, u *user, poolDelta int64) {
	w := e.wal.Load()
	if w == nil {
		return
	}
	var enc persist.RecordEnc
	enc.U8(ispRecUserPut)
	enc.I64(poolDelta)
	enc.Str(u.name)
	enc.I64(int64(u.account))
	enc.I64(int64(u.balance))
	enc.I64(u.sent)
	enc.I64(u.limit)
	enc.Flag(u.warnedToday)
	enc.U32(uint32(len(u.journal)))
	var encErr error
	for _, en := range u.journal {
		if err := walEncEntry(&enc, en); err != nil {
			encErr = err
			break
		}
	}
	e.walAppend(w, seg, enc.B, encErr)
}

// walSend logs a send/receive balance movement plus its journal
// entries, one per e-penny moved: |balDelta| of them, so a charge of k
// to one peer is one record with k entries and a one-recipient record
// is unchanged. Caller holds the user's stripe lock.
func (e *Engine) walSend(seg int, name string, balDelta, sentDelta int64, ens ...Entry) {
	w := e.wal.Load()
	if w == nil {
		return
	}
	var enc persist.RecordEnc
	enc.U8(ispRecSend)
	enc.Str(name)
	enc.I64(balDelta)
	enc.I64(sentDelta)
	var err error
	for _, en := range ens {
		if err = walEncEntry(&enc, en); err != nil {
			break
		}
	}
	e.walAppend(w, seg, enc.B, err)
}

// walWarn logs the §5 zombie-warning flag. Caller holds the user's
// stripe lock.
func (e *Engine) walWarn(name string) {
	w := e.wal.Load()
	if w == nil {
		return
	}
	var enc persist.RecordEnc
	enc.U8(ispRecWarn)
	enc.Str(name)
	e.walAppend(w, int(fnv1a32(name)&e.stripeMask), enc.B, nil)
}

// walTrade logs a user↔pool exchange (BuyEPennies/SellEPennies) as one
// atomic record. Caller holds the user's stripe lock.
func (e *Engine) walTrade(seg int, name string, accountDelta, balDelta, poolDelta int64, en Entry) {
	w := e.wal.Load()
	if w == nil {
		return
	}
	var enc persist.RecordEnc
	enc.U8(ispRecTrade)
	enc.Str(name)
	enc.I64(accountDelta)
	enc.I64(balDelta)
	enc.I64(poolDelta)
	err := walEncEntry(&enc, en)
	e.walAppend(w, seg, enc.B, err)
}

// walPoolAdd logs a bank-trade pool delta. Caller holds e.mu.
func (e *Engine) walPoolAdd(delta int64) {
	w := e.wal.Load()
	if w == nil {
		return
	}
	var enc persist.RecordEnc
	enc.U8(ispRecPoolAdd)
	enc.I64(delta)
	e.walAppend(w, e.metaSeg(), enc.B, nil)
}

// walCreditAdd logs a per-peer credit delta. Caller holds freezeMu for
// read, which orders it against walCreditZero in the meta segment.
func (e *Engine) walCreditAdd(peer int, delta int64) {
	w := e.wal.Load()
	if w == nil {
		return
	}
	var enc persist.RecordEnc
	enc.U8(ispRecCreditAdd)
	enc.U32(uint32(peer))
	enc.I64(delta)
	e.walAppend(w, e.metaSeg(), enc.B, nil)
}

// walCreditZero logs the §4.4 round close: credit zeroed, seq set.
// Caller holds freezeMu for write.
func (e *Engine) walCreditZero(newSeq uint64) {
	w := e.wal.Load()
	if w == nil {
		return
	}
	var enc persist.RecordEnc
	enc.U8(ispRecCreditZero)
	enc.U64(newSeq)
	e.walAppend(w, e.metaSeg(), enc.B, nil)
}

// walNonce logs the nonce counter high-water mark. Caller holds e.mu.
func (e *Engine) walNonce(counter uint32) {
	w := e.wal.Load()
	if w == nil {
		return
	}
	var enc persist.RecordEnc
	enc.U8(ispRecNonce)
	enc.U32(counter)
	e.walAppend(w, e.metaSeg(), enc.B, nil)
}

// walDayReset logs EndOfDay for one stripe (idempotent). Caller holds
// that stripe's lock.
func (e *Engine) walDayReset(seg int) {
	w := e.wal.Load()
	if w == nil {
		return
	}
	var enc persist.RecordEnc
	enc.U8(ispRecDayReset)
	e.walAppend(w, seg, enc.B, nil)
}

// WALErrors reports how many mutation records failed to reach the log;
// nonzero means the next Checkpoint/CloseWAL will surface the cause.
func (e *Engine) WALErrors() int64 { return e.walErrs.Load() }

// WALAttached reports whether the engine's durability is WAL-backed.
func (e *Engine) WALAttached() bool { return e.wal.Load() != nil }

// AttachWAL initializes dir as this engine's write-ahead log, seeding
// it with a snapshot of the current state. Every subsequent ledger
// mutation appends a record; Checkpoint is sync-or-compact.
func (e *Engine) AttachWAL(dir string) error {
	if e.wal.Load() != nil {
		return fmt.Errorf("isp: wal already attached")
	}
	w, err := persist.CreateWAL(dir, e.walSegments(), e.ExportState())
	if err != nil {
		return err
	}
	e.wal.Store(w)
	return nil
}

// ispReplay accumulates snapshot+log state during RecoverWAL. Pool and
// credit are folded as commutative sums; user rows live in a map keyed
// by name, touched only by their own stripe segment's records.
type ispReplay struct {
	users  map[string]*UserState
	pool   int64
	credit []int64
	seq    uint64
	jseq   int64
	nonce  uint32
	mask   uint32
}

func newISPReplay(st *EngineState, mask uint32) *ispReplay {
	r := &ispReplay{
		users:  make(map[string]*UserState, len(st.Users)),
		pool:   st.Avail,
		credit: append([]int64(nil), st.Credit...),
		seq:    st.Seq,
		jseq:   st.JournalSeq,
		nonce:  st.NonceCounter,
		mask:   mask,
	}
	for i := range st.Users {
		row := st.Users[i]
		r.users[row.Name] = &row
	}
	return r
}

// bumpSeq raises the journal high-water mark to cover en.
func (r *ispReplay) bumpSeq(en Entry) {
	if en.Seq > r.jseq {
		r.jseq = en.Seq
	}
}

// appendJournal applies one journal entry to a row, honoring the ring
// bound.
func appendJournal(row *UserState, en Entry) {
	row.Journal = append(row.Journal, en)
	if len(row.Journal) > journalDepth {
		row.Journal = row.Journal[len(row.Journal)-journalDepth:]
	}
}

// apply replays one record from segment seg.
func (r *ispReplay) apply(seg int, payload []byte) error {
	d := persist.DecodeRecord(payload)
	switch kind := d.U8(); kind {
	case ispRecUserPut:
		poolDelta := d.I64()
		row := &UserState{Name: d.Str()}
		row.Account = d.I64()
		row.Balance = d.I64()
		row.Sent = d.I64()
		row.Limit = d.I64()
		row.WarnedToday = d.Flag()
		n := int(d.U32())
		if n > journalDepth {
			return persist.ErrBadRecord
		}
		for i := 0; i < n; i++ {
			en := walDecEntry(d)
			row.Journal = append(row.Journal, en)
			r.bumpSeq(en)
		}
		if err := d.Err(); err != nil {
			return err
		}
		r.users[row.Name] = row
		r.pool = r.pool + poolDelta
	case ispRecSend:
		name := d.Str()
		balDelta := d.I64()
		sentDelta := d.I64()
		// One entry per e-penny moved, and no entry is shorter than a
		// byte, so a corrupt count cannot outrun the payload.
		n := max(balDelta, -balDelta)
		if n < 1 || n > int64(len(payload)) {
			return persist.ErrBadRecord
		}
		var one [1]Entry
		ens := one[:0]
		for i := int64(0); i < n; i++ {
			ens = append(ens, walDecEntry(d))
		}
		if err := d.Err(); err != nil {
			return err
		}
		row, ok := r.users[name]
		if !ok {
			return fmt.Errorf("isp: wal send for unknown user %q", name)
		}
		row.Balance = row.Balance + balDelta
		row.Sent += sentDelta
		for _, en := range ens {
			appendJournal(row, en)
			r.bumpSeq(en)
		}
	case ispRecWarn:
		name := d.Str()
		if err := d.Err(); err != nil {
			return err
		}
		row, ok := r.users[name]
		if !ok {
			return fmt.Errorf("isp: wal warn for unknown user %q", name)
		}
		row.WarnedToday = true
	case ispRecTrade:
		name := d.Str()
		accountDelta := d.I64()
		balDelta := d.I64()
		poolDelta := d.I64()
		en := walDecEntry(d)
		if err := d.Err(); err != nil {
			return err
		}
		row, ok := r.users[name]
		if !ok {
			return fmt.Errorf("isp: wal trade for unknown user %q", name)
		}
		row.Account = row.Account + accountDelta
		row.Balance = row.Balance + balDelta
		r.pool = r.pool + poolDelta
		appendJournal(row, en)
		r.bumpSeq(en)
	case ispRecPoolAdd:
		delta := d.I64()
		if err := d.Err(); err != nil {
			return err
		}
		r.pool = r.pool + delta
	case ispRecCreditAdd:
		peer := int(d.U32())
		delta := d.I64()
		if err := d.Err(); err != nil {
			return err
		}
		if peer < 0 || peer >= len(r.credit) {
			return fmt.Errorf("isp: wal credit delta for peer %d of %d", peer, len(r.credit))
		}
		r.credit[peer] = r.credit[peer] + delta
	case ispRecCreditZero:
		newSeq := d.U64()
		if err := d.Err(); err != nil {
			return err
		}
		for i := range r.credit {
			r.credit[i] = 0
		}
		r.seq = newSeq
	case ispRecNonce:
		c := d.U32()
		if err := d.Err(); err != nil {
			return err
		}
		if c > r.nonce {
			r.nonce = c
		}
	case ispRecDayReset:
		if err := d.Err(); err != nil {
			return err
		}
		for name, row := range r.users {
			if int(fnv1a32(name)&r.mask) == seg {
				row.Sent = 0
				row.WarnedToday = false
			}
		}
	default:
		return fmt.Errorf("%w: kind %d", persist.ErrBadRecord, kind)
	}
	return nil
}

// finalize folds the replayed state back into st.
func (r *ispReplay) finalize(st *EngineState) {
	st.Avail = r.pool
	st.Credit = r.credit
	st.Seq = r.seq
	st.JournalSeq = r.jseq
	st.NonceCounter = r.nonce
	st.Users = st.Users[:0]
	for _, row := range r.users {
		st.Users = append(st.Users, *row)
	}
	sort.Slice(st.Users, func(i, j int) bool { return st.Users[i].Name < st.Users[j].Name })
}

// RecoverWAL boots a freshly-built engine from the WAL at dir: load
// the snapshot, replay every surviving record, restore, and resume
// logging to the same WAL. The engine must have the exporter's Config
// (RestoreState checks identity) and no registered users.
func (e *Engine) RecoverWAL(dir string) error {
	if e.wal.Load() != nil {
		return fmt.Errorf("isp: wal already attached")
	}
	var snap EngineState
	var rp *ispReplay
	w, err := persist.RecoverWAL(dir, e.walSegments(), &snap, func(seg int, payload []byte) error {
		if rp == nil {
			rp = newISPReplay(&snap, e.stripeMask)
		}
		return rp.apply(seg, payload)
	})
	if err != nil {
		return err
	}
	if rp != nil {
		rp.finalize(&snap)
	}
	if err := e.RestoreState(&snap); err != nil {
		if cerr := w.Close(); cerr != nil {
			return fmt.Errorf("isp: restore after replay: %w (wal close also failed: %v)", err, cerr)
		}
		return err
	}
	e.wal.Store(w)
	return nil
}

// CloseWAL detaches and closes the engine's WAL. The swap-to-nil
// happens first so a straggling append (a freeze timer from a dead
// incarnation, say) no-ops instead of hitting a closed file.
func (e *Engine) CloseWAL() error {
	w := e.wal.Swap(nil)
	if w == nil {
		return nil
	}
	return w.Close()
}

// Checkpoint makes the ledger durable: fsync the WAL's segments, or,
// once the live log has outgrown walCompactThreshold, compact it into a
// fresh snapshot. Every mutation already appended its record, so this
// is O(mutations since the last checkpoint). It fails when no WAL is
// attached. Periodic checkpoints are
// persist.StartCheckpoints(e.Clock(), e.Checkpoint, ...).
func (e *Engine) Checkpoint() error {
	w := e.wal.Load()
	if w == nil {
		return fmt.Errorf("isp: no wal attached")
	}
	if w.SizeSinceSnapshot() >= walCompactThreshold {
		return e.compactWAL(w)
	}
	return w.Sync()
}

// CompactWAL rewrites the WAL snapshot from current state and drops
// fully-covered segments. The compaction mark is captured at the
// export's scalar cut — under the freeze write lock and the cold
// mutex — so every record not reflected in the snapshot has a higher
// LSN, and the only records that can straddle the cut are the
// idempotent stripe-local ones.
func (e *Engine) CompactWAL() error {
	w := e.wal.Load()
	if w == nil {
		return fmt.Errorf("isp: no wal attached")
	}
	return e.compactWAL(w)
}

func (e *Engine) compactWAL(w *persist.WAL) error {
	var mark uint64
	st := e.exportState(func() { mark = w.LSN() })
	if err := w.WriteSnapshot(st, mark); err != nil {
		return err
	}
	return nil
}
