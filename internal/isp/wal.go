package isp

import (
	"fmt"

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
	enc.I64(en.Seq)
	if err := enc.Time(en.Time); err != nil {
		return err
	}
	enc.U8(byte(en.Kind))
	enc.Str(en.Counterparty)
	enc.I64(en.EPennies)
	enc.I64(en.Pennies)
	enc.Str(en.MsgID)
	return nil
}

// entrySize bounds the bytes walEncEntry appends for en.
func entrySize(en Entry) int {
	return 8 + persist.TimeSize + 1 + 4 + len(en.Counterparty) + 8 + 8 + 4 + len(en.MsgID)
}

// walDecEntry reads one journal entry; a bad timestamp marks the whole
// decode failed.
func walDecEntry(d *persist.RecordDec) Entry {
	var en Entry
	en.Seq = d.I64()
	en.Time = d.Time()
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
	n := 1 + 8 + 4 + len(u.name) + 4*8 + 1 + 4
	for _, en := range u.journal {
		n += entrySize(en)
	}
	enc := persist.RecordEnc{B: make([]byte, 0, n)}
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
	payload, err := encSend(name, balDelta, sentDelta, ens...)
	e.walAppend(w, seg, payload, err)
}

// encSend encodes the payload walSend appends.
func encSend(name string, balDelta, sentDelta int64, ens ...Entry) ([]byte, error) {
	n := 1 + 4 + len(name) + 8 + 8
	for _, en := range ens {
		n += entrySize(en)
	}
	enc := persist.RecordEnc{B: make([]byte, 0, n)}
	enc.U8(ispRecSend)
	enc.Str(name)
	enc.I64(balDelta)
	enc.I64(sentDelta)
	for _, en := range ens {
		if err := walEncEntry(&enc, en); err != nil {
			return nil, err
		}
	}
	return enc.B, nil
}

// walSendRecord encodes one walSend record for a batch that walBatch
// appends later. It returns nil when no WAL is attached, and when the
// encoding fails, which is counted here and drops only this record.
// Caller holds the user's stripe lock.
func (e *Engine) walSendRecord(name string, balDelta, sentDelta int64, ens ...Entry) []byte {
	if e.wal.Load() == nil {
		return nil
	}
	payload, err := encSend(name, balDelta, sentDelta, ens...)
	if err != nil {
		e.walErrs.Add(1)
	}
	return payload
}

// walBatch appends the records one stripe's share of a transaction
// encoded (walSendRecord) to segment seg in one write. Caller holds
// that stripe's lock, so the records land in mutation order.
func (e *Engine) walBatch(seg int, recs [][]byte) {
	w := e.wal.Load()
	if w == nil || len(recs) == 0 {
		return
	}
	if err := w.AppendBatch(seg, recs); err != nil {
		e.walErrs.Add(int64(len(recs)))
	}
}

// walWarn logs the §5 zombie-warning flag. Caller holds the user's
// stripe lock.
func (e *Engine) walWarn(name string) {
	w := e.wal.Load()
	if w == nil {
		return
	}
	enc := persist.RecordEnc{B: make([]byte, 0, 1+4+len(name))}
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
	enc := persist.RecordEnc{B: make([]byte, 0, 1+4+len(name)+3*8+entrySize(en))}
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
	enc := persist.RecordEnc{B: make([]byte, 0, 1+8)}
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
	enc := persist.RecordEnc{B: make([]byte, 0, 1+4+8)}
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
	enc := persist.RecordEnc{B: make([]byte, 0, 1+8)}
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
	enc := persist.RecordEnc{B: make([]byte, 0, 1+4)}
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
	enc := persist.RecordEnc{B: make([]byte, 0, 1)}
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
// credit are folded as commutative sums; user rows live in one map per
// stripe, keyed by name and touched only by their own stripe segment's
// records. A record in a segment it could not have been logged to —
// a user record whose name hashes to another stripe, a stripe record in
// the meta segment, a meta record in a stripe segment — means the log
// was written with another stripe count, and fails the replay.
//
// Journal entries wait in pend until their segment's records are all
// applied (or the next segment's first arrives); flushJournals then
// gives each row its grown ring in one allocation of its final size,
// where appending entry by entry would reallocate it every time its
// capacity ran out.
type ispReplay struct {
	stripes []map[string]*UserState
	pool    int64
	credit  []int64
	seq     uint64
	jseq    int64
	nonce   uint32
	mask    uint32

	pend    []pendingEntry
	pendSeg int
	grow    map[*UserState]int // flushJournals' per-row count, reused
}

// pendingEntry is a replayed journal entry not yet in its row's ring.
type pendingEntry struct {
	row *UserState
	en  Entry
}

func newISPReplay(st *EngineState, mask uint32) *ispReplay {
	r := &ispReplay{
		stripes: make([]map[string]*UserState, mask+1),
		pool:    st.Avail,
		credit:  append([]int64(nil), st.Credit...),
		seq:     st.Seq,
		jseq:    st.JournalSeq,
		nonce:   st.NonceCounter,
		mask:    mask,
		grow:    make(map[*UserState]int),
	}
	for i := range r.stripes {
		r.stripes[i] = make(map[string]*UserState, len(st.Users)/len(r.stripes))
	}
	for i := range st.Users {
		row := &st.Users[i]
		r.stripes[fnv1a32(row.Name)&mask][row.Name] = row
	}
	return r
}

// misfiled rejects a record kind found in a segment it is never logged
// to: stripe records belong in stripe segments, cold-state records in
// the meta segment.
func (r *ispReplay) misfiled(seg int, kind byte) error {
	meta := seg == len(r.stripes)
	switch kind {
	case ispRecUserPut, ispRecSend, ispRecWarn, ispRecTrade, ispRecDayReset:
		if meta {
			return fmt.Errorf("isp: wal record kind %d in meta segment %d", kind, seg)
		}
	case ispRecPoolAdd, ispRecCreditAdd, ispRecCreditZero, ispRecNonce:
		if !meta {
			return fmt.Errorf("isp: wal record kind %d in stripe segment %d", kind, seg)
		}
	}
	return nil
}

// row finds the user a stripe record of segment seg names. name
// aliases the payload; the lookup does not copy it.
func (r *ispReplay) row(seg int, name []byte) (*UserState, error) {
	if row, ok := r.stripes[seg][string(name)]; ok {
		return row, nil
	}
	if want := int(fnv1a32(string(name)) & r.mask); want != seg {
		return nil, fmt.Errorf("isp: wal record for %q in segment %d, its stripe is %d", name, seg, want)
	}
	return nil, fmt.Errorf("isp: wal record for unknown user %q", name)
}

// bumpSeq raises the journal high-water mark to cover en.
func (r *ispReplay) bumpSeq(en Entry) {
	if en.Seq > r.jseq {
		r.jseq = en.Seq
	}
}

// journal queues en for row, a row of segment seg, and raises the
// journal high-water mark to cover it.
func (r *ispReplay) journal(seg int, row *UserState, en Entry) {
	if seg != r.pendSeg {
		r.flushJournals()
		r.pendSeg = seg
	}
	r.pend = append(r.pend, pendingEntry{row, en})
	r.bumpSeq(en)
}

// flushJournals appends the pending entries to their rows, honoring the
// ring bound: a row that gains n entries keeps the last journalDepth of
// its old ring and the n, in a slice allocated at that length. A row
// that a later put replaced still receives its entries, which nothing
// reads.
func (r *ispReplay) flushJournals() {
	for _, p := range r.pend {
		r.grow[p.row]++
	}
	for row, n := range r.grow {
		size := min(len(row.Journal)+n, journalDepth)
		kept := max(size-n, 0)
		j := make([]Entry, kept, size)
		copy(j, row.Journal[len(row.Journal)-kept:])
		row.Journal = j
		r.grow[row] = n - (size - kept) // leading new entries that roll off
	}
	for _, p := range r.pend {
		if r.grow[p.row] > 0 {
			r.grow[p.row]--
			continue
		}
		p.row.Journal = append(p.row.Journal, p.en)
	}
	clear(r.grow)
	clear(r.pend) // drop the rows and strings the entries point to
	r.pend = r.pend[:0]
}

// apply replays one record from segment seg. The payload is valid only
// during the call: names are looked up without copying, and everything
// kept (a put's name, each journal entry's strings) is copied by the
// decoder.
func (r *ispReplay) apply(seg int, payload []byte) error {
	d := persist.DecodeRecord(payload)
	kind := d.U8()
	if err := r.misfiled(seg, kind); err != nil {
		return err
	}
	switch kind {
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
		if want := int(fnv1a32(row.Name) & r.mask); want != seg {
			return fmt.Errorf("isp: wal record for %q in segment %d, its stripe is %d", row.Name, seg, want)
		}
		r.stripes[seg][row.Name] = row
		r.pool = r.pool + poolDelta
	case ispRecSend:
		name := d.Blob()
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
		row, err := r.row(seg, name)
		if err != nil {
			return err
		}
		row.Balance = row.Balance + balDelta
		row.Sent += sentDelta
		for _, en := range ens {
			r.journal(seg, row, en)
		}
	case ispRecWarn:
		name := d.Blob()
		if err := d.Err(); err != nil {
			return err
		}
		row, err := r.row(seg, name)
		if err != nil {
			return err
		}
		row.WarnedToday = true
	case ispRecTrade:
		name := d.Blob()
		accountDelta := d.I64()
		balDelta := d.I64()
		poolDelta := d.I64()
		en := walDecEntry(d)
		if err := d.Err(); err != nil {
			return err
		}
		row, err := r.row(seg, name)
		if err != nil {
			return err
		}
		row.Account = row.Account + accountDelta
		row.Balance = row.Balance + balDelta
		r.pool = r.pool + poolDelta
		r.journal(seg, row, en)
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
		for _, row := range r.stripes[seg] {
			row.Sent = 0
			row.WarnedToday = false
		}
	default:
		return fmt.Errorf("%w: kind %d", persist.ErrBadRecord, kind)
	}
	return nil
}

// finalize folds the replayed state back into st. Users come out in
// no particular order: restoreState files them by stripe, and only
// ExportState promises sorted output.
func (r *ispReplay) finalize(st *EngineState) {
	r.flushJournals()
	st.Avail = r.pool
	st.Credit = r.credit
	st.Seq = r.seq
	st.JournalSeq = r.jseq
	st.NonceCounter = r.nonce
	n := 0
	for _, b := range r.stripes {
		n += len(b)
	}
	users := make([]UserState, 0, n)
	for _, b := range r.stripes {
		for _, row := range b {
			users = append(users, *row)
		}
	}
	st.Users = users
}

// RecoverWAL boots a freshly-built engine from the WAL at dir: load
// the snapshot, replay every surviving record, restore, and resume
// logging to the same WAL. The engine must have the exporter's Config
// (restoreState checks identity) and no registered users.
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
	if err := e.restoreState(&snap); err != nil {
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
