package isp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"zmail/internal/chaos"
	"zmail/internal/clock"
	"zmail/internal/crypto"
	"zmail/internal/mail"
	"zmail/internal/money"
	"zmail/internal/persist"
	"zmail/internal/wire"
)

// exportJSON is the equivalence oracle: two engines hold the same
// durable ledger iff their sorted, versioned snapshots marshal to the
// same bytes (ExportState sorts users; JSON field order is fixed).
func exportJSON(t testing.TB, e *Engine) []byte {
	t.Helper()
	b, err := json.Marshal(e.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// driveWALWorkload pushes an engine through every mutation class the
// WAL records: registration, deposits/withdrawals, limit changes,
// local and remote sends, user trades, bank trades (nonce + pool), a
// snapshot round (credit zeroing), a zombie warning, and end-of-day.
func driveWALWorkload(t *testing.T, e *Engine, ft *fakeTransport, clk *clock.Virtual) {
	t.Helper()
	mustRegister(t, e, "alice", 100, 40)
	mustRegister(t, e, "bob", 50, 10)
	mustRegister(t, e, "carol", 80, 20)
	if err := e.Deposit("alice", 30); err != nil {
		t.Fatal(err)
	}
	if err := e.Withdraw("alice", 5); err != nil {
		t.Fatal(err)
	}
	if err := e.SetLimit("bob", 25); err != nil {
		t.Fatal(err)
	}
	// Local send (two stripes move), paid remote send (credit delta),
	// inbound remote (balance up, credit down).
	if _, err := e.SubmitSync(mail.NewMessage(addr("alice@a.example"), addr("bob@a.example"), "s", "b")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SubmitSync(mail.NewMessage(addr("alice@a.example"), addr("x@b.example"), "s", "b")); err != nil {
		t.Fatal(err)
	}
	if err := e.ReceiveRemote("b.example", mail.NewMessage(addr("x@b.example"), addr("carol@a.example"), "s", "b")); err != nil {
		t.Fatal(err)
	}
	// User↔pool trades.
	if err := e.BuyEPennies("bob", 7); err != nil {
		t.Fatal(err)
	}
	if err := e.SellEPennies("carol", 3); err != nil {
		t.Fatal(err)
	}
	// Bank trade: drain the pool under MinAvail, tick a buy out
	// (burns a nonce), accept the reply (pool delta).
	nbank := len(ft.bank)
	mustRegister(t, e, "whale", 0, int64(e.Avail())-50)
	if err := e.Tick(); err != nil {
		t.Fatal(err)
	}
	if len(ft.bank) != nbank+1 {
		t.Fatalf("tick sent %d bank messages, want 1", len(ft.bank)-nbank)
	}
	var buy wire.Buy
	if err := buy.UnmarshalBinary(ft.bank[nbank].Payload); err != nil {
		t.Fatal(err)
	}
	reply := &wire.Envelope{Kind: wire.KindBuyReply, From: -1,
		Payload: (&wire.BuyReply{Nonce: buy.Nonce, Accepted: true}).MarshalBinary()}
	if err := e.HandleBank(reply); err != nil {
		t.Fatal(err)
	}
	// Snapshot round: freeze, let the quiet period expire, report —
	// zeroes the credit array and advances seq in the meta segment —
	// and thaw.
	e.ForceSnapshot()
	clk.Advance(thawAfter)
	// Day rollover resets sent/warned stripe by stripe.
	e.EndOfDay()
	// Leave some post-reset activity in the log.
	if _, err := e.SubmitSync(mail.NewMessage(addr("bob@a.example"), addr("alice@a.example"), "s2", "b2")); err != nil {
		t.Fatal(err)
	}
}

// recoverInto builds a fresh engine with the same config shape and
// replays the WAL at dir into it.
func recoverInto(t *testing.T, dir string) *Engine {
	t.Helper()
	e2, _, _ := newEngine(t, 0, nil, nil)
	if err := e2.RecoverWAL(dir); err != nil {
		t.Fatal(err)
	}
	return e2
}

// TestWALEngineRoundTrip: every mutation class, close cleanly, recover,
// and demand the exported snapshots match byte for byte.
func TestWALEngineRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	e1, ft, clk := newEngine(t, 0, nil, nil)
	if e1.WALAttached() {
		t.Fatal("fresh engine claims a WAL")
	}
	if err := e1.AttachWAL(dir); err != nil {
		t.Fatal(err)
	}
	if !e1.WALAttached() {
		t.Fatal("attach did not take")
	}
	driveWALWorkload(t, e1, ft, clk)
	want := exportJSON(t, e1)
	if n := e1.WALErrors(); n != 0 {
		t.Fatalf("%d wal append errors", n)
	}
	if err := e1.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	e2 := recoverInto(t, dir)
	got := exportJSON(t, e2)
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered state differs:\n got %s\nwant %s", got, want)
	}
	// The recovered engine keeps logging to the same WAL and a second
	// recovery sees the new mutation too.
	if err := e2.Deposit("alice", 1); err != nil {
		t.Fatal(err)
	}
	want2 := exportJSON(t, e2)
	if err := e2.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	e3 := recoverInto(t, dir)
	if got := exportJSON(t, e3); !bytes.Equal(got, want2) {
		t.Fatalf("second recovery differs:\n got %s\nwant %s", got, want2)
	}
	if err := e3.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestWALBatchOrders runs coalesced bank orders under the WAL: a
// partially filled order and one still outstanding at the crash. The
// fill's pool credit and each order's nonce must be logged, or the
// recovered engine differs from the live one in its pool or reuses a
// nonce the bank has already seen.
func TestWALBatchOrders(t *testing.T) {
	batch := func(c *Config) {
		c.BatchOrders = true
		c.InitialAvail = 50
		c.RestockAmount = 200
	}
	dir := filepath.Join(t.TempDir(), "wal")
	e1, ft, _ := newEngine(t, 0, nil, batch)
	if err := e1.AttachWAL(dir); err != nil {
		t.Fatal(err)
	}
	order := func() wire.BatchOrder {
		t.Helper()
		n := len(ft.bank)
		if err := e1.Tick(); err != nil {
			t.Fatal(err)
		}
		if len(ft.bank) != n+1 || ft.bank[n].Kind != wire.KindBatchOrder {
			t.Fatalf("tick sent %+v, want one batch order", ft.bank[n:])
		}
		var ord wire.BatchOrder
		if err := ord.UnmarshalBinary(ft.bank[n].Payload); err != nil {
			t.Fatal(err)
		}
		return ord
	}
	// Partial fill: 120 of the 500 asked lifts the pool to 170.
	first := order()
	if err := e1.HandleBank(batchReply(first.Nonce, 120, 0)); err != nil {
		t.Fatal(err)
	}
	// Draw the pool under the band again and leave that order
	// unanswered.
	mustRegister(t, e1, "alice", 0, 100)
	order()
	want := exportJSON(t, e1)
	if st := e1.ExportState(); st.Avail != 70 || st.NonceCounter != 2 {
		t.Fatalf("live pool %d, nonce counter %d; want 70 and 2", st.Avail, st.NonceCounter)
	}
	e1.wal.Swap(nil) // crash without a final checkpoint

	e2, _, _ := newEngine(t, 0, nil, batch)
	if err := e2.RecoverWAL(dir); err != nil {
		t.Fatal(err)
	}
	defer e2.CloseWAL()
	if got := exportJSON(t, e2); !bytes.Equal(got, want) {
		t.Fatalf("recovered state differs:\n got %s\nwant %s", got, want)
	}
}

// TestWALRecoverWithoutClose models the process-crash durability
// contract: appends are write-through, so a WAL abandoned without
// Close/fsync still replays every completed record.
func TestWALRecoverWithoutClose(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	e1, ft, clk := newEngine(t, 0, nil, nil)
	if err := e1.AttachWAL(dir); err != nil {
		t.Fatal(err)
	}
	driveWALWorkload(t, e1, ft, clk)
	want := exportJSON(t, e1)
	// Crash: detach without closing. The file handles leak for the
	// test's duration, exactly like a killed process pre-reap.
	e1.wal.Swap(nil)

	e2 := recoverInto(t, dir)
	if got := exportJSON(t, e2); !bytes.Equal(got, want) {
		t.Fatalf("post-crash recovery differs:\n got %s\nwant %s", got, want)
	}
	if err := e2.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestWALCrashMidDrain crashes the engine while the admission queue's
// drain worker is parked inside a commit and audits the recovery with
// the chaos auditor. The queue is volatile by design (admit.go):
// messages admitted but never committed have charged nobody, every
// commit acknowledged before the crash is write-through in the WAL,
// and the one in-flight commit is the loss window the auditor's
// drain-crash bounds reconcile. Conservation must hold exactly on the
// recovered ledger.
func TestWALCrashMidDrain(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	e1, ft, _ := newEngine(t, 0, nil, nil)
	if err := e1.AttachWAL(dir); err != nil {
		t.Fatal(err)
	}
	mustRegister(t, e1, "alice", 0, 20)
	mustRegister(t, e1, "bob", 0, 5)
	initial := e1.TotalEPennies()

	// Single worker, batch of 1: the queue drains strictly in order, so
	// parking the worker on bob's message freezes the drain with every
	// earlier commit acked and every later message still queued.
	started, release := parkWorkerOn(ft, "bob")
	e1.StartQueue(QueueConfig{Depth: 32, Workers: 1, Batch: 1})
	const before, after = 4, 4
	for i := 0; i < before; i++ {
		if _, err := e1.Submit(remoteMsg("alice")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e1.Submit(remoteMsg("bob")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < after; i++ {
		if _, err := e1.Submit(remoteMsg("alice")); err != nil {
			t.Fatal(err)
		}
	}
	<-started
	st := e1.QueueStats()
	if st.Committed != before {
		t.Fatalf("parked with %d commits acked, want %d", st.Committed, before)
	}

	// Crash: detach the WAL without closing, exactly like a killed
	// process (TestWALRecoverWithoutClose). Everything the worker
	// commits from here on is post-crash work that must not replay.
	e1.wal.Swap(nil)
	close(release)
	e1.StopQueue()

	e2 := recoverInto(t, dir)
	var aliceSent, recovered int64
	for _, u := range e2.ExportState().Users {
		recovered += u.Sent
		if u.Name == "alice" {
			aliceSent = u.Sent
		}
	}
	// The pre-park commits are deterministic: all of alice's first
	// burst replays, none of her second (drained only after the crash,
	// against a detached WAL).
	if aliceSent != before {
		t.Fatalf("recovered alice sent = %d, want %d", aliceSent, before)
	}
	aud := chaos.NewAuditor()
	aud.CheckDrainCrash("isp[0]", before, st.Enqueued, recovered)
	aud.CheckConservation("recovered", e2.TotalEPennies(), initial)
	if len(aud.Violations()) != 0 {
		t.Fatalf("chaos audit violations:\n%s", aud.Report())
	}
}

// TestWALCompactionMidTraffic: compaction between mutation bursts must
// not lose or double-apply anything.
func TestWALCompactionMidTraffic(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	e1, ft, clk := newEngine(t, 0, nil, nil)
	if err := e1.AttachWAL(dir); err != nil {
		t.Fatal(err)
	}
	driveWALWorkload(t, e1, ft, clk)
	if err := e1.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	// Post-compaction traffic of every idempotence class: delta
	// records (sends) and full-row puts (deposits).
	if err := e1.Deposit("carol", 9); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.SubmitSync(mail.NewMessage(addr("carol@a.example"), addr("alice@a.example"), "s3", "b3")); err != nil {
		t.Fatal(err)
	}
	want := exportJSON(t, e1)
	if err := e1.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	e2 := recoverInto(t, dir)
	if got := exportJSON(t, e2); !bytes.Equal(got, want) {
		t.Fatalf("post-compaction recovery differs:\n got %s\nwant %s", got, want)
	}
	if err := e2.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestWALCheckpoint: Checkpoint fsyncs an attached WAL, so a recovery
// sees everything up to it, and fails when no WAL is attached — there
// is no other persistence path.
func TestWALCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	e, _, _ := newEngine(t, 0, nil, nil)
	mustRegister(t, e, "alice", 10, 5)
	if err := e.Checkpoint(); err == nil {
		t.Fatal("checkpoint without a WAL succeeded")
	}
	if err := e.AttachWAL(dir); err != nil {
		t.Fatal(err)
	}
	if err := e.Deposit("alice", 3); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := exportJSON(t, e)
	if err := e.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err == nil {
		t.Fatal("checkpoint after CloseWAL succeeded")
	}
	e2 := recoverInto(t, dir)
	if got := exportJSON(t, e2); !bytes.Equal(got, want) {
		t.Fatalf("recovery after checkpoint differs:\n got %s\nwant %s", got, want)
	}
	if err := e2.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestWALAttachTwice: double attach and recover-onto-attached are
// refused; CloseWAL is idempotent.
func TestWALAttachTwice(t *testing.T) {
	dir := t.TempDir()
	e, _, _ := newEngine(t, 0, nil, nil)
	if err := e.AttachWAL(filepath.Join(dir, "w1")); err != nil {
		t.Fatal(err)
	}
	if err := e.AttachWAL(filepath.Join(dir, "w2")); err == nil {
		t.Fatal("second attach succeeded")
	}
	if err := e.RecoverWAL(filepath.Join(dir, "w1")); err == nil {
		t.Fatal("recover onto attached engine succeeded")
	}
	if err := e.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if err := e.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// benchEngine is newEngine for benchmarks: n pre-registered users and
// a pool deep enough to seed them.
func benchEngine(b *testing.B, n int) *Engine {
	b.Helper()
	ft := &fakeTransport{}
	clk := clock.NewVirtual(time.Unix(1_100_000_000, 0))
	cfg := Config{
		Index:          0,
		Domain:         testDomains[0],
		Directory:      NewDirectory(testDomains, nil),
		Clock:          clk,
		Transport:      ft,
		MinAvail:       100,
		MaxAvail:       money.EPenny(10 * n),
		InitialAvail:   money.EPenny(2 * n),
		DefaultLimit:   10,
		FreezeDuration: time.Minute,
		BankSealer:     crypto.Null{},
		OwnSealer:      crypto.Null{},
	}
	e, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := e.RegisterUser(fmt.Sprintf("user%06d", i), 100, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
	return e
}

const benchAccounts = 100_000

// benchMutate applies the fixed mutation batch both checkpoint
// benchmarks share: 64 deposits spread across the account space.
func benchMutate(b *testing.B, e *Engine, round int) {
	b.Helper()
	for j := 0; j < 64; j++ {
		name := fmt.Sprintf("user%06d", (round*64+j*1567)%benchAccounts)
		if err := e.Deposit(name, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALCheckpointJSON100k: the reference the WAL replaced —
// a whole-state JSON save re-serializes all 100k accounts no matter how
// little changed.
func BenchmarkWALCheckpointJSON100k(b *testing.B) {
	e := benchEngine(b, benchAccounts)
	path := filepath.Join(b.TempDir(), "isp.json")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchMutate(b, e, i)
		if err := persist.SaveJSON(path, e.ExportState()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALCheckpointWAL100k: the same mutation batch against the
// WAL — each deposit appends one record, and Checkpoint fsyncs.
func BenchmarkWALCheckpointWAL100k(b *testing.B) {
	e := benchEngine(b, benchAccounts)
	if err := e.AttachWAL(filepath.Join(b.TempDir(), "wal")); err != nil {
		b.Fatal(err)
	}
	defer func() {
		if err := e.CloseWAL(); err != nil {
			b.Fatal(err)
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchMutate(b, e, i)
		if err := e.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if n := e.WALErrors(); n != 0 {
		b.Fatalf("%d wal append errors", n)
	}
}

// BenchmarkWALReplay10k: cost of booting from snapshot + log.
func BenchmarkWALReplay10k(b *testing.B) {
	const n = 10_000
	dir := filepath.Join(b.TempDir(), "wal")
	e := benchEngine(b, n)
	if err := e.AttachWAL(dir); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := e.Deposit(fmt.Sprintf("user%06d", i), 1); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.CloseWAL(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ft := &fakeTransport{}
		clk := clock.NewVirtual(time.Unix(1_100_000_000, 0))
		cfg := Config{
			Index: 0, Domain: testDomains[0],
			Directory: NewDirectory(testDomains, nil),
			Clock:     clk, Transport: ft,
			MinAvail: 100, MaxAvail: money.EPenny(10 * n),
			InitialAvail: money.EPenny(2 * n), DefaultLimit: 10,
			FreezeDuration: time.Minute,
			BankSealer:     crypto.Null{}, OwnSealer: crypto.Null{},
		}
		e2, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := e2.RecoverWAL(dir); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := e2.CloseWAL(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
