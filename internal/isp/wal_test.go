package isp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
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

// walConfig shapes the engines driveWALWorkload runs on: a band
// narrow enough that a refill to its midpoint plus a user's sale lifts
// the pool over MaxAvail, and a retry window so a lost bank reply
// re-arms.
func walConfig(c *Config) {
	c.MaxAvail = 600
	c.RestockRetry = time.Minute
}

// requireRecovers is the WAL completeness check: it recovers a copy of
// the live log at dir into a fresh engine built with mutate and
// requires the recovered ledger to equal e's byte for byte. Called
// after every step of a workload, it names the step whose mutation no
// record carries, whether or not any crash would have landed there.
func requireRecovers(t *testing.T, step string, e *Engine, dir string, mutate func(*Config)) {
	t.Helper()
	cp := filepath.Join(t.TempDir(), "wal")
	if err := os.CopyFS(cp, os.DirFS(dir)); err != nil {
		t.Fatalf("after %s: copy the log: %v", step, err)
	}
	e2, _, _ := newEngine(t, 0, nil, mutate)
	if err := e2.RecoverWAL(cp); err != nil {
		t.Fatalf("after %s: recover: %v", step, err)
	}
	defer e2.CloseWAL()
	if got, want := exportJSON(t, e2), exportJSON(t, e); !bytes.Equal(got, want) {
		t.Fatalf("after %s: recovered state differs:\n got %s\nwant %s", step, got, want)
	}
}

// driveWALWorkload pushes an engine built with walConfig, logging to
// dir, through every mutation class the WAL records: registration,
// deposits/withdrawals, limit changes, local and remote sends, user
// trades, bank orders (a buy whose reply is lost, its re-armed retry
// and fill, then a sell escrowed out of the pool and its reply), a
// snapshot round (credit zeroing), end-of-day, and a
// zombie warning from both the synchronous and the queued send path.
// After every step, a copy of the log recovers to the live state.
func driveWALWorkload(t *testing.T, e *Engine, dir string, ft *fakeTransport, clk *clock.Virtual) {
	t.Helper()
	step := func(name string) {
		t.Helper()
		requireRecovers(t, name, e, dir, walConfig)
	}
	mustRegister(t, e, "alice", 100, 40)
	mustRegister(t, e, "bob", 50, 10)
	mustRegister(t, e, "carol", 80, 20)
	step("registration")
	if err := e.Deposit("alice", 30); err != nil {
		t.Fatal(err)
	}
	step("deposit")
	if err := e.Withdraw("alice", 5); err != nil {
		t.Fatal(err)
	}
	step("withdrawal")
	if err := e.SetLimit("bob", 25); err != nil {
		t.Fatal(err)
	}
	step("limit change")
	// Local send (two stripes move), paid remote send (credit delta),
	// inbound remote (balance up, credit down).
	if _, err := e.SubmitSync(mail.NewMessage(addr("alice@a.example"), addr("bob@a.example"), "s", "b")); err != nil {
		t.Fatal(err)
	}
	step("local send")
	if _, err := e.SubmitSync(mail.NewMessage(addr("alice@a.example"), addr("x@b.example"), "s", "b")); err != nil {
		t.Fatal(err)
	}
	step("remote send")
	if err := e.ReceiveRemote("b.example", mail.NewMessage(addr("x@b.example"), addr("carol@a.example"), "s", "b")); err != nil {
		t.Fatal(err)
	}
	step("remote receive")
	// User↔pool trades.
	if err := e.BuyEPennies("bob", 7); err != nil {
		t.Fatal(err)
	}
	step("user buy")
	if err := e.SellEPennies("carol", 3); err != nil {
		t.Fatal(err)
	}
	step("user sell")
	// Bank orders. Drain the pool under MinAvail and tick a buy order
	// out (burns a nonce); its reply is lost.
	mustRegister(t, e, "whale", 0, int64(e.Avail())-50)
	step("whale registration")
	lost := tickBank[wire.BatchOrder](t, e, ft, wire.KindBatchOrder)
	step("buy order")
	// After RestockRetry the order slot re-arms and a second order goes
	// out under a fresh nonce; the bank fills it (pool delta).
	clk.Advance(e.cfg.RestockRetry)
	buy := tickBank[wire.BatchOrder](t, e, ft, wire.KindBatchOrder)
	if buy.Nonce == lost.Nonce || e.Stats().RestockRetries != 1 {
		t.Fatalf("re-armed order nonce %d (lost %d), %d retries", buy.Nonce, lost.Nonce, e.Stats().RestockRetries)
	}
	step("re-armed buy order")
	if err := e.HandleBank(batchReply(buy.Nonce, buy.Buy, 0)); err != nil {
		t.Fatal(err)
	}
	step("fill")
	// The whale sells back enough to lift the pool over MaxAvail; the
	// next tick sells the excess, escrowed out of the pool at send
	// (burns a nonce and moves the pool), and the reply closes it.
	if err := e.SellEPennies("whale", 300); err != nil {
		t.Fatal(err)
	}
	step("whale sell")
	sell := tickBank[wire.BatchOrder](t, e, ft, wire.KindBatchOrder)
	if sell.Buy != 0 || sell.Sell == 0 {
		t.Fatalf("sell tick ordered %+v", sell)
	}
	step("sell order")
	if err := e.HandleBank(batchReply(sell.Nonce, 0, sell.Sell)); err != nil {
		t.Fatal(err)
	}
	step("sell reply")
	// Snapshot round: freeze, let the quiet period expire, report —
	// zeroes the credit array and advances seq in the meta segment —
	// and thaw.
	e.ForceSnapshot()
	step("freeze")
	clk.Advance(thawAfter)
	step("snapshot round")
	// Day rollover resets sent/warned stripe by stripe.
	e.EndOfDay()
	step("end of day")
	// Leave some post-reset activity in the log.
	if _, err := e.SubmitSync(mail.NewMessage(addr("bob@a.example"), addr("alice@a.example"), "s2", "b2")); err != nil {
		t.Fatal(err)
	}
	step("post-reset send")
	// A zombie warning from each path that can trip the daily limit,
	// each the last record its user gets: a synchronous send over the
	// limit (charge), then an admission check with the queue attached
	// (Submit), after the user's one admitted message has committed.
	if err := e.SetLimit("whale", 1); err != nil {
		t.Fatal(err)
	}
	step("whale limit")
	for i, want := range []error{nil, ErrLimitExceeded} {
		if _, err := e.SubmitSync(mail.NewMessage(addr("whale@a.example"), addr("alice@a.example"), fmt.Sprint("w", i), "b")); !errors.Is(err, want) {
			t.Fatalf("whale send %d: %v, want %v", i, err, want)
		}
		step(fmt.Sprint("whale send ", i))
	}
	if err := e.SetLimit("bob", 2); err != nil {
		t.Fatal(err)
	}
	step("bob limit")
	e.StartQueue(QueueConfig{Depth: 8, Workers: 1})
	defer e.StopQueue()
	for i, want := range []error{nil, ErrLimitExceeded} {
		if _, err := e.Submit(mail.NewMessage(addr("bob@a.example"), addr("alice@a.example"), fmt.Sprint("q", i), "b")); !errors.Is(err, want) {
			t.Fatalf("bob admission %d: %v, want %v", i, err, want)
		}
		e.FlushQueue()
		step(fmt.Sprint("bob admission ", i))
	}
}

// tickBank ticks e and decodes the one bank message the tick must
// send, of kind k.
func tickBank[M any, P interface {
	*M
	UnmarshalBinary([]byte) error
}](t *testing.T, e *Engine, ft *fakeTransport, k wire.Kind) M {
	t.Helper()
	n := len(ft.bank)
	if err := e.Tick(); err != nil {
		t.Fatal(err)
	}
	if len(ft.bank) != n+1 || ft.bank[n].Kind != k {
		t.Fatalf("tick sent %+v, want one %v", ft.bank[n:], k)
	}
	var m M
	if err := P(&m).UnmarshalBinary(ft.bank[n].Payload); err != nil {
		t.Fatal(err)
	}
	return m
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
	e1, ft, clk := newEngine(t, 0, nil, walConfig)
	if e1.WALAttached() {
		t.Fatal("fresh engine claims a WAL")
	}
	if err := e1.AttachWAL(dir); err != nil {
		t.Fatal(err)
	}
	if !e1.WALAttached() {
		t.Fatal("attach did not take")
	}
	driveWALWorkload(t, e1, dir, ft, clk)
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

// TestWALReplayJournalRing recovers journals that the ring bound trims:
// one user's log alone overflows the ring, another's snapshot ring is
// full before the log adds to it, and a third has a few entries. The
// users fall in different stripes, so replay also flushes queued
// entries between segments.
func TestWALReplayJournalRing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	e, _, _ := newEngine(t, 0, nil, func(c *Config) {
		c.DefaultLimit = 1 << 40
		c.InitialAvail = 1 << 21
		c.MaxAvail = 1 << 22
	})
	if err := e.AttachWAL(dir); err != nil {
		t.Fatal(err)
	}
	names := []string{"alice", "bob", "carol"}
	seen := map[int]bool{}
	for _, name := range names {
		mustRegister(t, e, name, 1000, 1000)
		seen[int(fnv1a32(name)&e.stripeMask)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("users %v share one stripe", names)
	}
	send := func(from string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			m := mail.NewMessage(addr(from+"@a.example"), addr("x@b.example"), "s", "b")
			if _, err := e.SubmitSync(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	send("alice", journalDepth+50)
	send("bob", journalDepth)
	if err := e.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	send("bob", 10)
	send("carol", 3)
	send("alice", 5)
	want := exportJSON(t, e)
	if err := e.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	e2 := recoverInto(t, dir)
	defer e2.CloseWAL()
	if got := exportJSON(t, e2); !bytes.Equal(got, want) {
		t.Fatalf("recovered state differs:\n got %s\nwant %s", got, want)
	}
	for name, n := range map[string]int{"alice": journalDepth, "bob": journalDepth, "carol": 3} {
		if entries, _ := e2.Statement(name); len(entries) != n {
			t.Errorf("%s: %d journal entries recovered, want %d", name, len(entries), n)
		}
	}
}

// TestWALBatchOrders runs bank orders under the WAL: a
// sell-side order the bank answers, a partially filled buy, and one
// order still outstanding at the crash. Each order's nonce and pool
// escrow, and each fill's pool credit, must be logged: after every
// step a copy of the log recovers to the live state. The nonces the
// bank sees must rise strictly from order to order and across the
// crash; the persisted nonce counter alone cannot show this, since an
// order that resent its predecessor's nonce would still advance it,
// and the bank would refuse that order as a replay.
func TestWALBatchOrders(t *testing.T) {
	batch := func(c *Config) { c.InitialAvail = 1500 }
	dir := filepath.Join(t.TempDir(), "wal")
	e1, ft, _ := newEngine(t, 0, nil, batch)
	if err := e1.AttachWAL(dir); err != nil {
		t.Fatal(err)
	}
	step := func(name string) {
		t.Helper()
		requireRecovers(t, name, e1, dir, batch)
	}
	var sent []uint64
	order := func(e *Engine, ft *fakeTransport) wire.BatchOrder {
		t.Helper()
		ord := tickBank[wire.BatchOrder](t, e, ft, wire.KindBatchOrder)
		if n := len(sent); n > 0 && ord.Nonce <= sent[n-1] {
			t.Fatalf("order %d carries nonce %#x, not above the previous %#x", n+1, ord.Nonce, sent[n-1])
		}
		sent = append(sent, ord.Nonce)
		return ord
	}
	// A pool over MaxAvail sells down to the midpoint 550, escrowed at
	// send; the reply burns it.
	sell := order(e1, ft)
	if sell.Buy != 0 || sell.Sell != 950 || e1.Avail() != 550 {
		t.Fatalf("sell order %+v leaves pool %d; want sell 950, pool 550", sell, e1.Avail())
	}
	step("sell order")
	if err := e1.HandleBank(batchReply(sell.Nonce, 0, 950)); err != nil {
		t.Fatal(err)
	}
	step("sell reply")
	// Partial fill: draw the pool to 50, and 120 of the 500 asked lifts
	// it to 170.
	mustRegister(t, e1, "alice", 0, 500)
	step("registration")
	buy := order(e1, ft)
	step("buy order")
	if err := e1.HandleBank(batchReply(buy.Nonce, 120, 0)); err != nil {
		t.Fatal(err)
	}
	step("partial fill")
	// Draw the pool under the band again and leave that order
	// unanswered.
	mustRegister(t, e1, "bob", 0, 100)
	step("second registration")
	order(e1, ft)
	step("outstanding order")
	want := exportJSON(t, e1)
	if st := e1.ExportState(); st.Avail != 70 || st.NonceCounter != 3 {
		t.Fatalf("live pool %d, nonce counter %d; want 70 and 3", st.Avail, st.NonceCounter)
	}
	e1.wal.Swap(nil) // crash without a final checkpoint

	e2, ft2, _ := newEngine(t, 0, nil, batch)
	if err := e2.RecoverWAL(dir); err != nil {
		t.Fatal(err)
	}
	defer e2.CloseWAL()
	if got := exportJSON(t, e2); !bytes.Equal(got, want) {
		t.Fatalf("recovered state differs:\n got %s\nwant %s", got, want)
	}
	// The pool is still under the band, so the recovered engine orders
	// again, above every nonce sent before the crash.
	order(e2, ft2)
}

// TestWALRecoverWithoutClose models the process-crash durability
// contract: appends are write-through, so a WAL abandoned without
// Close/fsync still replays every completed record.
func TestWALRecoverWithoutClose(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	e1, ft, clk := newEngine(t, 0, nil, walConfig)
	if err := e1.AttachWAL(dir); err != nil {
		t.Fatal(err)
	}
	driveWALWorkload(t, e1, dir, ft, clk)
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

	// A single worker drains strictly in order, so parking it on bob's
	// message freezes the drain with every earlier commit acked and
	// every later message still queued.
	started, release := parkWorkerOn(ft, "bob")
	e1.StartQueue(QueueConfig{Depth: 32, Workers: 1})
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
	e1, ft, clk := newEngine(t, 0, nil, walConfig)
	if err := e1.AttachWAL(dir); err != nil {
		t.Fatal(err)
	}
	driveWALWorkload(t, e1, dir, ft, clk)
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

// benchConfig is newEngine's config for benchmarks, with a pool deep
// enough to seed n users.
func benchConfig(n int) Config {
	return Config{
		Index:          0,
		Domain:         testDomains[0],
		Directory:      NewDirectory(testDomains, nil),
		Clock:          clock.NewVirtual(time.Unix(1_100_000_000, 0)),
		Transport:      &fakeTransport{},
		MinAvail:       100,
		MaxAvail:       money.EPenny(10 * n),
		InitialAvail:   money.EPenny(2 * n),
		DefaultLimit:   10,
		FreezeDuration: time.Minute,
		BankSealer:     crypto.Null{},
		OwnSealer:      crypto.Null{},
	}
}

// benchEngine is newEngine for benchmarks: n pre-registered users.
func benchEngine(b *testing.B, n int) *Engine {
	b.Helper()
	e, err := New(benchConfig(n))
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

// BenchmarkWALReplay10k: cost of booting from a large snapshot. The
// 10k users are in the JSON snapshot and the log holds only 100
// deposits, so this times snapshot loading and restore, not record
// replay; BenchmarkWALReplayRecords100k times that.
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
		e2, err := New(benchConfig(n))
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

// TestWALEntryBytes pins the send record's bytes: its timestamps are
// written in place as the length-prefixed MarshalBinary bytes they
// always were, whatever their zone and whether or not they carry a
// monotonic reading, and they decode to the same instant. A timestamp
// MarshalBinary refuses is refused as before.
func TestWALEntryBytes(t *testing.T) {
	ref := func(name string, ens ...Entry) []byte {
		var enc persist.RecordEnc
		enc.U8(ispRecSend)
		enc.Str(name)
		enc.I64(+1)
		enc.I64(0)
		for _, en := range ens {
			tb, err := en.Time.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			enc.I64(en.Seq)
			enc.U32(uint32(len(tb)))
			enc.B = append(enc.B, tb...)
			enc.U8(byte(en.Kind))
			enc.Str(en.Counterparty)
			enc.I64(en.EPennies)
			enc.I64(en.Pennies)
			enc.Str(en.MsgID)
		}
		return enc.B
	}
	at := time.Date(2005, 6, 6, 10, 30, 15, 123456789, time.UTC)
	var ens []Entry
	for i, ts := range []time.Time{
		at,
		at.In(time.FixedZone("CDT", -5*3600)),
		at.In(time.FixedZone("odd", 3600+30)), // a seconds offset: the longer encoding
		at.In(time.Local),
		{},
		time.Now(), // carries a monotonic reading, which is not logged
		time.Now().In(time.FixedZone("CEST", 2*3600)),
	} {
		en := Entry{Seq: int64(i + 1), Time: ts, Kind: EntryReceived, Counterparty: "a@x.example", EPennies: 1, MsgID: "<1.x.example>"}
		ens = append(ens, en)
		got, err := encSend("bob", +1, 0, en)
		if err != nil {
			t.Fatalf("timestamp %v: %v", ts, err)
		}
		if want := ref("bob", en); !bytes.Equal(got, want) {
			t.Errorf("timestamp %v:\n got %x\nwant %x", ts, got, want)
		}
		d := persist.DecodeRecord(got[1+4+len("bob")+16:])
		if back := walDecEntry(d); d.Err() != nil || !back.Time.Equal(ts) || back.MsgID != en.MsgID {
			t.Errorf("timestamp %v decodes to %+v, %v", ts, back, d.Err())
		}
	}
	got, err := encSend("bob", +1, 0, ens...)
	if want := ref("bob", ens...); err != nil || !bytes.Equal(got, want) {
		t.Errorf("record of %d entries: %v\n got %x\nwant %x", len(ens), err, got, want)
	}
	bad := Entry{Time: at.In(time.FixedZone("far", 1<<22))}
	if _, merr := bad.Time.MarshalBinary(); merr == nil {
		t.Fatal("MarshalBinary accepts a zone offset of 2^22 s")
	}
	if _, err := encSend("bob", +1, 0, bad); err == nil {
		t.Error("encSend accepts a timestamp MarshalBinary refuses")
	}
}
