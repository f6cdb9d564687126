package bank

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"zmail/internal/persist"
	"zmail/internal/wire"
)

// bankJSON is the equivalence oracle: sorted, versioned snapshots of
// the same ledger marshal identically.
func bankJSON(t testing.TB, b *Bank) []byte {
	t.Helper()
	j, err := json.Marshal(b.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// requireBankRecovers is the WAL completeness check: it recovers a copy
// of the live log at dir into a fresh two-ISP bank and requires the
// recovered ledger to equal b's byte for byte. Called after every step
// of a workload, it names the step whose mutation no record carries,
// whether or not any crash would have landed there.
func requireBankRecovers(t *testing.T, step string, b *Bank, dir string) {
	t.Helper()
	cp := filepath.Join(t.TempDir(), "wal")
	if err := os.CopyFS(cp, os.DirFS(dir)); err != nil {
		t.Fatalf("after %s: copy the log: %v", step, err)
	}
	b2, _ := newBank(t, 2, nil)
	if err := b2.RecoverWAL(cp); err != nil {
		t.Fatalf("after %s: recover: %v", step, err)
	}
	defer b2.CloseWAL()
	if got, want := bankJSON(t, b2), bankJSON(t, b); !bytes.Equal(got, want) {
		t.Fatalf("after %s: recovered state differs:\n got %s\nwant %s", step, got, want)
	}
}

// driveBankWorkload pushes a two-ISP bank, logging to dir, through
// every durable mutation class: a buy, a buy that empties an account,
// a denied buy, a sell, a deposit, a two-sided order, a partial fill, a
// rejected order (nonce-only record), a verified audit round with a
// violation, and an aborted round. After every step, a copy of the log
// recovers to the live state.
func driveBankWorkload(t *testing.T, b *Bank, dir string) {
	t.Helper()
	step := func(name string) {
		t.Helper()
		requireBankRecovers(t, name, b, dir)
	}
	order := func(name string, env *wire.Envelope) {
		t.Helper()
		if err := b.Handle(env); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		step(name)
	}
	order("buy", buyEnv(0, 200, 1))
	order("draining buy", buyEnv(1, 1000, 2))
	order("denied buy", buyEnv(1, 10, 3)) // broke: fills 0
	order("sell", sellEnv(0, 50, 4))
	if err := b.Deposit(1, 25); err != nil {
		t.Fatal(err)
	}
	step("deposit")
	order("batch order", batchEnv(0, 100, 40, 5)) // coalesced mint+burn
	order("partial fill", batchEnv(1, 5000, 0, 6))
	if err := b.Handle(batchEnv(0, 0, 0, 7)); err == nil { // rejected, nonce retired
		t.Fatal("empty batch order accepted")
	}
	step("rejected batch order")
	// Round 1 verifies with a violation: isp0 claims +3 against isp1,
	// isp1 claims only -2 back.
	if err := b.StartSnapshot(); err != nil {
		t.Fatal(err)
	}
	step("round 1 start")
	if err := b.Handle(reportEnv(0, 0, []int64{0, -2})); err != nil {
		t.Fatal(err)
	}
	step("first report")
	if err := b.Handle(reportEnv(1, 0, []int64{3, 0})); err != nil {
		t.Fatal(err)
	}
	if !b.RoundComplete() {
		t.Fatal("round did not verify")
	}
	if len(b.Violations()) == 0 {
		t.Fatal("expected a flagged pair")
	}
	step("verified round")
	// Round 2 aborts (seq retires without a verify).
	if err := b.StartSnapshot(); err != nil {
		t.Fatal(err)
	}
	step("round 2 start")
	if err := b.AbortRound(); err != nil {
		t.Fatal(err)
	}
	step("aborted round")
}

// recoverBank replays the WAL at dir into a fresh two-ISP bank.
func recoverBank(t *testing.T, dir string) *Bank {
	t.Helper()
	b2, _ := newBank(t, 2, nil)
	if err := b2.RecoverWAL(dir); err != nil {
		t.Fatal(err)
	}
	return b2
}

// TestWALBankRoundTrip: every mutation class survives close + replay
// byte for byte.
func TestWALBankRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	b1, _ := newBank(t, 2, nil)
	if err := b1.AttachWAL(dir); err != nil {
		t.Fatal(err)
	}
	driveBankWorkload(t, b1, dir)
	want := bankJSON(t, b1)
	if n := b1.WALErrors(); n != 0 {
		t.Fatalf("%d wal append errors", n)
	}
	if err := b1.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	b2 := recoverBank(t, dir)
	if got := bankJSON(t, b2); !bytes.Equal(got, want) {
		t.Fatalf("recovered state differs:\n got %s\nwant %s", got, want)
	}
	// Replay protection survived: nonce 1 is still burned.
	if err := b2.Handle(buyEnv(0, 10, 1)); !errors.Is(err, ErrReplay) {
		t.Fatalf("replayed nonce after recovery: %v", err)
	}
	// The recovered bank keeps logging; a second recovery sees new
	// mutations.
	if err := b2.Deposit(0, 5); err != nil {
		t.Fatal(err)
	}
	want2 := bankJSON(t, b2)
	if err := b2.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	b3 := recoverBank(t, dir)
	if got := bankJSON(t, b3); !bytes.Equal(got, want2) {
		t.Fatalf("second recovery differs:\n got %s\nwant %s", got, want2)
	}
	if err := b3.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestWALLegacySplitRecordsReplay: a log written while the split
// buy/sell exchange still ran holds bankRecBuy and bankRecSell records.
// Nothing writes them now, but such a log is input from outside and
// must still recover: an accepted buy mints, a denied one only retires
// its nonce, and a sell burns.
func TestWALLegacySplitRecordsReplay(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	b1, _ := newBank(t, 2, nil)
	if err := b1.AttachWAL(dir); err != nil {
		t.Fatal(err)
	}
	legacy := func(tag byte, nonce uint64, isp int, value int64, accepted ...bool) {
		var enc persist.RecordEnc
		enc.U8(tag)
		enc.U64(nonce)
		enc.U32(uint32(isp))
		enc.I64(value)
		for _, a := range accepted {
			enc.Flag(a)
		}
		b1.mu.Lock()
		b1.walAppend(enc.B)
		b1.mu.Unlock()
	}
	legacy(bankRecBuy, 11, 0, 300, true)   // accepted: mint 300
	legacy(bankRecBuy, 12, 1, 5000, false) // denied: nonce only
	legacy(bankRecSell, 13, 1, 40)         // burn 40
	if n := b1.WALErrors(); n != 0 {
		t.Fatalf("%d wal append errors", n)
	}
	if err := b1.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	b2 := recoverBank(t, dir)
	defer b2.CloseWAL()
	st := b2.ExportState()
	if !slices.Equal(st.Accounts, []int64{700, 1040}) || st.Minted != 300 || st.Burned != 40 {
		t.Fatalf("recovered accounts %v, minted %d, burned %d; want [700 1040], 300, 40",
			st.Accounts, st.Minted, st.Burned)
	}
	if !slices.Equal(st.Nonces, []uint64{11, 12, 13}) {
		t.Fatalf("retired nonces = %v, want [11 12 13]", st.Nonces)
	}
	for _, n := range st.Nonces {
		if err := b2.Handle(buyEnv(0, 10, n)); !errors.Is(err, ErrReplay) {
			t.Fatalf("nonce %d reusable after recovery: %v", n, err)
		}
	}
}

// TestWALBankSettlementReplay: a crash after a settled audit round
// must replay the real-money transfers, not just the seq advance —
// otherwise recovery silently un-pays every settled ISP.
func TestWALBankSettlementReplay(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	b1, _ := newSettlingBank(t, 2, 1000)
	if err := b1.AttachWAL(dir); err != nil {
		t.Fatal(err)
	}
	if err := b1.StartSnapshot(); err != nil {
		t.Fatal(err)
	}
	// isp0 net-sent 5 to isp1 → isp0 pays isp1 five pennies.
	if err := b1.Handle(reportEnv(0, 0, []int64{0, 5})); err != nil {
		t.Fatal(err)
	}
	if err := b1.Handle(reportEnv(1, 0, []int64{-5, 0})); err != nil {
		t.Fatal(err)
	}
	if !b1.RoundComplete() {
		t.Fatal("round incomplete")
	}
	a0, _ := b1.Account(0)
	a1, _ := b1.Account(1)
	if a0 != 995 || a1 != 1005 {
		t.Fatalf("settled accounts = %v, %v", a0, a1)
	}
	want := bankJSON(t, b1)
	if n := b1.WALErrors(); n != 0 {
		t.Fatalf("%d wal append errors", n)
	}
	if err := b1.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	b2, _ := newSettlingBank(t, 2, 1000)
	if err := b2.RecoverWAL(dir); err != nil {
		t.Fatal(err)
	}
	if got := bankJSON(t, b2); !bytes.Equal(got, want) {
		t.Fatalf("recovered state differs:\n got %s\nwant %s", got, want)
	}
	r0, _ := b2.Account(0)
	r1, _ := b2.Account(1)
	if r0 != a0 || r1 != a1 {
		t.Fatalf("recovered accounts = %v, %v; want %v, %v", r0, r1, a0, a1)
	}
	if err := b2.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestWALBankCompaction: compaction mid-traffic loses nothing.
func TestWALBankCompaction(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	b1, _ := newBank(t, 2, nil)
	if err := b1.AttachWAL(dir); err != nil {
		t.Fatal(err)
	}
	driveBankWorkload(t, b1, dir)
	if err := b1.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	if err := b1.Handle(buyEnv(1, 30, 9)); err != nil {
		t.Fatal(err)
	}
	want := bankJSON(t, b1)
	if err := b1.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	b2 := recoverBank(t, dir)
	if got := bankJSON(t, b2); !bytes.Equal(got, want) {
		t.Fatalf("post-compaction recovery differs:\n got %s\nwant %s", got, want)
	}
	if err := b2.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestWALBankCheckpoint: Checkpoint fsyncs an attached WAL, so a
// recovery sees everything up to it, and fails when no WAL is attached.
// Attach and close are guarded the same way: a second attach is
// refused, a second close is a no-op.
func TestWALBankCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	b, _ := newBank(t, 2, nil)
	if err := b.Checkpoint(); err == nil {
		t.Fatal("checkpoint without a WAL succeeded")
	}
	if err := b.AttachWAL(dir); err != nil {
		t.Fatal(err)
	}
	if err := b.AttachWAL(filepath.Join(t.TempDir(), "w2")); err == nil {
		t.Fatal("second attach succeeded")
	}
	if err := b.Deposit(1, 25); err != nil {
		t.Fatal(err)
	}
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := bankJSON(t, b)
	if err := b.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if err := b.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if err := b.Checkpoint(); err == nil {
		t.Fatal("checkpoint after CloseWAL succeeded")
	}
	b2 := recoverBank(t, dir)
	if got := bankJSON(t, b2); !bytes.Equal(got, want) {
		t.Fatalf("recovery after checkpoint differs:\n got %s\nwant %s", got, want)
	}
	if err := b2.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}
