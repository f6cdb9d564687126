package bank

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"
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

// driveBankWorkload pushes a bank through every durable mutation
// class: accepted and denied buys, a sell, a rejected sell (nonce-only
// record), a deposit, a verified audit round with a violation, and an
// aborted round.
func driveBankWorkload(t *testing.T, b *Bank) {
	t.Helper()
	if err := b.Handle(buyEnv(0, 200, 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.Handle(buyEnv(1, 5000, 2)); err != nil { // denied: broke
		t.Fatal(err)
	}
	if err := b.Handle(sellEnv(0, 50, 3)); err != nil {
		t.Fatal(err)
	}
	if err := b.Handle(sellEnv(1, -7, 4)); err == nil { // rejected, nonce retired
		t.Fatal("negative sell accepted")
	}
	if err := b.Deposit(1, 25); err != nil {
		t.Fatal(err)
	}
	if err := b.Handle(batchEnv(0, 100, 40, 5)); err != nil { // coalesced mint+burn
		t.Fatal(err)
	}
	if err := b.Handle(batchEnv(1, 5000, 0, 6)); err != nil { // partial fill
		t.Fatal(err)
	}
	if err := b.Handle(batchEnv(0, 0, 0, 7)); err == nil { // rejected, nonce retired
		t.Fatal("empty batch order accepted")
	}
	// Round 1 verifies with a violation: isp0 claims +3 against isp1,
	// isp1 claims only -2 back.
	if err := b.StartSnapshot(); err != nil {
		t.Fatal(err)
	}
	if err := b.Handle(reportEnv(0, 0, []int64{0, -2})); err != nil {
		t.Fatal(err)
	}
	if err := b.Handle(reportEnv(1, 0, []int64{3, 0})); err != nil {
		t.Fatal(err)
	}
	if !b.RoundComplete() {
		t.Fatal("round did not verify")
	}
	if len(b.Violations()) == 0 {
		t.Fatal("expected a flagged pair")
	}
	// Round 2 aborts (seq retires without a verify).
	if err := b.StartSnapshot(); err != nil {
		t.Fatal(err)
	}
	if err := b.AbortRound(); err != nil {
		t.Fatal(err)
	}
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
	driveBankWorkload(t, b1)
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
	driveBankWorkload(t, b1)
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
