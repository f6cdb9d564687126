package bank

import (
	"errors"
	"path/filepath"
	"testing"

	"zmail/internal/persist"
)

func TestBankStateRoundTrip(t *testing.T) {
	b1, _ := newBank(t, 3, nil)
	// Activity: trades, a completed audit with a flagged pair.
	_ = b1.Handle(buyEnv(0, 200, 1))
	_ = b1.Handle(sellEnv(1, 50, 2))
	_ = b1.StartSnapshot()
	_ = b1.Handle(reportEnv(0, 0, []int64{0, 9, 0}))
	_ = b1.Handle(reportEnv(1, 0, []int64{-4, 0, 0})) // mismatch → flag
	_ = b1.Handle(reportEnv(2, 0, []int64{0, 0, 0}))

	st := b1.ExportState()
	path := filepath.Join(t.TempDir(), "bank.json")
	if err := persist.SaveJSON(path, st); err != nil {
		t.Fatal(err)
	}
	var loaded BankState
	if err := persist.LoadJSON(path, &loaded); err != nil {
		t.Fatal(err)
	}

	b2, _ := newBank(t, 3, nil)
	if err := b2.restoreState(&loaded); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		a1, _ := b1.Account(i)
		a2, _ := b2.Account(i)
		if a1 != a2 {
			t.Fatalf("account[%d]: %v vs %v", i, a2, a1)
		}
	}
	if b2.Outstanding() != b1.Outstanding() {
		t.Fatalf("outstanding %d vs %d", b2.Outstanding(), b1.Outstanding())
	}
	if len(b2.Violations()) != 1 {
		t.Fatalf("violations = %v", b2.Violations())
	}
	// Replay memory survives the restart: the pre-restart nonce is
	// still burned.
	if err := b2.Handle(buyEnv(0, 200, 1)); !errors.Is(err, ErrReplay) {
		t.Fatalf("nonce forgotten across restart: %v", err)
	}
	// Sequence continuity: a new round uses the next seq, so stale
	// reports from before the restart are rejected.
	if err := b2.StartSnapshot(); err != nil {
		t.Fatal(err)
	}
	if err := b2.Handle(reportEnv(0, 0, []int64{0, 0, 0})); !errors.Is(err, ErrReplay) {
		t.Fatalf("old-seq report accepted after restart: %v", err)
	}
}

func TestBankRestoreValidation(t *testing.T) {
	b, _ := newBank(t, 2, nil)
	if err := b.restoreState(nil); err == nil {
		t.Error("nil state accepted")
	}
	good := &BankState{Version: BankStateVersion, NumISPs: 2, Accounts: []int64{5, 5}}
	bad := *good
	bad.Version = 99
	if err := b.restoreState(&bad); err == nil {
		t.Error("wrong version accepted")
	}
	bad = *good
	bad.NumISPs = 3
	if err := b.restoreState(&bad); err == nil {
		t.Error("wrong federation size accepted")
	}
	bad = *good
	bad.Accounts = []int64{5, -1}
	if err := b.restoreState(&bad); err == nil {
		t.Error("negative account accepted")
	}
	// Mid-round restore refused.
	if err := b.StartSnapshot(); err != nil {
		t.Fatal(err)
	}
	if err := b.restoreState(good); err == nil {
		t.Error("restore during a round accepted")
	}
}
