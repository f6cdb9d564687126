package isp

import (
	"path/filepath"
	"testing"

	"zmail/internal/mail"
	"zmail/internal/persist"
)

func TestStateRoundTrip(t *testing.T) {
	e1, _, _ := newEngine(t, 0, nil, nil)
	mustRegister(t, e1, "alice", 100, 40)
	mustRegister(t, e1, "bob", 50, 10)
	// Produce ledger activity so the snapshot is nontrivial.
	if _, err := e1.SubmitSync(mail.NewMessage(addr("alice@a.example"), addr("x@b.example"), "s", "b")); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.SubmitSync(mail.NewMessage(addr("alice@a.example"), addr("bob@a.example"), "s", "b")); err != nil {
		t.Fatal(err)
	}
	if err := e1.BuyEPennies("bob", 5); err != nil {
		t.Fatal(err)
	}
	if err := e1.ReceiveRemote("b.example", mail.NewMessage(addr("x@b.example"), addr("bob@a.example"), "s", "b")); err != nil {
		t.Fatal(err)
	}

	st := e1.ExportState()

	// Restore through a real file, as the daemon does.
	path := filepath.Join(t.TempDir(), "isp.json")
	if err := persist.SaveJSON(path, st); err != nil {
		t.Fatal(err)
	}
	var loaded EngineState
	if err := persist.LoadJSON(path, &loaded); err != nil {
		t.Fatal(err)
	}

	e2, _, _ := newEngine(t, 0, nil, nil)
	if err := e2.restoreState(&loaded); err != nil {
		t.Fatal(err)
	}

	// Ledgers identical.
	if e2.Avail() != e1.Avail() {
		t.Fatalf("pool %v vs %v", e2.Avail(), e1.Avail())
	}
	for _, name := range []string{"alice", "bob"} {
		u1, _ := e1.User(name)
		u2, _ := e2.User(name)
		if u1 != u2 {
			t.Fatalf("user %s: %+v vs %+v", name, u2, u1)
		}
	}
	c1, c2 := e1.Credit(), e2.Credit()
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("credit[%d]: %d vs %d", i, c2[i], c1[i])
		}
	}
	if e2.TotalEPennies() != e1.TotalEPennies() {
		t.Fatal("restore changed total e-pennies")
	}
	// Statements survive.
	s1, _ := e1.Statement("alice")
	s2, _ := e2.Statement("alice")
	if len(s1) != len(s2) || len(s2) == 0 {
		t.Fatalf("journal %d vs %d entries", len(s2), len(s1))
	}
	// Compare fields; time.Time round-trips through JSON with a
	// different location pointer, so struct equality is too strict.
	if s1[0].Seq != s2[0].Seq || s1[0].Kind != s2[0].Kind ||
		s1[0].EPennies != s2[0].EPennies || s1[0].MsgID != s2[0].MsgID ||
		!s1[0].Time.Equal(s2[0].Time) {
		t.Fatalf("journal entry drift: %+v vs %+v", s2[0], s1[0])
	}

	// The restored engine keeps working: send and check the sequence
	// continuity of journals.
	if _, err := e2.SubmitSync(mail.NewMessage(addr("alice@a.example"), addr("bob@a.example"), "after", "b")); err != nil {
		t.Fatal(err)
	}
	s2b, _ := e2.Statement("alice")
	if s2b[len(s2b)-1].Seq <= s2[len(s2)-1].Seq {
		t.Fatal("journal sequence did not continue after restore")
	}
}

func TestRestoreValidation(t *testing.T) {
	e, _, _ := newEngine(t, 0, nil, nil)
	if err := e.restoreState(nil); err == nil {
		t.Error("nil state accepted")
	}
	good := &EngineState{Version: EngineStateVersion, Domain: "a.example", Index: 0,
		Credit: []int64{0, 0, 0}, Avail: 1}

	bad := *good
	bad.Version = 99
	if err := e.restoreState(&bad); err == nil {
		t.Error("wrong version accepted")
	}
	bad = *good
	bad.Domain = "other.example"
	if err := e.restoreState(&bad); err == nil {
		t.Error("wrong domain accepted")
	}
	bad = *good
	bad.Credit = []int64{0}
	if err := e.restoreState(&bad); err == nil {
		t.Error("wrong federation size accepted")
	}
	bad = *good
	bad.Avail = -5
	if err := e.restoreState(&bad); err == nil {
		t.Error("negative pool accepted")
	}
	bad = *good
	bad.Users = []UserState{{Name: "x", Balance: -1, Limit: 5}}
	if err := e.restoreState(&bad); err == nil {
		t.Error("negative balance accepted")
	}

	// Restoring onto a non-fresh engine refuses.
	mustRegister(t, e, "existing", 0, 1)
	if err := e.restoreState(good); err == nil {
		t.Error("restore onto populated engine accepted")
	}
}
