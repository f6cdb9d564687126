package zmail_test

import (
	"strings"
	"testing"

	"zmail"
)

func TestPublicAPIMailModel(t *testing.T) {
	a, err := zmail.ParseAddress("user@dom.example")
	if err != nil {
		t.Fatal(err)
	}
	m := zmail.NewMessage(a, a, "subject", "body")
	m.SetClass(zmail.ClassList)
	decoded, err := zmail.DecodeMessage(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Class() != zmail.ClassList {
		t.Fatal("class lost through public encode/decode")
	}
}

func TestPublicAPISpec(t *testing.T) {
	s := zmail.NewSpec(zmail.SpecConfig{NumISPs: 2, UsersPerISP: 2, Seed: 1})
	if _, err := s.Run(500); err != nil {
		t.Fatal(err)
	}
	if s.DeliveredEmails == 0 {
		t.Fatal("spec made no progress")
	}
}

func TestPublicAPIExperiment(t *testing.T) {
	res, err := zmail.RunExperiment("E2", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass || !strings.Contains(res.Table.String(), "price") {
		t.Fatalf("E2 via public API: %v", res)
	}
	if len(zmail.ExperimentIDs()) != 20 {
		t.Fatal("experiment registry size")
	}
}

func TestPublicAPIFiltersAndCrypto(t *testing.T) {
	b := zmail.NewBayes()
	b.TrainSpamText("casino pills")
	b.TrainHamText("meeting notes")
	gen := zmail.NewCorpusGenerator(1)
	msg, _ := gen.Generate(zmail.CorpusSpam)
	_ = b.SpamProbability(msg)

	box, err := zmail.GenerateSealedBox(1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := box.PublicOnly().Seal([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := box.Open(sealed); err != nil || string(got) != "x" {
		t.Fatalf("public crypto roundtrip: %q %v", got, err)
	}

	src := zmail.NewNonceSource(nil)
	n1, _ := src.Next()
	n2, _ := src.Next()
	if n1 == n2 {
		t.Fatal("nonces repeated")
	}
}

func TestPublicAPISettlementAndStatements(t *testing.T) {
	w, err := zmail.NewWorld(zmail.WorldConfig{
		NumISPs: 2, UsersPerISP: 1, Settle: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One-way traffic, then an audit that settles real money.
	for i := 0; i < 5; i++ {
		if _, err := w.Send("u0@isp0.example", "u0@isp1.example", "s", "b"); err != nil {
			t.Fatal(err)
		}
	}
	w.Run()
	if err := w.SnapshotRound(); err != nil {
		t.Fatal(err)
	}
	transfers := w.Bank.LastTransfers()
	if len(transfers) != 1 || transfers[0].From != 0 || transfers[0].To != 1 || transfers[0].Amount != 5 {
		t.Fatalf("transfers = %v", transfers)
	}
	// Statements via the public API.
	entries, err := w.Engine(0).Statement("u0")
	if err != nil || len(entries) != 5 {
		t.Fatalf("statement = %d entries, %v", len(entries), err)
	}
	if entries[0].Kind != zmail.EntrySent {
		t.Fatalf("entry kind = %v", entries[0].Kind)
	}
	if !strings.Contains(w.Engine(0).FormatStatement("u0"), "sent") {
		t.Fatal("formatted statement missing entries")
	}
}
