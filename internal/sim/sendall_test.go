package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestSendAllSerialMatchesSend: SendAll must be byte-for-byte the same
// as calling Send in a loop — same outcomes, same inbox contents —
// because spec order is the reproducibility contract for seeded
// experiments.
func TestSendAllSerialMatchesSend(t *testing.T) {
	build := func() (*World, []SendSpec) {
		w, err := NewWorld(Config{NumISPs: 3, UsersPerISP: 4, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		var specs []SendSpec
		for n := 0; n < 60; n++ {
			specs = append(specs, SendSpec{
				From:    w.UserAddr(rng.Intn(3), rng.Intn(4)),
				To:      w.UserAddr(rng.Intn(3), rng.Intn(4)),
				Subject: fmt.Sprintf("m%d", n),
				Body:    "x",
			})
		}
		return w, specs
	}

	wa, specs := build()
	got := wa.SendAll(specs)
	wa.Run()

	wb, _ := build()
	for i, s := range specs {
		out, err := wb.Send(s.From, s.To, s.Subject, s.Body)
		if got[i].Outcome != out || (got[i].Err == nil) != (err == nil) {
			t.Fatalf("spec %d: SendAll=(%v,%v) loop=(%v,%v)", i, got[i].Outcome, got[i].Err, out, err)
		}
	}
	wb.Run()

	for i := 0; i < 3; i++ {
		for u := 0; u < 4; u++ {
			addr := wa.UserAddr(i, u)
			a, b := wa.Inbox(addr), wb.Inbox(addr)
			if len(a) != len(b) {
				t.Fatalf("inbox %s: SendAll delivered %d, loop %d", addr, len(a), len(b))
			}
			for k := range a {
				if a[k].ID() != b[k].ID() || a[k].Subject() != b[k].Subject() {
					t.Fatalf("inbox %s msg %d differs: %q/%q vs %q/%q",
						addr, k, a[k].ID(), a[k].Subject(), b[k].ID(), b[k].Subject())
				}
			}
		}
	}
}
