package isp

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"zmail/internal/mail"
)

// snapshotDir reads every file of a WAL directory, keyed by name.
func snapshotDir(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(ents))
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[ent.Name()] = b
	}
	return files
}

// requireSameDir fails unless dir holds exactly the files of before.
func requireSameDir(t *testing.T, dir string, before map[string][]byte) {
	t.Helper()
	after := snapshotDir(t, dir)
	if len(after) != len(before) {
		t.Fatalf("failed recovery left %d files, want %d", len(after), len(before))
	}
	for name, b := range before {
		if !bytes.Equal(after[name], b) {
			t.Fatalf("failed recovery changed %s", name)
		}
	}
}

func withStripes(n int) func(*Config) {
	return func(cfg *Config) { cfg.Stripes = n }
}

// TestWALRecoverStripeMismatch: a WAL written with one stripe count
// and recovered with another is refused, whichever way the count
// moved, and its files are left byte for byte as they were. Recovering
// fewer stripes would drop the meta segment's credit; more would read
// the meta segment as a stripe.
func TestWALRecoverStripeMismatch(t *testing.T) {
	for _, tc := range []struct{ from, to int }{{16, 8}, {8, 16}} {
		t.Run(fmt.Sprintf("%dto%d", tc.from, tc.to), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "wal")
			e1, _, _ := newEngine(t, 0, nil, withStripes(tc.from))
			if err := e1.AttachWAL(dir); err != nil {
				t.Fatal(err)
			}
			mustRegister(t, e1, "alice", 100, 40)
			if _, err := e1.SubmitSync(mail.NewMessage(addr("alice@a.example"), addr("x@b.example"), "s", "b")); err != nil {
				t.Fatal(err)
			}
			if got := e1.Credit(); got[1] != 1 {
				t.Fatalf("credit after a paid remote send = %v, want [0 1 0]", got)
			}
			if err := e1.CloseWAL(); err != nil {
				t.Fatal(err)
			}
			before := snapshotDir(t, dir)
			e2, _, _ := newEngine(t, 0, nil, withStripes(tc.to))
			if err := e2.RecoverWAL(dir); err == nil {
				t.Fatalf("recovered a %d-stripe WAL with %d stripes: credit %v", tc.from, tc.to, e2.Credit())
			}
			requireSameDir(t, dir, before)
			// The right stripe count still recovers it.
			e3, _, _ := newEngine(t, 0, nil, withStripes(tc.from))
			if err := e3.RecoverWAL(dir); err != nil {
				t.Fatal(err)
			}
			if got := e3.Credit(); got[1] != 1 {
				t.Fatalf("credit after recovery = %v, want [0 1 0]", got)
			}
			if err := e3.CloseWAL(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWALRecoverMisfiledRecord: a user record in a segment other than
// its user's stripe, or a stripe record in the meta segment, fails the
// replay.
func TestWALRecoverMisfiledRecord(t *testing.T) {
	for _, tc := range []struct {
		name string
		seg  func(e *Engine, own int) int
	}{
		{"send in another stripe", func(e *Engine, own int) int { return (own + 1) % e.Stripes() }},
		{"send in the meta segment", func(e *Engine, own int) int { return e.metaSeg() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "wal")
			e1, _, _ := newEngine(t, 0, nil, nil)
			if err := e1.AttachWAL(dir); err != nil {
				t.Fatal(err)
			}
			mustRegister(t, e1, "alice", 100, 40)
			own := int(fnv1a32("alice") & e1.stripeMask)
			e1.walSend(tc.seg(e1, own), "alice", 1, 0, Entry{Seq: 99, Kind: EntryReceived, Counterparty: "bob", EPennies: 1})
			if err := e1.CloseWAL(); err != nil {
				t.Fatal(err)
			}
			e2, _, _ := newEngine(t, 0, nil, nil)
			if err := e2.RecoverWAL(dir); err == nil {
				t.Fatal("recovered a WAL holding a misfiled send record")
			}
		})
	}
}

// BenchmarkWALReplayRecords100k times record replay rather than
// snapshot loading: 2,000 users registered after the WAL is attached,
// then 50,000 local sends, so the log holds about 100,000 send records
// (the sender's and the recipient's, each with its journal entry) past
// an empty snapshot. It reports the engine's recovery cost per record.
func BenchmarkWALReplayRecords100k(b *testing.B) {
	const users, sends = 2_000, 50_000
	dir := filepath.Join(b.TempDir(), "wal")
	cfg := benchConfig(users)
	cfg.InitialAvail, cfg.MaxAvail = 200*users, 1000*users
	e, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.AttachWAL(dir); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < users; i++ {
		if err := e.RegisterUser(fmt.Sprintf("user%06d", i), 100, 100, sends); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < sends; i++ {
		from := fmt.Sprintf("user%06d@%s", i%users, testDomains[0])
		to := fmt.Sprintf("user%06d@%s", (i*7+1)%users, testDomains[0])
		if _, err := e.SubmitSync(mail.NewMessage(addr(from), addr(to), "s", "b")); err != nil {
			b.Fatal(err)
		}
	}
	records := int(e.wal.Load().LSN())
	if err := e.CloseWAL(); err != nil {
		b.Fatal(err)
	}
	var mallocs uint64
	var ms runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e2, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		b.StartTimer()
		if err := e2.RecoverWAL(dir); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		if err := e2.CloseWAL(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	n := float64(b.N) * float64(records)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/record")
	b.ReportMetric(float64(mallocs)/n, "allocs/record")
}
