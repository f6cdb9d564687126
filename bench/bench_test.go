package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"zmail/internal/mail"
)

// smallFed is the production federation shrunk until a run takes a
// fraction of a second; the shape (2 ISPs, 2 leaf banks and a root,
// WALs, queue, batch orders, audit rounds) is unchanged.
func smallFed() fedConfig {
	cfg := production()
	cfg.UsersPerISP = 300
	cfg.Freeze = 20 * time.Millisecond
	cfg.Tick = 10 * time.Millisecond
	cfg.AuditFirst = 20 * time.Millisecond
	cfg.AuditEvery = 100 * time.Millisecond
	return cfg
}

func smallRun(t *testing.T, w workload, seed int64) runConfig {
	return runConfig{
		fed: smallFed(), w: w, seed: seed, conns: 2, setups: 1,
		maxTxns:      (150 + w.fanout - 1) / w.fanout, // 300 recipients or a few more over both connections
		recoveryMsgs: 400, recoveries: 2,
		workDir: t.TempDir(),
	}
}

func TestEveryWorkloadIsValidAndPrintsEveryMetric(t *testing.T) {
	sp, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if sp.Workloads[i].Name != w.name {
				t.Errorf("BENCHMARK.json workload %d is %q, want %q", i, sp.Workloads[i].Name, w.name)
			}
			res, err := run(smallRun(t, w, 7))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Valid || res.Counts.failed() != 0 {
				t.Errorf("valid=%v failed=%d problems=%q", res.Valid, res.Counts.failed(), res.Problems)
			}
			if res.Counts.Accepted < 300 {
				t.Errorf("accepted %d recipients, want at least 300", res.Counts.Accepted)
			}
			var out bytes.Buffer
			printRun(&out, sp, res)
			for _, m := range sp.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("metric %s: got %+v, want a positive value in %s", m.Name, got, m.Unit)
				}
				if !strings.Contains(out.String(), m.Name) {
					t.Errorf("printed run does not name %s", m.Name)
				}
			}
			out.Reset()
			if err := printResultLine(&out, sp, report{Runs: []*result{res}}, false); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestTracedRunPrintsEveryLayerMetric(t *testing.T) {
	sp, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"local_small", "list_fanout"} {
		t.Run(name, func(t *testing.T) {
			w, _ := findWorkload(name)
			rc := smallRun(t, w, 7)
			rc.maxTxns, rc.seconds, rc.warm = 0, 0.3, 50*time.Millisecond
			rc.trace, rc.sampleMsgs = true, 64
			rc.spansOut = rc.workDir + "/spans.json"
			res, err := run(rc)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Valid {
				t.Errorf("problems: %q", res.Problems)
			}
			for _, m := range sp.PerLayer {
				if got, ok := res.Layers[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("layer metric %s: got %+v (present=%v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			relays := res.Layers["core.relay_spans"].Value
			if want := map[bool]float64{false: 0, true: 2 * 64}[w.remote]; relays != want {
				t.Errorf("core.relay spans = %v, want %v", relays, want)
			}
			var out bytes.Buffer
			if err := printResultLine(&out, sp, report{Runs: []*result{res}}, true); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestSeedFixesTheChoices(t *testing.T) {
	cfg := smallFed()
	for _, w := range workloads {
		a := choiceHash(generate(w, cfg, 1, 2, 512))
		b := choiceHash(generate(w, cfg, 1, 2, 512))
		c := choiceHash(generate(w, cfg, 2, 2, 512))
		if a != b {
			t.Errorf("%s: seed 1 gave %s then %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 both gave %s", w.name, a)
		}
	}
}

// A mailbox that swallows every message must show up as lost mail in
// the failed share; it may not hang the generator or pass quietly.
func TestUndeliveredMailIsCountedLost(t *testing.T) {
	defer func(d time.Duration) { lostAfter = d }(lostAfter)
	lostAfter = 50 * time.Millisecond

	w, _ := findWorkload("remote_small")
	cfg := smallFed()
	g := newLoadgen(w, newBuilder(w, cfg, 1), generate(w, cfg, 1, 2, 512), 1024, 0)
	swallow := func(string, *mail.Message) {}
	f, err := boot(cfg, t.TempDir(), swallow, swallow)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	if err := g.dial([]string{f.smtpAddr(0), f.smtpAddr(1)}); err != nil {
		t.Fatal(err)
	}
	defer g.hangUp()
	c, err := g.drive(driveLimits{maxTxns: 100})
	if err != nil {
		t.Fatal(err)
	}
	if c.Accepted != 200 || c.Lost != 200 || c.failed() != 200 {
		t.Errorf("accepted=%d lost=%d failed=%d, want 200 each", c.Accepted, c.Lost, c.failed())
	}
	if err := f.quiesce(); err != nil {
		t.Fatal(err)
	}
	if problems := f.verify(w, c); len(problems) != 0 {
		// Lost mail is a failed share, not a broken ledger: the e-pennies
		// still moved, so the ledger checks hold.
		t.Errorf("ledger problems: %q", problems)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3.0, 1.0, 2.0], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles = %v, %v; want 1, 3", q1, q3)
	}
}
