package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runConfig is one benchmark run. The command line fixes everything
// but workload, seed, seconds and trace; the smoke test shrinks the
// rest.
type runConfig struct {
	fed     fedConfig
	w       workload
	seed    int64
	seconds float64
	warm    time.Duration // driven before the measurement interval opens
	maxTxns int           // per connection; replaces the deadline when set
	conns   int           // client goroutines
	setups  int           // set-ups timed; the run uses the last
	// recoveryMsgs sizes the fixed recovery log, recoveries is how often
	// it is recovered.
	recoveryMsgs, recoveries int
	trace                    bool
	sampleMsgs               int    // traced run: messages given layer spans
	spansOut                 string // traced run: where the spans are written
	workDir                  string // parent of the run's temporary directory
}

// result is everything one run measured.
type result struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	ChoiceHash  string            `json:"choice_hash"`
	Valid       bool              `json:"valid"`
	Problems    []string          `json:"problems,omitempty"`
	Counts      counts            `json:"counts"`
	FailedShare float64           `json:"failed_share"`
	AuditRounds int               `json:"audit_rounds"`
	Samples     map[string]int    `json:"samples"`
	Metrics     map[string]metric `json:"metrics"`            // end to end, bounded in BENCHMARK.json
	Reported    map[string]metric `json:"reported,omitempty"` // end to end, too noisy to bound
	Layers      map[string]metric `json:"layers,omitempty"`   // traced run only
	LayerTable  []layerRow        `json:"layer_table,omitempty"`

	traced *tracedRun
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// bootOnce is one timed set-up: boot the federation (WALs attached,
// every user registered) and dial the client sessions.
func bootOnce(rc runConfig, g *loadgen, dir string) (*federation, time.Duration, error) {
	start := time.Now()
	f, err := boot(rc.fed, dir, g.onDeliver, g.onAck)
	if err != nil {
		return nil, 0, err
	}
	addrs := make([]string, rc.fed.ISPs)
	for i := range addrs {
		addrs[i] = f.smtpAddr(i)
	}
	if err := g.dial(addrs); err != nil {
		_ = f.close()
		return nil, 0, err
	}
	return f, time.Since(start), nil
}

// run executes one benchmark run end to end.
func run(rc runConfig) (res *result, err error) {
	dir, err := os.MkdirTemp(rc.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Inputs first: nothing below reads the seed again.
	ch := generate(rc.w, rc.fed, rc.seed, rc.conns, choicesPerConn)
	b := newBuilder(rc.w, rc.fed, rc.seed)
	res = &result{
		Workload: rc.w.name, Seed: rc.seed, Seconds: rc.seconds, ChoiceHash: choiceHash(ch),
		Samples: map[string]int{}, Metrics: map[string]metric{}, Reported: map[string]metric{},
	}
	// Room for 60k events a second per connection, several times what
	// the seed commit reaches; overflow is reported, not fatal.
	samples := int((rc.warm.Seconds() + rc.seconds + 1) * 60_000)
	if rc.maxTxns > 0 {
		samples = rc.maxTxns * rc.w.fanout * 4
	}
	spanCap := 0
	if rc.trace {
		spanCap = samples * 2
	}
	g := newLoadgen(rc.w, b, ch, samples, spanCap)

	var f *federation
	var setups []time.Duration
	for i := 0; i < rc.setups; i++ {
		fedDir := filepath.Join(dir, fmt.Sprintf("fed%d", i))
		var took time.Duration
		if f, took, err = bootOnce(rc, g, fedDir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, took)
		if i < rc.setups-1 {
			g.hangUp()
			if err := f.close(); err != nil {
				return nil, fmt.Errorf("close after set-up: %w", err)
			}
			if err := os.RemoveAll(fedDir); err != nil {
				return nil, err
			}
		}
	}
	shutDown := func() error {
		g.hangUp()
		return f.close()
	}
	defer func() { _ = shutDown() }() // error paths; closing twice is harmless
	res.Metrics["setup_s"] = metric{medianDuration(setups).Seconds(), "s"}

	if rc.trace {
		err = runTraced(rc, res, f, g)
	} else {
		err = runTimed(rc, res, f, g)
	}
	if err != nil {
		return nil, err
	}

	// The correctness gate, on the federation at rest.
	if qerr := f.quiesce(); qerr != nil {
		res.problem("%v", qerr)
	}
	res.Problems = append(res.Problems, f.verify(rc.w, res.Counts)...)
	res.Reported["audit_flagged_pairs"] = metric{float64(len(f.flagged())), "count"}
	live, rerr := f.restartISP(0)
	if rerr != nil {
		res.problem("%v", rerr)
	}
	res.Reported["recover_live_s"] = metric{live.Seconds(), "s"}
	// Everything below runs with no daemon alive beside it.
	if err := shutDown(); err != nil {
		return nil, fmt.Errorf("close federation: %w", err)
	}

	if err := measureRecovery(rc, res, b, ch[0], filepath.Join(dir, "recovery")); err != nil {
		return nil, err
	}
	if rc.trace {
		if err := measureLayers(rc, res, b, ch[0], res.traced, filepath.Join(dir, "layers")); err != nil {
			return nil, err
		}
		if err := writeSpans(rc.spansOut, res.traced.spans); err != nil {
			return nil, err
		}
	}
	res.FailedShare = float64(res.Counts.failed()) / float64(max(res.Counts.Attempted, 1))
	res.Valid = len(res.Problems) == 0
	return res, nil
}

// withAudits runs fn while audit rounds fire on the configured schedule
// and returns the rounds it saw.
func withAudits(f *federation, fn func() error) ([]auditRound, error) {
	stop := make(chan struct{})
	done := make(chan []auditRound)
	go func() { done <- f.runAudits(stop, f.cfg.AuditFirst, f.cfg.AuditEvery) }()
	err := fn()
	close(stop)
	return <-done, err
}

// runTimed is the untraced measurement: warm up, then drive for
// rc.seconds with every connection.
func runTimed(rc runConfig, res *result, f *federation, g *loadgen) error {
	start := sinceEpoch()
	from := start + rc.warm
	to := from + time.Duration(rc.seconds*float64(time.Second))
	lim := driveLimits{until: to}
	if rc.maxTxns > 0 {
		lim = driveLimits{maxTxns: rc.maxTxns}
		to = math.MaxInt64
	}
	var sent time.Duration
	rounds, err := withAudits(f, func() (err error) {
		res.Counts, err = g.drive(lim)
		sent = sinceEpoch()
		return err
	})
	if err != nil {
		return err
	}
	res.AuditRounds = len(rounds)
	endToEnd(res, g, from, min(to, sent), sent-start)
	return nil
}

// endToEnd fills in the client-visible metrics from the samples taken
// in [from, to); drove is how long the generator ran in all.
func endToEnd(res *result, g *loadgen, from, to, drove time.Duration) {
	res.Metrics["deliveries_per_s"] = metric{g.eventRate(from, to), "1/s"}
	res.Reported["mb_per_s"] = metric{float64(res.Counts.Bytes) / 1e6 / drove.Seconds(), "MB/s"}

	// percentiles gathers one boundary's latencies, in milliseconds, of
	// the messages sent in [from, to).
	percentiles := func(name string, pick func(*conn) *buf[sample]) func(q float64) metric {
		var lat []float64
		for _, c := range g.conns {
			v, dropped := pick(c).values()
			if dropped > 0 {
				res.problem("%s: %d samples did not fit the buffer", name, dropped)
			}
			for _, s := range v {
				if s.start >= int64(from) && s.start < int64(to) {
					lat = append(lat, ms(time.Duration(s.lat)))
				}
			}
		}
		sort.Float64s(lat)
		res.Samples[name] = len(lat)
		return func(q float64) metric { return metric{percentile(lat, q), "ms"} }
	}
	submit := percentiles("submit", func(c *conn) *buf[sample] { return c.submit })
	res.Metrics["submit_p50_ms"] = submit(50)
	res.Reported["submit_p99_ms"] = submit(99)
	deliver := percentiles("deliver", func(c *conn) *buf[sample] { return c.deliver })
	res.Metrics["deliver_p50_ms"] = deliver(50)
	res.Metrics["deliver_p90_ms"] = deliver(90)
	res.Reported["deliver_p99_ms"] = deliver(99)
	res.Reported["deliver_max_ms"] = deliver(100)
	if g.w.list {
		ack := percentiles("ack", func(c *conn) *buf[sample] { return c.ack })
		res.Reported["ack_p50_ms"] = ack(50)
		res.Reported["ack_p90_ms"] = ack(90)
	}
}

// measureRecovery builds the fixed recovery log and times
// Engine.RecoverWAL on it.
func measureRecovery(rc runConfig, res *result, b *builder, ch *choices, dir string) error {
	log, err := buildRecoveryLog(rc.fed, b, ch, rc.recoveryMsgs, dir)
	if err != nil {
		return err
	}
	defer log.remove()
	raw, err := log.replayRaw(rc.fed)
	if err != nil {
		return fmt.Errorf("recovery log replay: %w", err)
	}
	var took []time.Duration
	for i := 0; i < rc.recoveries; i++ {
		d, err := log.recover(rc.fed)
		if err != nil {
			return fmt.Errorf("recovery %d: %w", i, err)
		}
		took = append(took, d)
	}
	med := medianDuration(took)
	res.Metrics["recover_s"] = metric{med.Seconds(), "s"}
	res.Samples["recover"] = len(took)
	res.Samples["recover_records"] = log.records
	if rc.trace && log.records > 0 {
		res.Layers["persist.replay_us_per_record"] = metric{us(med) / float64(log.records), "us"}
		res.Layers["persist.read_us_per_record"] = metric{us(raw) / float64(log.records), "us"}
	}
	return nil
}

// eventRate is the deliveries and acks per second that landed in
// [from, to).
func (g *loadgen) eventRate(from, to time.Duration) float64 {
	n := 0
	for _, c := range g.conns {
		for _, b := range []*buf[sample]{c.deliver, c.ack} {
			for _, s := range mustValues(b) {
				if at := s.start + s.lat; at >= int64(from) && at < int64(to) {
					n++
				}
			}
		}
	}
	return float64(n) / (to - from).Seconds()
}
