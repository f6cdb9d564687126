package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// A traced run is separate from the metric runs. It drives the same
// federation for the same time, half with span recording off and half
// with it on (the difference is the tracing overhead), then sends a
// sample of the stream one message at a time to get the unloaded
// latency, and finally — in layers.go — times each module's public
// functions on that same sample, as child spans of those messages.
// Spans inside the daemons are a later issue; every span here is
// recorded by the benchmark around a call it makes or a callback it
// receives.

// serverCounters are the daemon-side counts a traced run reads before
// and after driving.
type serverCounters struct {
	committed, batches, buffered, walBytes int64
}

func (f *federation) counters() serverCounters {
	var s serverCounters
	for _, d := range f.isps {
		q := d.engine().QueueStats()
		s.committed += q.Committed
		s.batches += q.Batches
		s.buffered += d.engine().Stats().Buffered
		s.walBytes += dirBytes(d.walDir)
	}
	return s
}

func dirBytes(dir string) int64 {
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && !info.IsDir() {
			total += info.Size()
		}
	}
	return total
}

// tracedRun is what runTraced hands to the layer measurements.
type tracedRun struct {
	spans    []span
	firstSeq int64 // connection 0's first sequentially sent transaction
	txns     int   // how many were sent that way
}

func runTraced(rc runConfig, res *result, f *federation, g *loadgen) error {
	res.Layers = map[string]metric{}
	half := time.Duration(rc.seconds * float64(time.Second) / 2)
	before := f.counters()
	start := sinceEpoch()

	// Both halves of the timed drive, with audits firing throughout.
	var rates [2]float64
	var from, to time.Duration
	rounds, err := withAudits(f, func() error {
		for h := range rates {
			from = sinceEpoch()
			if h == 0 {
				from += rc.warm
			}
			to = from + half
			g.tracing.Store(h == 1)
			var err error
			if res.Counts, err = g.drive(driveLimits{until: to}); err != nil {
				return err
			}
			rates[h] = g.eventRate(from, to)
		}
		return nil
	})
	if err != nil {
		return err
	}
	drove := sinceEpoch() - start
	after := f.counters()
	res.AuditRounds = len(rounds)
	endToEnd(res, g, from, to, drove)

	res.Layers["untraced.deliveries_per_s"] = metric{rates[0], "1/s"}
	res.Layers["traced.deliveries_per_s"] = metric{rates[1], "1/s"}
	res.Layers["trace.overhead_share"] = metric{1 - rates[1]/rates[0], "ratio"}
	if n := after.batches - before.batches; n > 0 {
		res.Layers["mempool.batch_fill"] = metric{float64(after.committed-before.committed) / float64(n), "count"}
	}
	res.Layers["isp.buffered"] = metric{float64(after.buffered - before.buffered), "count"}
	res.Layers["persist.bytes_per_msg"] = metric{float64(after.walBytes-before.walBytes) / float64(max(res.Counts.Accepted, 1)), "B"}
	var roundMs, freezeMs []float64
	for _, r := range rounds {
		if r.end > 0 {
			roundMs = append(roundMs, ms(r.end-r.start))
			freezeMs = append(freezeMs, ms(r.freeze))
		}
	}
	res.Layers["bank.audit_round_ms"] = metric{median(roundMs), "ms"}
	res.Layers["isp.freeze_ms"] = metric{median(freezeMs), "ms"}

	// The same stream, one message at a time on one connection: what a
	// message costs when it waits for nothing.
	tr := &tracedRun{firstSeq: g.conns[0].nextSeq}
	seqFrom := sinceEpoch()
	txns := max(rc.sampleMsgs/rc.w.fanout, 1)
	res.Counts, err = g.drive(driveLimits{maxTxns: txns, until: seqFrom + 10*time.Second, conns: 1, sequential: true})
	if err != nil {
		return err
	}
	tr.txns = int(g.conns[0].nextSeq - tr.firstSeq)
	var unloaded []float64
	for _, s := range mustValues(g.conns[0].deliver) {
		if s.start >= int64(seqFrom) {
			unloaded = append(unloaded, ms(time.Duration(s.lat)))
		}
	}
	res.Layers["seq.deliver_p50_ms"] = metric{median(unloaded), "ms"}
	res.Samples["seq.deliver"] = len(unloaded)

	for _, c := range g.conns {
		spans, dropped := c.spans.values()
		if dropped > 0 {
			res.problem("%d spans did not fit the buffer", dropped)
		}
		tr.spans = append(tr.spans, spans...)
	}
	for i, r := range rounds {
		if r.end > 0 {
			tr.spans = append(tr.spans, span{Name: spanAudit, ID: -int64(i + 1), Start: int64(r.start), End: int64(r.end)})
		}
	}
	tr.spans = append(tr.spans, rootSpans(tr.spans)...)
	res.traced = tr
	return nil
}

func mustValues[T any](b *buf[T]) []T {
	v, _ := b.values()
	return v
}

// rootSpans derives each message's root span from its boundary spans:
// from the start of Client.Send to the last thing seen of the message.
func rootSpans(spans []span) []span {
	type ext struct{ start, end int64 }
	roots := map[int64]ext{}
	for _, s := range spans {
		if s.Parent != spanMsg {
			continue
		}
		e, ok := roots[s.ID]
		if !ok {
			e = ext{s.Start, s.End}
		}
		e.start, e.end = min(e.start, s.Start), max(e.end, s.End)
		roots[s.ID] = e
	}
	out := make([]span, 0, len(roots))
	for id, e := range roots {
		out = append(out, span{Name: spanMsg, ID: id, Start: e.start, End: e.end})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// layerRow is one line of the per-layer ledger.
type layerRow struct {
	Layer  string  `json:"layer"`
	Count  int     `json:"count"`
	BusyUs float64 `json:"p50_busy_us"`
	SelfUs float64 `json:"p50_self_us"` // busy minus the child spans of the same message
	Allocs float64 `json:"allocs_per_op"`
}

// ledger folds the spans of the sampled messages (and the audit
// rounds) into one row per span name; the spans of the loaded drive
// have no layer children and would only blur it. A span's self time is
// its duration minus the durations of the spans, of the same message,
// that name it as parent.
func ledger(spans []span, sampled map[int64]bool, allocs map[string]float64) []layerRow {
	type key struct {
		id   int64
		name string
	}
	children := map[key]int64{}
	for _, s := range spans {
		if s.Parent != "" {
			children[key{s.ID, s.Parent}] += s.End - s.Start
		}
	}
	busy := map[string][]float64{}
	self := map[string][]float64{}
	for _, s := range spans {
		if !sampled[s.ID] && s.Name != spanAudit {
			continue
		}
		d := s.End - s.Start
		busy[s.Name] = append(busy[s.Name], us(time.Duration(d)))
		self[s.Name] = append(self[s.Name], us(time.Duration(max(d-children[key{s.ID, s.Name}], 0))))
	}
	rows := make([]layerRow, 0, len(busy))
	for name, b := range busy {
		rows = append(rows, layerRow{Layer: name, Count: len(b), BusyUs: median(b), SelfUs: median(self[name]), Allocs: allocs[name]})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Layer < rows[j].Layer })
	return rows
}

func printLayerTable(w io.Writer, r *result) {
	fmt.Fprintf(w, "   %-16s %8s %14s %14s %10s\n", "layer", "count", "p50 busy us", "p50 self us", "allocs/op")
	for _, row := range r.LayerTable {
		fmt.Fprintf(w, "   %-16s %8d %14.3f %14.3f %10.1f\n", row.Layer, row.Count, row.BusyUs, row.SelfUs, row.Allocs)
	}
	for _, k := range sortedKeys(r.Layers) {
		fmt.Fprintf(w, "   %-30s %14.6g %s\n", k, r.Layers[k].Value, r.Layers[k].Unit)
	}
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
