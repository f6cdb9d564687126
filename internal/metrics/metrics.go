// Package metrics provides lightweight counters, gauges and histograms
// for the Zmail daemons and simulation harness, plus plain-text table
// rendering used by the experiment drivers to print their report rows.
//
// Metrics live in a Registry, keyed by name plus optional label pairs
// ("submit_total", `submit_total{isp="isp0.example"}`). Components that
// own their measurement state implement Collector and register
// themselves; Registry.Gather invokes every collector so a scrape sees
// fresh values without any background push loop. WriteProm renders the
// whole registry in the Prometheus text exposition format for the
// daemons' /metrics endpoint.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a named collection of metrics. The zero value is not
// usable; call NewRegistry. Lookups take only a read lock, so metric
// access from many goroutines does not serialize the instrumented hot
// paths; callers on a critical path should still hold on to the
// returned Counter/Gauge rather than re-resolving the name per event.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	latencies  map[string]*LatencyHist
	collectors []Collector
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		latencies:  make(map[string]*LatencyHist),
	}
}

// Collector is implemented by components that own their own measurement
// state (engines, the bank, the simulator world). Collect is called at
// scrape time — Registry.Gather — and should write current values into
// the registry; nothing pushes between scrapes.
type Collector interface {
	Collect(r *Registry)
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func(r *Registry)

// Collect calls f(r).
func (f CollectorFunc) Collect(r *Registry) { f(r) }

// Register adds a collector to be invoked on every Gather. Collectors
// run in registration order.
func (r *Registry) Register(c Collector) {
	r.mu.Lock()
	r.collectors = append(r.collectors, c)
	r.mu.Unlock()
}

// Gather invokes every registered collector, refreshing the registry's
// values. Call before Snapshot or WriteProm when collectors are in use.
func (r *Registry) Gather() {
	r.mu.RLock()
	cs := append([]Collector(nil), r.collectors...)
	r.mu.RUnlock()
	for _, c := range cs {
		c.Collect(r)
	}
}

// Key renders the storage key for a metric name plus label pairs:
// name alone with no labels, otherwise name{k1="v1",k2="v2"} with the
// pairs sorted by key so label order at the call site never mints a
// second series. labels alternate key, value; a trailing odd key gets
// an empty value. Values are escaped the way the Prometheus text format
// requires, so the stored key is exposition-ready as-is.
func Key(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, (len(labels)+1)/2)
	for i := 0; i < len(labels); i += 2 {
		p := kv{k: labels[i]}
		if i+1 < len(labels) {
			p.v = escapeLabelValue(labels[i+1])
		}
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(p.v)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabelValue(v string) string { return labelEscaper.Replace(v) }

// Counter returns (creating if needed) the counter with the given name
// and label pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	key := Key(name, labels...)
	r.mu.RLock()
	c, ok := r.counters[key]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[key]; ok {
		return c
	}
	c = &Counter{}
	r.counters[key] = c
	return c
}

// Gauge returns (creating if needed) the gauge with the given name and
// label pairs.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	key := Key(name, labels...)
	r.mu.RLock()
	g, ok := r.gauges[key]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[key]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[key] = g
	return g
}

// Histogram returns (creating if needed) the histogram with the given
// name and label pairs.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	key := Key(name, labels...)
	r.mu.RLock()
	h, ok := r.histograms[key]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[key]; ok {
		return h
	}
	h = &Histogram{}
	r.histograms[key] = h
	return h
}

// Latency returns (creating if needed) the latency histogram with the
// given name and label pairs.
func (r *Registry) Latency(name string, labels ...string) *LatencyHist {
	key := Key(name, labels...)
	r.mu.RLock()
	h, ok := r.latencies[key]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.latencies[key]; ok {
		return h
	}
	h = NewLatencyHist()
	r.latencies[key] = h
	return h
}

// SetLatency registers an externally owned latency histogram under the
// given name and labels. Engines observe into histograms they own on
// the hot path; their Collect registers the same pointer here, so
// repeated Gathers re-register rather than double-count.
func (r *Registry) SetLatency(name string, h *LatencyHist, labels ...string) {
	key := Key(name, labels...)
	r.mu.Lock()
	r.latencies[key] = h
	r.mu.Unlock()
}

// sortedKeys returns a map's keys in sorted order, so the renderers can
// iterate deterministically (TestWritePromGolden pins the order).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Snapshot returns a sorted, human-readable dump of every metric.
func (r *Registry) Snapshot() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var lines []string
	for _, name := range sortedKeys(r.counters) {
		lines = append(lines, fmt.Sprintf("%s = %d", name, r.counters[name].Value()))
	}
	for _, name := range sortedKeys(r.gauges) {
		lines = append(lines, fmt.Sprintf("%s = %g", name, r.gauges[name].Value()))
	}
	for _, name := range sortedKeys(r.histograms) {
		lines = append(lines, fmt.Sprintf("%s = %s", name, r.histograms[name].Summary()))
	}
	for _, name := range sortedKeys(r.latencies) {
		h := r.latencies[name]
		lines = append(lines, fmt.Sprintf("%s = n=%d sum=%s", name, h.Count(), h.Sum()))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// Counter is a monotonically increasing int64. It is lock-free so
// counting on a parallel hot path costs one atomic add.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta (which must be >= 0 for monotonicity; negative deltas
// are ignored).
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		return
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable float64, stored as IEEE-754 bits in an atomic
// word so reads and writes never block.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		want := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, want) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates float64 observations and reports order
// statistics. It stores all samples; intended for simulation-scale
// (millions, not billions) sample counts.
type Histogram struct {
	mu      sync.Mutex
	samples []float64
	sorted  bool
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.samples = append(h.samples, v)
	h.sorted = false
	h.mu.Unlock()
}

// Count returns the number of samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Mean returns the sample mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range h.samples {
		sum += v
	}
	return sum / float64(len(h.samples))
}

// StdDev returns the population standard deviation.
func (h *Histogram) StdDev() float64 {
	mean := h.Mean()
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	ss := 0.0
	for _, v := range h.samples {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(h.samples)))
}

// Quantile returns the q-th quantile (0 <= q <= 1) by nearest-rank.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
	if q <= 0 {
		return h.samples[0]
	}
	if q >= 1 {
		return h.samples[len(h.samples)-1]
	}
	idx := int(math.Ceil(q*float64(len(h.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	return h.samples[idx]
}

// Min returns the smallest sample.
func (h *Histogram) Min() float64 { return h.Quantile(0) }

// Max returns the largest sample.
func (h *Histogram) Max() float64 { return h.Quantile(1) }

// Summary renders "n=… mean=… p50=… p99=… max=…".
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%.3f p50=%.3f p99=%.3f max=%.3f",
		h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
}
