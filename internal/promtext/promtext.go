// Package promtext parses the Prometheus text exposition the daemons
// serve on /metrics, so a client can read server-side counters back
// and reconcile them against its own.
//
// The parser handles exactly the dialect internal/metrics.WriteProm
// emits — `# TYPE` comments, counter/gauge/summary/histogram families,
// label values with the three text-format escapes (\\, \", \n) — which
// is also the subset every real Prometheus server accepts.
package promtext

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one series sample: a metric name, its label set, and the
// value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Label returns a label value ("" when absent).
func (s Sample) Label(key string) string { return s.Labels[key] }

// matches reports whether every pair in want appears in the sample's
// label set (a subset match; extra labels on the sample are fine).
func (s Sample) matches(want map[string]string) bool {
	for k, v := range want {
		if s.Labels[k] != v {
			return false
		}
	}
	return true
}

// Family is every sample sharing one family name, with the declared
// TYPE ("untyped" when the exposition never declared one). Histogram
// and summary families hold their _bucket/_sum/_count (or quantile)
// series under the family they belong to, as Prometheus groups them.
type Family struct {
	Name    string
	Type    string
	Samples []Sample
}

// Scrape is one parsed exposition.
type Scrape struct {
	Families map[string]*Family
}

// ParseProm parses a Prometheus text-format exposition. Unknown
// comment lines (# HELP, # EOF) are skipped; malformed sample lines,
// conflicting TYPE redeclarations, and duplicate series (same name and
// identical label set twice in one exposition) are errors carrying the
// 1-based line number. Non-finite sample values (+Inf, -Inf, NaN) are
// legal text-format values and parse through; the aggregation helpers
// guard against them instead.
func ParseProm(r io.Reader) (*Scrape, error) {
	s := &Scrape{Families: make(map[string]*Family)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	seen := make(map[string]int)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				fam := s.family(fields[2])
				if fam.Type != "untyped" && fam.Type != fields[3] {
					return nil, fmt.Errorf("promtext: line %d: conflicting TYPE for %s: declared %s, redeclared %s", lineno, fields[2], fam.Type, fields[3])
				}
				fam.Type = fields[3]
			}
			continue
		}
		sample, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("promtext: line %d: %w", lineno, err)
		}
		key := sample.seriesKey()
		if first, dup := seen[key]; dup {
			return nil, fmt.Errorf("promtext: line %d: duplicate series %s (first seen on line %d)", lineno, key, first)
		}
		seen[key] = lineno
		fam := s.family(familyOf(s, sample.Name))
		fam.Samples = append(fam.Samples, sample)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("promtext: read exposition: %w", err)
	}
	return s, nil
}

// seriesKey is the sample's identity within one exposition: the series
// name plus its label set in sorted key order.
func (s Sample) seriesKey() string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, s.Labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

func (s *Scrape) family(name string) *Family {
	f, ok := s.Families[name]
	if !ok {
		f = &Family{Name: name, Type: "untyped"}
		s.Families[name] = f
	}
	return f
}

// familyOf groups the _bucket/_sum/_count series of a declared
// histogram or summary family under the family's name, mirroring how
// Prometheus itself associates them.
func familyOf(s *Scrape, sampleName string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base, found := strings.CutSuffix(sampleName, suffix)
		if !found {
			continue
		}
		if f, ok := s.Families[base]; ok && (f.Type == "histogram" || f.Type == "summary") {
			return base
		}
	}
	return sampleName
}

// parseSample parses `name{k="v",...} value` or `name value`, with an
// optional trailing timestamp (ignored).
func parseSample(line string) (Sample, error) {
	sample := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i >= 0 && rest[i] == '{' {
		sample.Name = rest[:i]
		var err error
		rest, err = parseLabels(rest[i+1:], sample.Labels)
		if err != nil {
			return sample, err
		}
	} else {
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return sample, fmt.Errorf("malformed sample %q", line)
		}
		sample.Name = fields[0]
		rest = strings.Join(fields[1:], " ")
	}
	fields := strings.Fields(strings.TrimSpace(rest))
	if len(fields) < 1 || len(fields) > 2 {
		return sample, fmt.Errorf("malformed value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return sample, fmt.Errorf("bad value %q: %w", fields[0], err)
	}
	sample.Value = v
	return sample, nil
}

// parseLabels consumes a label body starting just past '{' and returns
// the remainder of the line past the closing '}'. Values honor the
// text-format escapes \\ , \" and \n.
func parseLabels(body string, into map[string]string) (rest string, err error) {
	for {
		body = strings.TrimLeft(body, " \t,")
		if body == "" {
			return "", fmt.Errorf("unterminated label set")
		}
		if body[0] == '}' {
			return body[1:], nil
		}
		eq := strings.IndexByte(body, '=')
		if eq < 0 {
			return "", fmt.Errorf("label without '='")
		}
		key := strings.TrimSpace(body[:eq])
		body = body[eq+1:]
		if len(body) == 0 || body[0] != '"' {
			return "", fmt.Errorf("label %s: unquoted value", key)
		}
		body = body[1:]
		var b strings.Builder
		i := 0
		for {
			if i >= len(body) {
				return "", fmt.Errorf("label %s: unterminated value", key)
			}
			c := body[i]
			if c == '"' {
				break
			}
			if c == '\\' {
				if i+1 >= len(body) {
					return "", fmt.Errorf("label %s: dangling escape", key)
				}
				switch body[i+1] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					return "", fmt.Errorf("label %s: unknown escape \\%c", key, body[i+1])
				}
				i += 2
				continue
			}
			b.WriteByte(c)
			i++
		}
		into[key] = b.String()
		body = body[i+1:]
	}
}

// samplesNamed returns every sample with the exact series name,
// whether it lives in its own family or (a _bucket/_sum/_count
// companion) inside a declared histogram/summary family.
func (s *Scrape) samplesNamed(name string) []Sample {
	if f, ok := s.Families[name]; ok {
		return f.Samples
	}
	if base := familyOf(s, name); base != name {
		if f, ok := s.Families[base]; ok {
			var out []Sample
			for _, sample := range f.Samples {
				if sample.Name == name {
					out = append(out, sample)
				}
			}
			return out
		}
	}
	return nil
}

// Value returns the first sample with the given series name whose
// labels include every pair in want (nil matches anything).
func (s *Scrape) Value(name string, want map[string]string) (float64, bool) {
	for _, sample := range s.samplesNamed(name) {
		if sample.Name == name && sample.matches(want) {
			return sample.Value, true
		}
	}
	return 0, false
}

// Sum adds every plain sample of the family — the way a client folds
// one counter over a multi-daemon scrape set where each daemon exposes
// its own series. Histogram/summary companion series (_bucket and friends)
// are excluded, and NaN samples are skipped: one daemon exposing a NaN
// gauge must not poison the whole fold. Infinities propagate — an
// infinite total is honest where a NaN one is meaningless.
func (s *Scrape) Sum(name string) float64 {
	var total float64
	for _, sample := range s.samplesNamed(name) {
		if sample.Name == name && !math.IsNaN(sample.Value) {
			total += sample.Value
		}
	}
	return total
}

// Histogram is an assembled histogram family: cumulative bucket counts
// by upper bound, plus the _sum/_count pair.
type Histogram struct {
	Bounds []float64 // ascending upper bounds, excluding +Inf
	Counts []uint64  // cumulative count ≤ the matching bound
	Sum    float64
	Count  uint64
}

// Histogram assembles the histogram family called name whose labels
// include want. ok is false when no bucket series match.
func (s *Scrape) Histogram(name string, want map[string]string) (*Histogram, bool) {
	f, ok := s.Families[name]
	if !ok {
		return nil, false
	}
	h := &Histogram{}
	type bucket struct {
		bound float64
		count uint64
	}
	var buckets []bucket
	for _, sample := range f.Samples {
		switch sample.Name {
		case name + "_bucket":
			if !sample.matches(want) {
				continue
			}
			le := sample.Label("le")
			if le == "+Inf" {
				continue // redundant with _count
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil || !isCount(sample.Value) {
				continue
			}
			buckets = append(buckets, bucket{bound, uint64(sample.Value)})
		case name + "_sum":
			if sample.matches(want) {
				h.Sum = sample.Value
			}
		case name + "_count":
			if sample.matches(want) && isCount(sample.Value) {
				h.Count = uint64(sample.Value)
			}
		}
	}
	if len(buckets) == 0 {
		return nil, false
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].bound < buckets[j].bound })
	for _, b := range buckets {
		h.Bounds = append(h.Bounds, b.bound)
		h.Counts = append(h.Counts, b.count)
	}
	return h, true
}

// isCount reports whether v can be a cumulative count: finite and
// non-negative. uint64(NaN) and uint64(±Inf) are platform-defined
// garbage, so bucket and count series failing this are dropped rather
// than converted.
func isCount(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}

// Quantile estimates the q-quantile (0 < q ≤ 1) from the cumulative
// buckets, returning the upper bound of the bucket the quantile falls
// in — the same upper-bound convention Prometheus' histogram_quantile
// resolves to for the final bucket. Observations beyond the last bound
// yield +Inf; an empty histogram yields NaN.
func (h *Histogram) Quantile(q float64) float64 {
	if h.Count == 0 {
		return math.NaN()
	}
	target := q * float64(h.Count)
	for i, c := range h.Counts {
		if float64(c) >= target {
			return h.Bounds[i]
		}
	}
	return math.Inf(1)
}
