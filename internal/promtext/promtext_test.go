package promtext

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"zmail/internal/metrics"
)

// TestParseSampleTable drives the line parser through the text-format
// corners: plain samples, label sets, the three escapes, timestamps,
// and malformed input.
func TestParseSampleTable(t *testing.T) {
	cases := []struct {
		name    string
		line    string
		want    Sample
		wantErr bool
	}{
		{
			name: "bare sample",
			line: "zmail_up 1",
			want: Sample{Name: "zmail_up", Value: 1},
		},
		{
			name: "scientific notation",
			line: "zmail_sum 2.5e-05",
			want: Sample{Name: "zmail_sum", Value: 2.5e-05},
		},
		{
			name: "single label",
			line: `zmail_sent_total{isp="isp0.zmail.test"} 42`,
			want: Sample{Name: "zmail_sent_total", Value: 42,
				Labels: map[string]string{"isp": "isp0.zmail.test"}},
		},
		{
			name: "multiple labels with spaces",
			line: `zmail_x{a="1", b="two words"} 7`,
			want: Sample{Name: "zmail_x", Value: 7,
				Labels: map[string]string{"a": "1", "b": "two words"}},
		},
		{
			name: "escaped quote backslash newline",
			line: `zmail_x{path="C:\\tmp",quote="say \"hi\"",nl="a\nb"} 1`,
			want: Sample{Name: "zmail_x", Value: 1,
				Labels: map[string]string{"path": `C:\tmp`, "quote": `say "hi"`, "nl": "a\nb"}},
		},
		{
			name: "trailing timestamp ignored",
			line: `zmail_x{le="+Inf"} 9 1700000000`,
			want: Sample{Name: "zmail_x", Value: 9,
				Labels: map[string]string{"le": "+Inf"}},
		},
		{name: "missing value", line: "zmail_x", wantErr: true},
		{name: "bad value", line: "zmail_x pony", wantErr: true},
		{name: "unterminated labels", line: `zmail_x{a="1" 2`, wantErr: true},
		{name: "unterminated label value", line: `zmail_x{a="1} 2`, wantErr: true},
		{name: "dangling escape", line: `zmail_x{a="1\"} 2`, wantErr: true},
		{name: "unknown escape", line: `zmail_x{a="\t"} 2`, wantErr: true},
		{name: "unquoted label value", line: `zmail_x{a=1} 2`, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseSample(tc.line)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("parseSample(%q) = %+v, want error", tc.line, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseSample(%q): %v", tc.line, err)
			}
			if got.Name != tc.want.Name || got.Value != tc.want.Value {
				t.Fatalf("parseSample(%q) = %+v, want %+v", tc.line, got, tc.want)
			}
			if len(got.Labels) != len(tc.want.Labels) {
				t.Fatalf("labels = %v, want %v", got.Labels, tc.want.Labels)
			}
			for k, v := range tc.want.Labels {
				if got.Labels[k] != v {
					t.Fatalf("label %s = %q, want %q", k, got.Labels[k], v)
				}
			}
		})
	}
}

// TestParsePromRoundTripsWriteProm is the golden-output contract: what
// internal/metrics.WriteProm emits, this parser reads back exactly —
// counters with escaped label values, gauges, summary quantiles, and
// the LatencyHist's full cumulative bucket ladder.
func TestParsePromRoundTripsWriteProm(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("zmail_sent_total", "isp", "isp0.zmail.test").Add(42)
	reg.Counter("zmail_sent_total", "isp", "isp1.zmail.test").Add(8)
	reg.Counter("zmail_weird_total", "q", `say "hi"`, "p", `a\b`).Add(3)
	reg.Gauge("zmail_pool", "isp", "isp0.zmail.test").Set(9500)
	sh := reg.Histogram("zmail_batch")
	for i := 1; i <= 100; i++ {
		sh.Observe(float64(i))
	}
	lat := reg.Latency("zmail_send_seconds", "isp", "isp0.zmail.test")
	durations := []time.Duration{
		30 * time.Microsecond,  // under the first 50µs bound
		100 * time.Microsecond, // bucket 2 (125µs)
		time.Millisecond,
		10 * time.Millisecond,
		5 * time.Second, // beyond the last bound: only in _count
	}
	for _, d := range durations {
		lat.Observe(d)
	}

	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	exposition := buf.String()
	scrape, err := ParseProm(strings.NewReader(exposition))
	if err != nil {
		t.Fatalf("ParseProm of WriteProm output: %v\n%s", err, exposition)
	}

	if v, ok := scrape.Value("zmail_sent_total", map[string]string{"isp": "isp0.zmail.test"}); !ok || v != 42 {
		t.Fatalf("sent_total{isp0} = %v,%v want 42", v, ok)
	}
	if got := scrape.Sum("zmail_sent_total"); got != 50 {
		t.Fatalf("Sum(sent_total) = %v, want 50 across both series", got)
	}
	// The escaped label values round-trip back to their raw forms.
	if v, ok := scrape.Value("zmail_weird_total", map[string]string{"q": `say "hi"`, "p": `a\b`}); !ok || v != 3 {
		t.Fatalf("escaped-label counter = %v,%v want 3\n%s", v, ok, exposition)
	}
	if v, ok := scrape.Value("zmail_pool", map[string]string{"isp": "isp0.zmail.test"}); !ok || v != 9500 {
		t.Fatalf("pool gauge = %v,%v", v, ok)
	}
	if f := scrape.Families["zmail_pool"]; f == nil || f.Type != "gauge" {
		t.Fatalf("pool family = %+v, want gauge", f)
	}

	// Summary family: quantile series share the family name.
	if f := scrape.Families["zmail_batch"]; f == nil || f.Type != "summary" {
		t.Fatalf("batch family = %+v, want summary", f)
	}
	if v, ok := scrape.Value("zmail_batch", map[string]string{"quantile": "0.5"}); !ok || v < 40 || v > 60 {
		t.Fatalf("batch p50 = %v,%v want ≈50", v, ok)
	}
	if v, ok := scrape.Value("zmail_batch_count", nil); !ok || v != 100 {
		t.Fatalf("batch count = %v,%v", v, ok)
	}

	// Histogram family: every fixed bound present, cumulative counts
	// matching the live histogram, sum/count intact.
	f := scrape.Families["zmail_send_seconds"]
	if f == nil || f.Type != "histogram" {
		t.Fatalf("latency family = %+v, want histogram", f)
	}
	h, ok := scrape.Histogram("zmail_send_seconds", map[string]string{"isp": "isp0.zmail.test"})
	if !ok {
		t.Fatalf("histogram not assembled from:\n%s", exposition)
	}
	bounds := metrics.LatencyBounds()
	if len(h.Bounds) != len(bounds) {
		t.Fatalf("parsed %d bounds, want %d", len(h.Bounds), len(bounds))
	}
	cum := lat.Cumulative()
	for i, b := range bounds {
		if math.Abs(h.Bounds[i]-b) > 1e-12 {
			t.Fatalf("bound[%d] = %v, want %v", i, h.Bounds[i], b)
		}
		if h.Counts[i] != cum[i] {
			t.Fatalf("cumulative[%d] = %d, want %d", i, h.Counts[i], cum[i])
		}
	}
	if h.Count != 5 {
		t.Fatalf("histogram count = %d, want 5", h.Count)
	}
	wantSum := lat.Sum().Seconds()
	if math.Abs(h.Sum-wantSum) > 1e-9 {
		t.Fatalf("histogram sum = %v, want %v", h.Sum, wantSum)
	}
}

// TestHistogramQuantile pins the bucket-upper-bound quantile estimate,
// including the tail case where observations land beyond every bound.
func TestHistogramQuantile(t *testing.T) {
	h := &Histogram{
		Bounds: []float64{0.001, 0.01, 0.1},
		Counts: []uint64{50, 90, 100},
		Count:  100,
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.25, 0.001},
		{0.5, 0.001},
		{0.75, 0.01},
		{0.9, 0.01},
		{0.99, 0.1},
		{1.0, 0.1},
	}
	for _, tc := range cases {
		if got := h.Quantile(tc.q); got != tc.want {
			t.Fatalf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	// 10 of 110 observations overflowed the last bound: the p99 is
	// unknowable from the buckets and must report +Inf, not a bound.
	h.Count = 110
	if got := h.Quantile(0.99); !math.IsInf(got, 1) {
		t.Fatalf("overflow Quantile(0.99) = %v, want +Inf", got)
	}
	empty := &Histogram{}
	if got := empty.Quantile(0.5); !math.IsNaN(got) {
		t.Fatalf("empty Quantile = %v, want NaN", got)
	}
}

// TestParsePromErrors pins the parser's failure modes with line
// numbers.
func TestParsePromErrors(t *testing.T) {
	for _, tc := range []struct{ name, in, wantSub string }{
		{"bad value", "# TYPE x counter\nx{a=\"b\"} pony\n", "line 2"},
		{"bare name", "just_a_name\n", "line 1"},
		{"duplicate bare series", "x 1\nx 2\n", "duplicate series x"},
		{"duplicate labeled series", "x{a=\"1\",b=\"2\"} 1\nx{b=\"2\",a=\"1\"} 3\n", "line 2: duplicate series"},
		{"conflicting TYPE", "# TYPE x counter\nx 1\n# TYPE x gauge\n", "line 3: conflicting TYPE for x"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseProm(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("ParseProm error = %v, want %q", err, tc.wantSub)
			}
		})
	}
}

// TestParsePromNonFinite pins the +Inf/NaN policy: non-finite values
// are legal exposition and parse through; Sum skips NaN but lets
// infinities propagate; Histogram drops bucket/count series whose
// values cannot be cumulative counts.
func TestParsePromNonFinite(t *testing.T) {
	for _, tc := range []struct {
		name  string
		in    string
		check func(t *testing.T, s *Scrape)
	}{
		{
			name: "inf and nan parse through",
			in:   "x{d=\"0\"} +Inf\nx{d=\"1\"} -Inf\nx{d=\"2\"} NaN\n",
			check: func(t *testing.T, s *Scrape) {
				for want, label := range map[string]string{"+Inf": "0", "-Inf": "1", "NaN": "2"} {
					v, ok := s.Value("x", map[string]string{"d": label})
					if !ok {
						t.Fatalf("sample d=%s missing", label)
					}
					got := "NaN"
					switch {
					case math.IsInf(v, 1):
						got = "+Inf"
					case math.IsInf(v, -1):
						got = "-Inf"
					case !math.IsNaN(v):
						got = "finite"
					}
					if got != want {
						t.Errorf("d=%s parsed as %s, want %s", label, got, want)
					}
				}
			},
		},
		{
			name: "sum skips nan keeps inf",
			in:   "x{d=\"0\"} 3\nx{d=\"1\"} NaN\nx{d=\"2\"} 4\n",
			check: func(t *testing.T, s *Scrape) {
				if got := s.Sum("x"); got != 7 {
					t.Errorf("Sum with NaN series = %v, want 7", got)
				}
			},
		},
		{
			name: "sum propagates inf",
			in:   "x{d=\"0\"} 3\nx{d=\"1\"} +Inf\n",
			check: func(t *testing.T, s *Scrape) {
				if got := s.Sum("x"); !math.IsInf(got, 1) {
					t.Errorf("Sum with +Inf series = %v, want +Inf", got)
				}
			},
		},
		{
			name: "histogram drops non-count buckets",
			in: "# TYPE h histogram\n" +
				"h_bucket{le=\"1\"} 2\n" +
				"h_bucket{le=\"2\"} NaN\n" +
				"h_bucket{le=\"4\"} +Inf\n" +
				"h_bucket{le=\"8\"} -3\n" +
				"h_bucket{le=\"16\"} 5\n" +
				"h_bucket{le=\"+Inf\"} 5\n" +
				"h_sum 9\nh_count 5\n",
			check: func(t *testing.T, s *Scrape) {
				h, ok := s.Histogram("h", nil)
				if !ok {
					t.Fatal("histogram missing")
				}
				if len(h.Bounds) != 2 || h.Bounds[0] != 1 || h.Bounds[1] != 16 {
					t.Errorf("Bounds = %v, want [1 16]", h.Bounds)
				}
				if len(h.Counts) != 2 || h.Counts[0] != 2 || h.Counts[1] != 5 {
					t.Errorf("Counts = %v, want [2 5]", h.Counts)
				}
				if h.Count != 5 || h.Sum != 9 {
					t.Errorf("Count/Sum = %d/%v, want 5/9", h.Count, h.Sum)
				}
			},
		},
		{
			name: "histogram count rejects nan",
			in: "# TYPE h histogram\n" +
				"h_bucket{le=\"1\"} 2\n" +
				"h_bucket{le=\"+Inf\"} 2\n" +
				"h_sum NaN\nh_count NaN\n",
			check: func(t *testing.T, s *Scrape) {
				h, ok := s.Histogram("h", nil)
				if !ok {
					t.Fatal("histogram missing")
				}
				if h.Count != 0 {
					t.Errorf("Count from NaN = %d, want 0 (dropped)", h.Count)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := ParseProm(strings.NewReader(tc.in))
			if err != nil {
				t.Fatalf("ParseProm: %v", err)
			}
			tc.check(t, s)
		})
	}
}
