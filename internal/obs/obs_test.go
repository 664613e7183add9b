package obs

import (
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestExpositionGolden pins the exact Prometheus text rendering: family
// grouping, HELP/TYPE headers, label canonicalization, cumulative
// histogram buckets and the _sum/_count tail.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("nazar_ingest_entries_total", "Drift-log entries ingested.")
	c.Add(41)
	c.Inc()
	g := r.Gauge("nazar_http_in_flight", "Requests currently being served.")
	g.Set(3)
	r.GaugeFunc("nazar_shard_rows", "Rows per shard.", func() float64 { return 7 }, L("shard", "0"))
	r.GaugeFunc("nazar_shard_rows", "Rows per shard.", func() float64 { return 9 }, L("shard", "1"))
	h := r.Histogram("nazar_stage_seconds", "Stage latency.", []float64{0.1, 1}, L("stage", "rca"))
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP nazar_ingest_entries_total Drift-log entries ingested.
# TYPE nazar_ingest_entries_total counter
nazar_ingest_entries_total 42
# HELP nazar_http_in_flight Requests currently being served.
# TYPE nazar_http_in_flight gauge
nazar_http_in_flight 3
# HELP nazar_shard_rows Rows per shard.
# TYPE nazar_shard_rows gauge
nazar_shard_rows{shard="0"} 7
nazar_shard_rows{shard="1"} 9
# HELP nazar_stage_seconds Stage latency.
# TYPE nazar_stage_seconds histogram
nazar_stage_seconds_bucket{stage="rca",le="0.1"} 1
nazar_stage_seconds_bucket{stage="rca",le="1"} 3
nazar_stage_seconds_bucket{stage="rca",le="+Inf"} 4
nazar_stage_seconds_sum{stage="rca"} 3.05
nazar_stage_seconds_count{stage="rca"} 4
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestDuplicateRegistrationPanics is the collision gate CI relies on: two
// registrations under the same name+labels must panic, not shadow.
func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate registration")
		}
	}()
	r.Counter("dup_total", "")
}

// TestDuplicateLabeledRegistrationPanics: same family, same label set.
func TestDuplicateLabeledRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g", "", L("shard", "0"))
	r.Gauge("g", "", L("shard", "1")) // distinct label set: fine
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate labeled registration")
		}
	}()
	r.Gauge("g", "", L("shard", "0"))
}

// TestKindConflictPanics: one family cannot mix counter and gauge.
func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "", L("a", "1"))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind conflict")
		}
	}()
	r.Gauge("m", "", L("a", "2"))
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"", "9lead", "has-dash", "sp ace"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q: expected panic", name)
				}
			}()
			r.Counter(name, "")
		}()
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 8} {
		h.Observe(v)
	}
	// Boundary values land in the bucket whose upper bound equals them
	// (le is inclusive).
	if got := h.count(); got != 5 {
		t.Fatalf("count %d, want 5", got)
	}
	if got := h.Sum(); math.Abs(got-14) > 1e-12 {
		t.Fatalf("sum %v, want 14", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`h_bucket{le="1"} 2`,
		`h_bucket{le="2"} 3`,
		`h_bucket{le="4"} 4`,
		`h_bucket{le="+Inf"} 5`,
	} {
		if !strings.Contains(b.String(), line) {
			t.Errorf("exposition missing %q:\n%s", line, b.String())
		}
	}
}

func TestSpanObservesDuration(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("span_seconds", "", DefBuckets)
	sp := h.Start()
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d <= 0 {
		t.Fatalf("span duration %v", d)
	}
	if h.count() != 1 {
		t.Fatalf("count %d, want 1", h.count())
	}
	if h.Sum() <= 0 {
		t.Fatalf("sum %v", h.Sum())
	}
	// Zero span is a no-op.
	var zero Span
	if zero.End() != 0 {
		t.Fatal("zero span should be a no-op")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Gauge("esc", "", L("v", "a\"b\\c\nd"))
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `esc{v="a\"b\\c\nd"} 0`
	if !strings.Contains(b.String(), want) {
		t.Errorf("escaped label missing %q in %s", want, b.String())
	}
}

// TestConcurrentObserve hammers one counter/histogram from many
// goroutines; run under -race this is the wait-free-writes contract.
func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cc_total", "")
	h := r.Histogram("ch_seconds", "", []float64{0.5})
	g := r.Gauge("cg", "")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(0.25)
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter %d, want %d", c.Value(), workers*per)
	}
	if h.count() != workers*per {
		t.Fatalf("histogram count %d, want %d", h.count(), workers*per)
	}
	if got := h.Sum(); math.Abs(got-0.25*workers*per) > 1e-6 {
		t.Fatalf("histogram sum %v", got)
	}
	if g.Value() != 0 {
		t.Fatalf("gauge %d, want 0", g.Value())
	}
}

func TestHandlerServesExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total", "").Add(5)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "served_total 5") {
		t.Fatalf("body %q", rec.Body.String())
	}
}

// TestOnScrapeRunsOncePerExposition pins the hook contract gauge sources
// rely on to share one snapshot: every hook runs once per exposition,
// before any gauge function is pulled.
func TestOnScrapeRunsOncePerExposition(t *testing.T) {
	r := NewRegistry()
	scrapes := 0
	r.OnScrape(func() { scrapes++ })
	r.GaugeFunc("snapshot_a", "", func() float64 { return float64(scrapes) })
	r.GaugeFunc("snapshot_b", "", func() float64 { return float64(scrapes) })
	for want := 1; want <= 2; want++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		for _, line := range []string{fmt.Sprintf("snapshot_a %d\n", want), fmt.Sprintf("snapshot_b %d\n", want)} {
			if !strings.Contains(b.String(), line) {
				t.Fatalf("exposition %d missing %q:\n%s", want, line, b.String())
			}
		}
	}
}

// count returns the total number of observations.
func (h *Histogram) count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}
