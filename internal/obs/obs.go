// Package obs is the operational-observability substrate of the system:
// a dependency-free metrics registry (atomic counters, gauges and
// fixed-bucket histograms with Prometheus text exposition) plus
// lightweight span timing.
//
// Nazar's whole premise is monitoring models in production; obs applies
// the same discipline to the serving system itself. Every hot-path
// component (ingest, drift-log, analysis, adaptation, HTTP surface,
// worker pool) registers its instruments on one Registry, which the
// HTTP API exposes at GET /metrics in the Prometheus text format, so a
// standard scraper/dashboard stack can watch shard balance, per-stage
// latency and adaptation acceptance rates at runtime.
//
// The package intentionally depends only on the standard library and
// the write paths are wait-free (single atomic op per event), so
// instrumentation is safe to leave enabled in benchmarks.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric dimension (e.g. {shard="3"}). Labels distinguish
// instruments sharing a family name; the exposition emits one HELP/TYPE
// header per family.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increments by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an integer value that can go up and down (queue depths,
// in-flight requests, pool occupancy).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add increments by n (negative to decrement).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram. Buckets are upper bounds in
// ascending order; an implicit +Inf bucket is always present. Observe is
// wait-free: one atomic add on the bucket plus a CAS loop on the sum.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	sum    atomic.Uint64   // float64 bits
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Span is an in-flight timing measurement against a histogram.
type Span struct {
	h     *Histogram
	start time.Time
}

// Start begins timing a span; call End to record it.
func (h *Histogram) Start() Span { return Span{h: h, start: time.Now()} }

// End records the elapsed time into the histogram and returns it. End on
// a zero Span is a no-op.
func (s Span) End() time.Duration {
	if s.h == nil {
		return 0
	}
	d := time.Since(s.start)
	s.h.ObserveDuration(d)
	return d
}

// DefBuckets are latency buckets in seconds, from 100µs to 30s —
// covering everything from a single ingest to a full adaptation window.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// LinearBuckets returns count buckets starting at start, spaced by width.
func LinearBuckets(start, width float64, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// metricKind tags the TYPE line of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// instrument is one registered metric (a family name plus one label set).
type instrument struct {
	family string
	kind   metricKind
	help   string
	labels string // rendered `{k="v",...}` or ""

	counter *Counter
	gauge   *Gauge
	gfunc   func() float64
	hist    *Histogram
}

// Registry holds instruments and renders them as Prometheus text
// exposition. Registration panics on an invalid name or on a duplicate
// name+labels key — collisions are programming errors and CI covers them
// with a test, so a silently shadowed metric can never ship.
type Registry struct {
	mu          sync.Mutex
	instruments []*instrument
	keys        map[string]bool
	kinds       map[string]metricKind // family -> kind (must be consistent)
	onScrape    []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{keys: map[string]bool{}, kinds: map[string]metricKind{}}
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(&instrument{family: name, kind: kindCounter, help: help, labels: renderLabels(labels), counter: c})
	return c
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.register(&instrument{family: name, kind: kindGauge, help: help, labels: renderLabels(labels), gauge: g})
	return g
}

// GaugeFunc registers a gauge whose value is pulled from fn at exposition
// time — how stores export occupancy without pushing on every mutation.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(&instrument{family: name, kind: kindGauge, help: help, labels: renderLabels(labels), gfunc: fn})
}

// OnScrape registers fn to run at the start of every exposition, before
// any gauge function is pulled — where a source whose snapshot is costly
// takes it once for all the gauges that read it.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onScrape = append(r.onScrape, fn)
}

// Histogram registers and returns a histogram with the given ascending
// bucket upper bounds (DefBuckets when nil).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %s buckets not ascending at %d", name, i))
		}
	}
	h := &Histogram{bounds: append([]float64(nil), buckets...)}
	h.counts = make([]atomic.Uint64, len(buckets)+1)
	r.register(&instrument{family: name, kind: kindHistogram, help: help, labels: renderLabels(labels), hist: h})
	return h
}

func (r *Registry) register(in *instrument) {
	if !validName(in.family) {
		panic(fmt.Sprintf("obs: invalid metric name %q", in.family))
	}
	key := in.family + in.labels
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.keys[key] {
		panic(fmt.Sprintf("obs: duplicate metric registration %s", key))
	}
	if kind, ok := r.kinds[in.family]; ok && kind != in.kind {
		panic(fmt.Sprintf("obs: metric family %s registered as both %s and %s", in.family, kind, in.kind))
	}
	r.keys[key] = true
	r.kinds[in.family] = in.kind
	r.instruments = append(r.instruments, in)
}

// validName checks the Prometheus metric-name grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// renderLabels canonicalizes a label set as `{k="v",...}` with keys
// sorted, or "" when empty.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if !validName(l.Key) {
			panic(fmt.Sprintf("obs: invalid label name %q", l.Key))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// withExtraLabel splices one more label into a rendered label set — used
// for histogram `le` labels.
func withExtraLabel(rendered, key, value string) string {
	pair := key + `="` + value + `"`
	if rendered == "" {
		return "{" + pair + "}"
	}
	return rendered[:len(rendered)-1] + "," + pair + "}"
}

// WritePrometheus renders every instrument in the Prometheus text format,
// grouped by family in registration order (HELP/TYPE emitted once per
// family).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	instruments := append([]*instrument(nil), r.instruments...)
	hooks := append(([]func())(nil), r.onScrape...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}

	var b strings.Builder
	seen := map[string]bool{}
	for _, in := range instruments {
		if seen[in.family] {
			continue
		}
		seen[in.family] = true
		if in.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", in.family, strings.ReplaceAll(in.help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", in.family, in.kind)
		for _, member := range instruments {
			if member.family != in.family {
				continue
			}
			member.write(&b)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (in *instrument) write(b *strings.Builder) {
	switch {
	case in.counter != nil:
		fmt.Fprintf(b, "%s%s %d\n", in.family, in.labels, in.counter.Value())
	case in.gauge != nil:
		fmt.Fprintf(b, "%s%s %d\n", in.family, in.labels, in.gauge.Value())
	case in.gfunc != nil:
		fmt.Fprintf(b, "%s%s %s\n", in.family, in.labels, formatFloat(in.gfunc()))
	case in.hist != nil:
		h := in.hist
		var cum uint64
		for i, ub := range h.bounds {
			cum += h.counts[i].Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", in.family, withExtraLabel(in.labels, "le", formatFloat(ub)), cum)
		}
		cum += h.counts[len(h.bounds)].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", in.family, withExtraLabel(in.labels, "le", "+Inf"), cum)
		fmt.Fprintf(b, "%s_sum%s %s\n", in.family, in.labels, formatFloat(h.Sum()))
		fmt.Fprintf(b, "%s_count%s %d\n", in.family, in.labels, cum)
	}
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the exposition (the body of
// GET /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
