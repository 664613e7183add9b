package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader links a server-side handler span to the client round trip
// that caused it.
const spanHeader = "X-Bench-Span"

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer was created; Op is the window or batch the span
// belongs to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Op     int    `json:"op"`
}

// tracer keeps finished spans in memory until the run ends. A nil tracer
// records nothing, which is the untraced run.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	t  *tracer
	sp span
}

func (t *tracer) start(name string, parent int64, op int) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, sp: span{
		ID: t.nextID.Add(1), Parent: parent, Name: name, Op: op,
		Start: int64(time.Since(t.t0)),
	}}
}

func (o openSpan) id() int64 { return o.sp.ID }

func (o openSpan) end() {
	if o.t == nil {
		return
	}
	o.sp.End = int64(time.Since(o.t.t0))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.sp)
	o.t.mu.Unlock()
}

// aggregate records one span for a run of calls too short to trace one
// by one (Infer, Report): it lasts their summed time ns and is placed
// offset nanoseconds into its parent, after the parent's other
// aggregates.
func (t *tracer) aggregate(name string, parent openSpan, offset, ns int64) {
	if t == nil {
		return
	}
	start := parent.sp.Start + offset
	sp := span{ID: t.nextID.Add(1), Parent: parent.sp.ID, Name: name, Start: start, End: start + ns, Op: parent.sp.Op}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

type spanKey struct{}

// withSpan makes o the parent of round trips issued under the context.
func withSpan(ctx context.Context, o openSpan) context.Context {
	if o.t == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, o.sp)
}

// roundTripper is the client-side seam (transport.Config.HTTPTransport):
// one span per HTTP request, its id sent to the server in spanHeader.
type roundTripper struct {
	t    *tracer
	base http.RoundTripper
}

func (rt roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	var parent int64
	var op int
	if p, ok := req.Context().Value(spanKey{}).(span); ok {
		parent, op = p.ID, p.Op
	}
	sp := rt.t.start("http.roundtrip "+req.URL.Path, parent, op)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(sp.id(), 10)+"/"+strconv.Itoa(op))
	resp, err := rt.base.RoundTrip(req)
	sp.end()
	return resp, err
}

// serverStats are the counts the handler wrapper takes at the server
// boundary.
type serverStats struct {
	status4xx, status5xx atomic.Int64
	versionsBytes        atomic.Int64
	versionsCalls        atomic.Int64
}

type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// traceHandler is the server-side seam: a span around the whole
// httpapi.Server handler, child of the client's round-trip span.
func traceHandler(t *tracer, st *serverStats, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var parent int64
		var op int
		if id, opStr, ok := strings.Cut(r.Header.Get(spanHeader), "/"); ok {
			parent, _ = strconv.ParseInt(id, 10, 64)
			op, _ = strconv.Atoi(opStr)
		}
		sp := t.start("httpapi.handler "+r.URL.Path, parent, op)
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(cw, r)
		sp.end()
		switch cw.status / 100 {
		case 4:
			st.status4xx.Add(1)
		case 5:
			st.status5xx.Add(1)
		}
		if r.URL.Path == "/v1/versions" {
			st.versionsBytes.Add(cw.bytes)
			st.versionsCalls.Add(1)
		}
	})
}

// durations returns the lengths in nanoseconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// layerTime is one row of the self-time table: a span name, how often it
// ran, its total time and its self time (total minus the time its child
// spans cover).
type layerTime struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTimes aggregates spans by name. A span's self time is its length
// minus the part of it its child spans cover; children of one span can
// run in parallel (two clients under one section), so the cover is the
// union of their intervals.
func (t *tracer) selfTimes() []layerTime {
	children := make(map[int64][]span, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*layerTime{}
	for _, s := range t.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		lt.Count++
		lt.TotalS += float64(s.End-s.Start) / 1e9
		lt.SelfS += float64(s.End-s.Start-covered(children[s.ID], s.Start, s.End)) / 1e9
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfS > out[j].SelfS })
	return out
}

// covered returns how much of [from, to) the union of the spans covers.
// A handler span can outlast the round trip that caused it by the time
// the client needs to see the response end, so children are clipped.
func covered(spans []span, from, to int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total int64
	end := from
	for _, s := range spans {
		lo, hi := max(s.Start, end), min(s.End, to)
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return total
}

// topLevelSeconds sums the benchmark loop's top-level spans: ingest
// sections and window closes, which run one after the other.
func (t *tracer) topLevelSeconds() float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == "section" || s.Name == "window.close" {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Scale    float64            `json:"scale"`
	WallS    float64            `json:"timed_wall_s"`
	Layers   []layerTime        `json:"layers"`
	Replay   map[string]float64 `json:"layer_replay"`
	Spans    []span             `json:"spans"`
}

func writeTrace(dir string, tf traceFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+tf.Workload+".json"), data, 0o644)
}
