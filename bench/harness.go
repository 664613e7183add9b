package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"nazar/internal/cloud"
	"nazar/internal/driftlog"
	"nazar/internal/httpapi"
	"nazar/internal/nn"
	"nazar/internal/obs"
	"nazar/internal/registry"
	"nazar/internal/transport"
)

// nazardWAL are cmd/nazard's default -wal-segment-mb and
// -wal-compact-segments.
var nazardWAL = driftlog.WALOptions{SegmentBytes: 4 << 20, CompactSegments: 4}

// quiet formats log lines the way nazard's handlers do and discards them,
// so the request log's cost stays in the measured path and the terminal
// does not.
var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// stack is the system under test, composed the way cmd/nazard composes
// it: cloud.Service (+ observer, + WAL) behind httpapi.Server on a
// loopback listener.
type stack struct {
	svc    *cloud.Service
	srv    *http.Server
	url    string
	walDir string
	stats  serverStats
	served chan struct{}
}

func newStack(base *nn.Network, cfg cloud.Config, walDir string, tr *tracer) (*stack, error) {
	reg := obs.NewRegistry()
	opts := []cloud.Option{cloud.WithObserver(reg)}
	if walDir != "" {
		opts = append(opts, cloud.WithWAL(walDir, nazardWAL))
	}
	svc := cloud.NewService(base, cfg, opts...)
	if err := svc.WALErr(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Close()
		return nil, err
	}
	st := &stack{svc: svc, url: "http://" + ln.Addr().String(), walDir: walDir, served: make(chan struct{})}
	var handler http.Handler = httpapi.NewServer(svc, httpapi.WithRegistry(reg), httpapi.WithLogger(quiet))
	if tr != nil {
		handler = traceHandler(tr, &st.stats, handler)
	}
	st.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(st.served)
		_ = st.srv.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	return st, nil
}

// close drains the server and closes the WAL, as nazard does on SIGTERM.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err := st.srv.Shutdown(ctx)
	<-st.served
	if cerr := st.svc.Close(); err == nil {
		err = cerr
	}
	return err
}

// batch is one pre-generated client batch. samples is nil or parallel to
// entries, with nil rows for entries that upload nothing.
type batch struct {
	entries []driftlog.Entry
	samples [][]float64
}

// client is one closed-loop device-side client: a transport.Client plus
// the clock that times each acknowledged batch from its first Report.
type client struct {
	h *harness
	t *transport.Client

	// sent[i&ringMask] is when entry i was reported. The spool hands
	// entries to the server in order, so the first entry of an
	// acknowledged batch is entry number acked. The ring is written by the
	// reporting goroutine and read in OnAck; the spool's mutex orders the
	// two.
	sent     []int64
	reported int
	ackMu    sync.Mutex // OnAck runs under the drain, OnDrop under Report
	acked    int
	ackMs    []float64
}

const ringMask = 4096 - 1 // transport's default SpoolCapacity

func (h *harness) newClient(url string, codec httpapi.Codec, maxBatch int) *client {
	c := &client{h: h, sent: make([]int64, ringMask+1)}
	cfg := transport.Config{
		MaxBatch:      maxBatch,
		FlushInterval: time.Hour, // only explicit flushes and MaxBatch wake-ups ship
		Seed:          h.seed,
		Name:          "bench_" + strconv.Itoa(len(h.clients)),
		Logger:        quiet,
		OnAck: func(entries []driftlog.Entry) {
			c.ackMu.Lock()
			c.ackMs = append(c.ackMs, float64(h.now()-c.sent[c.acked&ringMask])/1e6)
			c.acked += len(entries)
			c.ackMu.Unlock()
		},
		OnDrop: func(driftlog.Entry, string) {
			c.ackMu.Lock()
			c.acked++
			c.ackMu.Unlock()
		},
	}
	if h.tr != nil {
		cfg.HTTPTransport = roundTripper{t: h.tr, base: http.DefaultTransport}
	}
	opts := []transport.Option{transport.WithConfig(cfg)}
	if codec != nil {
		opts = append(opts, transport.WithCodec(codec))
	}
	c.t = transport.NewClient(url, opts...)
	h.clients = append(h.clients, c)
	return c
}

func (c *client) report(e driftlog.Entry, sample []float64) {
	c.sent[c.reported&ringMask] = c.h.now()
	c.reported++
	if err := c.t.Report(e, sample); err != nil {
		c.h.fail("report", err)
	}
}

func (c *client) flush(parent openSpan) {
	sp := c.h.tr.start("transport.flush", parent.id(), parent.sp.Op)
	err := c.t.Flush(withSpan(context.Background(), sp))
	sp.end()
	if err != nil {
		c.h.fail("flush", err)
	}
}

// send is one closed-loop op: Report every row of the batch, then Flush.
func (c *client) send(b batch, id int, parent openSpan) {
	bsp := c.h.tr.start("client.batch", parent.id(), id)
	rsp := c.h.tr.start("transport.report", bsp.id(), id)
	for i := range b.entries {
		var s []float64
		if b.samples != nil {
			s = b.samples[i]
		}
		c.report(b.entries[i], s)
	}
	rsp.end()
	c.flush(bsp)
	bsp.end()
}

// sectionStat is one ingest section: rows handed to Report, wall time and
// process CPU time (user+sys).
type sectionStat struct {
	rows      int
	wall, cpu time.Duration
}

// windowStat is one window close.
type windowStat struct {
	kind      string // "primary" or "delta"
	byCause   int    // pulled versions that carry a cause (not the clean model)
	analyzeMs float64
	totalMs   float64 // flush tail + analyze + pull + install
	serverMs  int64   // rca_ms + adapt_ms as the server reports them
	causes    []string
}

// harness holds one workload run's clients, measurements and failures.
type harness struct {
	seed    uint64
	t0      time.Time
	tr      *tracer
	clients []*client
	pools   []*registry.Pool

	sections []sectionStat
	windows  []windowStat
	ackMs    []float64 // of closed clients
	// attempted counts reported entries, window calls, installs and
	// checks; only the coordinating goroutine adds to it.
	attempted int

	mu       sync.Mutex // failures come from client goroutines too
	failed   int
	failures []string
}

func newHarness(seed uint64, tr *tracer) *harness {
	return &harness{seed: seed, t0: time.Now(), tr: tr}
}

func (h *harness) now() int64 { return int64(time.Since(h.t0)) }

// fail counts one failed operation or check.
func (h *harness) fail(what string, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.failed++
	if len(h.failures) < 20 {
		h.failures = append(h.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

// check records an output check; a false one is a failed operation.
func (h *harness) check(ok bool, format string, args ...any) {
	h.attempted++
	if !ok {
		h.fail("check", fmt.Errorf(format, args...))
	}
}

// section runs fn once per client, concurrently, and records the rows
// they reported as one ingest section.
func (h *harness) section(op int, fn func(ci int, c *client, sp openSpan)) {
	before := 0
	for _, c := range h.clients {
		before += c.reported
	}
	cpu0 := cpuTime()
	start := time.Now()
	sp := h.tr.start("section", 0, op)
	var wg sync.WaitGroup
	for ci, c := range h.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(ci, c, sp)
		}()
	}
	wg.Wait()
	sp.end()
	st := sectionStat{wall: time.Since(start), cpu: cpuTime() - cpu0, rows: -before}
	for _, c := range h.clients {
		st.rows += c.reported
	}
	h.sections = append(h.sections, st)
	h.attempted += st.rows
}

// closeWindow is what every workload does when a window ends: flush what
// is still spooled, POST /v1/analyze, pull the versions it produced and
// install them on every device pool.
func (h *harness) closeWindow(req httpapi.AnalyzeRequest, kind string, op int) windowStat {
	ctx := context.Background()
	ctl := h.clients[0].t
	ws := windowStat{kind: kind}
	start := time.Now()
	sp := h.tr.start("window.close", 0, op)
	for _, c := range h.clients {
		c.flush(sp)
	}

	asp := h.tr.start("transport.analyze", sp.id(), op)
	t := time.Now()
	resp, err := ctl.Analyze(withSpan(ctx, asp), req)
	ws.analyzeMs = float64(time.Since(t)) / 1e6
	asp.end()
	if err != nil {
		h.fail("analyze", err)
	}
	ws.causes, ws.serverMs = resp.Causes, resp.RCAMillis+resp.AdaptMs

	vsp := h.tr.start("transport.versions", sp.id(), op)
	versions, err := ctl.Versions(withSpan(ctx, vsp), req.Now)
	vsp.end()
	if err != nil {
		h.fail("versions", err)
	}

	isp := h.tr.start("registry.install", sp.id(), op)
	for _, v := range versions {
		if !v.IsClean() {
			ws.byCause++
		}
		for _, p := range h.pools {
			if err := p.Install(v, req.Now); err != nil {
				h.fail("install", err)
			}
		}
	}
	isp.end()
	sp.end()
	ws.totalMs = float64(time.Since(start)) / 1e6
	h.windows = append(h.windows, ws)
	h.attempted += 2 + len(versions)*len(h.pools)
	return ws
}

// closeClients closes every transport client, keeps their ack latencies
// and folds their delivery counters into the failure count.
func (h *harness) closeClients() (retries, dropped uint64) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, c := range h.clients {
		if err := c.t.Close(ctx); err != nil {
			h.fail("close", err)
		}
		h.ackMs = append(h.ackMs, c.ackMs...)
		c.ackMs = nil
		st := c.t.Stats()
		retries += st.Retries
		dropped += st.SpoolDropped
		if lost := st.SpoolDropped + st.Rejected; lost > 0 {
			h.mu.Lock()
			h.failed += int(lost)
			h.mu.Unlock()
		}
	}
	return retries, dropped
}

// acked is the number of entries the server acknowledged, over all
// clients. Valid after closeClients.
func (h *harness) acked() int {
	n := 0
	for _, c := range h.clients {
		n += int(c.t.Stats().Acked)
	}
	return n
}

// ingestRate is the median rate over ten equal-row slices of the ingest
// sections laid end to end, taking the rate inside a section as constant.
func ingestRate(sections []sectionStat) float64 {
	total := 0
	for _, s := range sections {
		total += s.rows
	}
	if total == 0 {
		return 0
	}
	const slices = 10
	per := float64(total) / slices
	var rates []float64
	si, used := 0, 0.0 // rows of sections[si] already assigned to a slice
	for k := 0; k < slices; k++ {
		need, secs := per, 0.0
		for need > 1e-9 && si < len(sections) {
			s := sections[si]
			take := min(need, float64(s.rows)-used)
			if s.rows > 0 {
				secs += s.wall.Seconds() * take / float64(s.rows)
			}
			need -= take
			used += take
			if used >= float64(s.rows)-1e-9 {
				si, used = si+1, 0
			}
		}
		if secs > 0 {
			rates = append(rates, (per-need)/secs)
		}
	}
	return percentile(rates, 50)
}

// percentile returns the nearest-rank p-th percentile (0 when empty).
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(p/100*float64(len(s))+0.999999) - 1
	return s[max(0, min(len(s)-1, rank))]
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			_, _ = fmt.Sscan(rest, &kb) // "  123456 kB"
			return kb / 1024
		}
	}
	return 0
}

// memCounters are the runtime counters taken before and after the timed
// section.
type memCounters struct {
	mallocs   uint64
	pauseNs   uint64
	heapAlloc uint64
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{mallocs: ms.Mallocs, pauseNs: ms.PauseTotalNs, heapAlloc: ms.HeapAlloc}
}
