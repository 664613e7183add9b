package pipeline

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"time"

	"nazar/internal/cloud"
	"nazar/internal/dataset"
	"nazar/internal/detect"
	"nazar/internal/driftlog"
	"nazar/internal/faultinject"
	"nazar/internal/httpapi"
	"nazar/internal/imagesim"
	"nazar/internal/nn"
	"nazar/internal/obs"
	"nazar/internal/tensor"
	"nazar/internal/transport"
	"nazar/internal/weather"
)

// Wire runs the loop over HTTP: the fleet reports through the resilient
// transport to an httpapi server behind a seeded fault injector, and
// each window's flush, analysis and version pull cross that wire. Time
// is compressed (1ms injected latency, sleeps capped in milliseconds),
// so even a 30% fault rate costs little wall time.
type Wire struct {
	// Faults is the injector's schedule; the zero value injects nothing.
	Faults faultinject.Schedule
	// WALDir, when set, gives the cloud a durable drift log there.
	WALDir string
	// KillAtWindow, when positive, kill-9s the cloud as that window
	// (1-based) closes, before its flush: the WAL is severed and a fresh
	// service replays WALDir behind the same endpoint. lost_acked must
	// stay 0: every acked batch was fsynced before its ack.
	KillAtWindow int
}

// auditAttrSeq is the identity attribute the wire edge stamps on every
// report so delivery can be audited row by row.
const auditAttrSeq = "chaos_seq"

// quiet discards the server's and the transport's logs.
var quiet = slog.New(slog.DiscardHandler)

// wireEdge is the HTTP edge; close completes its delivery audit.
type wireEdge struct {
	wire     Wire
	cloudCfg cloud.Config
	reg      *obs.Registry
	base     *nn.Network
	svc      *cloud.Service
	handler  atomic.Value // http.Handler: the current service's API
	injector *faultinject.Injector
	ts       *httptest.Server
	client   *transport.Client
	acked    map[string]int
	audit    ChaosResult
}

// newWire starts edge w in front of a cloud service over base, observed
// on reg if non-nil. seed drives the injector and the transport's jitter;
// spool is the run's report count: losses come from the wire, not the spool.
func newWire(w Wire, seed uint64, cloudCfg cloud.Config, reg *obs.Registry, base *nn.Network, spool int) (*wireEdge, error) {
	if w.KillAtWindow > 0 && w.WALDir == "" {
		return nil, errors.New("pipeline: Wire.KillAtWindow requires WALDir")
	}
	if w.KillAtWindow > 0 && reg != nil {
		// The replacement service would register its metrics again.
		return nil, errors.New("pipeline: Wire.KillAtWindow cannot run with an Observer")
	}
	e := &wireEdge{wire: w, cloudCfg: cloudCfg, reg: reg, base: base, acked: map[string]int{}}
	if err := e.startService(); err != nil {
		return nil, err
	}
	sched := w.Faults
	sched.LatencyDur = time.Millisecond
	e.injector = faultinject.New(faultinject.Config{Seed: seed, Schedule: sched})
	// The injector mounts OUTSIDE the API server's middleware chain so
	// injected aborts bypass its panic recovery and reach the client as
	// genuine connection failures.
	e.ts = httptest.NewServer(e.injector.Middleware()(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		e.handler.Load().(http.Handler).ServeHTTP(rw, r)
	})))
	e.client = transport.NewClient(e.ts.URL, transport.WithConfig(transport.Config{
		MaxBatch:       8,
		FlushInterval:  time.Hour, // explicit Flush only: keeps the run deterministic
		RequestTimeout: 2 * time.Second,
		MaxAttempts:    10,
		SpoolCapacity:  spool,
		Backoff:        transport.BackoffConfig{Base: time.Millisecond, Max: 4 * time.Millisecond},
		Breaker:        transport.BreakerConfig{Threshold: 5, Cooldown: 2 * time.Millisecond},
		Seed:           seed,
		Name:           "pipeline",
		Logger:         quiet,
		Sleep:          cappedSleep(5 * time.Millisecond),
		OnAck: func(entries []driftlog.Entry) {
			for _, en := range entries {
				e.acked[en.Attrs[auditAttrSeq]]++
			}
		},
	}))
	e.audit.FaultRate = sched.FaultRate()
	return e, nil
}

// startService brings up a cloud service, replaying WALDir if set, and
// points the endpoint at it: the fleet sees a swap as failed requests.
func (e *wireEdge) startService() error {
	svc := cloud.NewService(e.base, e.cloudCfg, cloud.WithObserver(e.reg), cloud.WithWAL(e.wire.WALDir, driftlog.WALOptions{}))
	if err := svc.WALErr(); err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	e.svc = svc
	e.handler.Store(http.Handler(httpapi.NewServer(svc, httpapi.WithLogger(quiet), httpapi.WithRegistry(e.reg))))
	return nil
}

// report stamps the entry's attributes with its audit sequence number.
func (e *wireEdge) report(entry driftlog.Entry, sample []float64) error {
	entry.Attrs[auditAttrSeq] = strconv.Itoa(e.audit.Streamed)
	e.audit.Streamed++
	return e.client.Report(entry, sample)
}

// flush closes window w: the kill, if w is due one, then a spool drain.
func (e *wireEdge) flush(ctx context.Context, w int) error {
	if e.wire.KillAtWindow == w+1 {
		// Sever the WAL first: in-flight requests on the dying service
		// fail un-acked rather than acking into a store about to vanish.
		e.svc.WAL().Sever()
		if err := e.startService(); err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		e.audit.CloudKills++
		e.audit.ReplayedRows = e.svc.Log().Len()
	}
	if err := e.client.Flush(ctx); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	return nil
}

func (e *wireEdge) analyze(ctx context.Context, w int, from, to time.Time) (analysis, error) {
	if err := e.flush(ctx, w); err != nil {
		return analysis{}, err
	}
	resp, err := e.client.Analyze(ctx, httpapi.AnalyzeRequest{From: from, To: to, Now: to})
	if err != nil {
		return analysis{}, fmt.Errorf("analyze: %w", err)
	}
	e.audit.AnalyzeOK++
	// This analysis stamped its versions at to, every earlier one older.
	versions, err := e.client.Versions(ctx, to)
	if err != nil {
		return analysis{}, fmt.Errorf("versions: %w", err)
	}
	return analysis{
		causes:   resp.Causes,
		keys:     resp.CauseKeys,
		versions: versions,
		rca:      time.Duration(resp.RCAMillis) * time.Millisecond,
		adapt:    time.Duration(resp.AdaptMs) * time.Millisecond,
	}, nil
}

// close stops the transport — draining its spool after a finished run,
// abandoning it after a failed one — audits delivery (every acked entry
// must be in the cloud's drift log), and stops the server and service.
func (e *wireEdge) close(err error) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err != nil {
		cancel()
	}
	if cerr := e.client.Close(ctx); err == nil && cerr != nil {
		err = fmt.Errorf("pipeline: close: %w", cerr)
	}
	st, a := e.client.Stats(), &e.audit
	a.Codec = e.client.API().Codec.ContentType()
	a.Acked, a.SpoolDropped = int(st.Acked), int(st.SpoolDropped)
	a.Retries, a.BreakerOpens = st.Retries, st.BreakerOpens
	present := map[string]int{}
	e.svc.Log().Each(func(_ int, en driftlog.Entry) {
		if s, ok := en.Attrs[auditAttrSeq]; ok {
			present[s]++
		}
	})
	a.Delivered = len(present)
	for _, n := range present {
		a.Duplicates += n - 1
	}
	for s := range e.acked {
		if present[s] == 0 {
			a.LostAcked++
		}
	}
	if a.Streamed > 0 {
		a.DeliveryRate = float64(a.Delivered) / float64(a.Streamed)
	}
	a.Requests = e.injector.Requests()
	a.InjectedFaults = map[string]uint64{}
	for f, n := range e.injector.Counts() {
		a.InjectedFaults[string(f)] = n
	}
	e.ts.Close()
	return cmp.Or(err, e.svc.Close())
}

// cappedSleep is a context-aware sleeper that compresses long delays
// (e.g. injected whole-second Retry-After hints) into test time.
func cappedSleep(limit time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		t := time.NewTimer(min(d, limit))
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			return nil
		}
	}
}

// ChaosConfig parameterizes one chaos run: a small fleet streams
// inferences to a real httpapi server over the wire edge while a seeded
// fault injector corrupts the wire.
type ChaosConfig struct {
	// Wire is the edge the fleet streams over: its fault schedule, WAL
	// directory and kill window.
	Wire Wire
	// Devices is the fleet size (default 3).
	Devices int
	// PerDevice is the number of inferences each device streams
	// (default 40).
	PerDevice int
	// Windows is the number of analysis/adaptation cycles the stream is
	// split into (default 2).
	Windows int
	// Seed drives every PRNG in the run: the world, the fleet, the
	// fault injector and the transport's backoff jitter.
	Seed uint64
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Devices <= 0 {
		c.Devices = 3
	}
	if c.PerDevice <= 0 {
		c.PerDevice = 40
	}
	if c.Windows <= 0 {
		c.Windows = 2
	}
	return c
}

// ChaosResult is the harness's verdict, JSON-ready for `make chaos`.
type ChaosResult struct {
	FaultRate float64 `json:"fault_rate"`
	// Codec is the ingest media type the fleet's transport used.
	Codec string `json:"codec"`
	// Streamed counts entries handed to transport.Client.Report.
	Streamed int `json:"streamed"`
	// Acked counts entries the transport confirmed delivered to the
	// caller (OnAck).
	Acked int `json:"acked"`
	// SpoolDropped counts entries evicted from a full spool (never
	// acked — allowed to be lost).
	SpoolDropped int `json:"spool_dropped"`
	// Delivered counts distinct streamed entries present in the cloud
	// drift log after the run.
	Delivered int `json:"delivered"`
	// Duplicates counts redundant log rows from at-least-once retries.
	Duplicates int `json:"duplicates"`
	// LostAcked counts entries acked to the caller but absent from the
	// cloud log. The delivery invariant: always zero.
	LostAcked int `json:"lost_acked"`
	// DeliveryRate is Delivered / Streamed.
	DeliveryRate float64 `json:"delivery_rate"`
	// Retries and BreakerOpens are the transport's recovery effort.
	Retries      uint64 `json:"retries"`
	BreakerOpens uint64 `json:"breaker_opens"`
	// Requests counts HTTP requests that reached the fault injector;
	// InjectedFaults breaks down what it did to them.
	Requests       int               `json:"requests"`
	InjectedFaults map[string]uint64 `json:"injected_faults"`
	// AnalyzeOK counts analysis cycles that completed through the
	// faulty wire; Versions is the adapted-version count installed on
	// the fleet afterwards (adaptation invariant: at fault rate 0 the
	// run must analyze and install versions like a clean pipeline run).
	AnalyzeOK int `json:"analyze_ok"`
	Versions  int `json:"versions"`
	// CloudKills counts Wire.KillAtWindow restarts performed;
	// ReplayedRows is the row count the replacement service recovered
	// from the WAL at takeover.
	CloudKills   int `json:"cloud_kills"`
	ReplayedRows int `json:"replayed_rows"`
}

// RunChaos streams a fleet through fault-injected HTTP and audits the
// at-least-once contract: every entry acked by the transport must be
// present in the cloud's drift log, no matter what the wire did. It is
// the window loop over a synthetic tick schedule with the wire edge.
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	cfg = cfg.withDefaults()
	world := imagesim.NewWorld(imagesim.DefaultConfig(4, cfg.Seed))
	base := nn.NewClassifier(nn.ArchResNet18, world.Dim(), 4, tensor.NewRand(cfg.Seed, 1))
	run := Config{Strategy: Nazar, SampleRate: 1, DetectorThreshold: detect.DefaultMSPThreshold,
		Cloud: cloud.DefaultConfig(), Seed: cfg.Seed}
	run.Cloud.MinSamplesPerCause = 8
	run.Cloud.AdaptCfg.Epochs = 1
	e, err := newWire(cfg.Wire, cfg.Seed, run.Cloud, nil, base, cfg.Devices*cfg.PerDevice)
	if err != nil {
		return nil, err
	}
	res, err := run.loop(context.Background(), base, cfg.ticks(world), oracleEdge{e})
	if err != nil {
		return nil, err
	}
	out := e.audit
	out.Versions = res.Windows[len(res.Windows)-1].VersionCount
	return &out, nil
}

// oracleEdge reports ground truth as each entry's drift flag in place of
// the detector's verdict: RunChaos audits the transport, not the
// detector, so analysis finds the snow cause although the tiny base
// model is untrained.
type oracleEdge struct{ *wireEdge }

func (e oracleEdge) report(entry driftlog.Entry, sample []float64) error {
	entry.Drift = entry.Attrs[driftlog.AttrWeather] == "snow"
	return e.wireEdge.report(entry, sample)
}

// ticks is RunChaos's schedule: each minute from weather.Day(0) every
// device infers one sample of the world, in snow on odd minutes, and the
// PerDevice minutes are cut into Windows analysis windows.
func (c ChaosConfig) ticks(world *imagesim.World) schedule {
	rng := tensor.NewRand(c.Seed, 0xC4A05)
	at := func(tick int) time.Time { return weather.Day(0).Add(time.Duration(tick) * time.Minute) }
	perWindow := (c.PerDevice + c.Windows - 1) / c.Windows
	return schedule{windows: c.Windows, window: func(w int) (window, error) {
		first, end := min(w*perWindow, c.PerDevice), min((w+1)*perWindow, c.PerDevice)
		win := window{from: at(first), to: at(end)}
		for tick := first; tick < end; tick++ {
			for i := range c.Devices {
				in := input{StreamItem: dataset.StreamItem{
					Class: rng.IntN(4), Time: at(tick), Location: "chaos", DeviceID: fmt.Sprintf("chaos_dev_%d", i)}}
				in.X = world.Sample(in.Class, rng)
				cond := "clear"
				if tick%2 == 1 {
					in.X, in.drift, cond = world.Corrupt(in.X, imagesim.Snow, imagesim.DefaultSeverity, rng), imagesim.Snow, "snow"
				}
				in.attrs = map[string]string{driftlog.AttrWeather: cond}
				win.inputs = append(win.inputs, in)
			}
		}
		return win, nil
	}}
}
