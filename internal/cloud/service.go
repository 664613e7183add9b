// Package cloud implements the cloud half of Nazar: drift-log ingestion
// (each uploaded input is a column of its row), the periodic
// root-cause-analysis job, by-cause adaptation and version deployment.
//
// The paper runs these on Aurora + Lambda + GPU EC2 + S3; here they are
// one in-process service (package httpapi adds the wire protocol for a
// real distributed deployment).
package cloud

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nazar/internal/adapt"
	"nazar/internal/driftlog"
	"nazar/internal/fim"
	"nazar/internal/nn"
	"nazar/internal/obs"
	"nazar/internal/rca"
	"nazar/internal/tensor"
)

// Config parameterizes the cloud service.
type Config struct {
	// RCAMode selects the analysis variant (rca.Full is Nazar).
	RCAMode rca.Mode
	// Thresholds are the FIM thresholds.
	Thresholds fim.Thresholds
	// AdaptCfg is the adaptation configuration (TENT by default).
	AdaptCfg adapt.Config
	// MinSamplesPerCause skips adaptation for causes with too few
	// uploaded samples.
	MinSamplesPerCause int
	// AdaptClean also re-adapts the clean model on non-cause samples
	// each window (the "continuously adapted clean model" of §3.4).
	AdaptClean bool
	// LogRetention, when positive, compacts drift-log rows older than
	// this duration (relative to each analysis run's `now`) before the
	// analysis, bounding log growth — the uploaded vectors included, which
	// go with their rows. With WithWAL it bounds the WAL directory too:
	// the WAL's compaction deletes the sealed segments whose rows are all
	// older than the last cutoff. Note that retention interacts with
	// cumulative analysis: compacted history no longer supports causes.
	LogRetention time.Duration
	// Sketch sets the drift log's tier-up threshold: an attribute with more
	// distinct values drops its bitmaps and is answered by row walks (see
	// driftlog.SketchConfig). The zero value selects the default, which
	// ordinary categorical attributes never cross.
	Sketch driftlog.SketchConfig
}

// DefaultConfig returns the paper-default cloud configuration.
func DefaultConfig() Config {
	th := fim.DefaultThresholds()
	// The model version is logged for observability, not as a candidate
	// cause attribute: mining it produces degenerate causes tied to
	// version IDs.
	th.ExcludeAttrs = []string{driftlog.AttrModel}
	ac := adapt.DefaultConfig()
	ac.MinSteps = 30
	return Config{
		RCAMode:            rca.Full,
		Thresholds:         th,
		AdaptCfg:           ac,
		MinSamplesPerCause: 16,
		AdaptClean:         true,
	}
}

// Service is the cloud side of Nazar.
type Service struct {
	cfg Config
	// clock supplies "now" for stage timing (tests substitute a fake).
	clock func() time.Time
	// metrics, when non-nil, receives every operational event
	// (WithObserver). The nil default keeps the hot paths free of even
	// the atomic adds.
	metrics *Metrics

	mu   sync.Mutex
	log  *driftlog.Store
	base *nn.Network
	// inDim is the width of the vectors the model takes (0 when its first
	// layer is not Dense). Adaptation never changes it, so ingest checks
	// uploaded samples against it without the lock.
	inDim int
	// nextSample is the next sample ID to assign, seeded past every ID
	// the log already holds after WAL replay.
	nextSample atomic.Int64
	// versionSeq disambiguates version IDs across windows.
	versionSeq int
	// deployed is the history of every version produced, in order.
	deployed []adapt.BNVersion
	// alerter, when set, receives one alert per diagnosed cause.
	alerter Alerter
	// refBN is the initial base's BN state, pinned as the delta
	// reference for compressed version transfer.
	refBN *nn.BNSnapshot

	// acMu guards acache, the incremental window-analysis cache (see
	// analyze).
	acMu   sync.Mutex
	acache analysisCache

	// walDir/walOpts are set by WithWAL; wal (or walErr) is resolved
	// once in NewService and read-only afterwards.
	walDir  string
	walOpts driftlog.WALOptions
	wal     *driftlog.WAL
	walErr  error
}

// ErrDurability marks ingest failures on the durability path: the WAL
// could not persist the batch (or never opened), so the write was NOT
// applied and the entries are NOT acknowledged. Transports must treat
// it as transient — retrying against a restarted service redelivers the
// batch — which is why the HTTP layer maps it to a 5xx, never a 4xx.
var ErrDurability = errors.New("cloud: durability failure")

// analysisCache carries the previous analysis run's identity and mining
// state. The identity is (window bounds, per-shard pinned row counts,
// compaction generation): shards are append-only between compactions,
// so equal identity means the exact same rows — the causes are reused
// wholesale — and a grown identity (same lower bound, same-or-later
// upper bound, pointwise ≥ row counts) means the previous rows are a
// stable prefix, so mining counts only the delta rows (fim.MineCache).
// Any compaction bumps the store's generation counter and voids the
// cache.
type analysisCache struct {
	valid       bool
	fromN, toN  int64
	shardRows   []int
	compactions int64
	mine        *fim.MineCache
	causes      []rca.Cause
}

// Option customizes service construction (the DefaultConfig/Config pair
// remains the compatibility shim for the paper-parameter knobs; options
// cover operational wiring).
type Option func(*Service)

// WithObserver instruments the service on the given registry: ingest
// counters, shard-occupancy gauges, per-stage window histograms and
// adaptation accept/reject counters (see NewMetrics for the full list).
func WithObserver(reg *obs.Registry) Option {
	return func(s *Service) {
		if reg != nil {
			s.metrics = NewMetrics(reg)
		}
	}
}

// WithWAL makes the drift log durable: every ingest batch is appended
// and fsynced to a write-ahead log in dir before it is applied in
// memory, and NewService replays any existing log in dir so a restarted
// service resumes with the rows it had acknowledged before dying.
// Open/replay failures are deferred to WALErr() — NewService cannot
// return an error — and ingest refuses with ErrDurability until
// resolved.
func WithWAL(dir string, opts driftlog.WALOptions) Option {
	return func(s *Service) {
		s.walDir = dir
		s.walOpts = opts
	}
}

// NewService creates the service around the initial trained model.
func NewService(base *nn.Network, cfg Config, opts ...Option) *Service {
	if cfg.Thresholds.MaxItems == 0 {
		cfg.Thresholds = fim.DefaultThresholds()
	}
	if cfg.MinSamplesPerCause <= 0 {
		cfg.MinSamplesPerCause = 16
	}
	s := &Service{
		cfg:   cfg,
		clock: time.Now,
		log:   driftlog.NewStoreWithSketch(cfg.Sketch),
		base:  base,
		refBN: nn.CaptureBN(base),
	}
	if len(base.LayersList) > 0 {
		if d, ok := base.LayersList[0].(*nn.Dense); ok {
			s.inDim = d.In
		}
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.walDir != "" {
		wal, err := driftlog.OpenWAL(s.walDir, s.log, s.walOpts)
		if err != nil {
			s.walErr = fmt.Errorf("cloud: wal open: %w", err)
		} else {
			s.wal = wal
			s.nextSample.Store(s.log.MaxSampleID() + 1)
		}
	}
	if s.metrics != nil {
		s.metrics.observeStores(s)
	}
	return s
}

// WAL returns the service's write-ahead log (nil unless WithWAL was
// used and the open succeeded).
func (s *Service) WAL() *driftlog.WAL { return s.wal }

// WALErr reports a WithWAL open/replay failure. A non-nil result means
// the service is NOT durable and refuses ingest; callers should treat
// it as fatal at startup.
func (s *Service) WALErr() error { return s.walErr }

// Close releases the service's durable resources: it flushes and closes
// the WAL (waiting out any background compaction). Idempotent; a
// service without a WAL closes trivially.
func (s *Service) Close() error {
	if s.wal != nil {
		return s.wal.Close()
	}
	return nil
}

// ReferenceBN returns the pinned BN state of the *initial* base model —
// the stable reference both ends use for delta-compressed version
// transfer. (The live base evolves with clean adaptation; the reference
// does not.)
func (s *Service) ReferenceBN() *nn.BNSnapshot { return s.refBN }

// Log exposes the drift log (read-mostly; used by experiments and the
// HTTP API).
func (s *Service) Log() *driftlog.Store { return s.log }

// Samples reads the uploaded vectors out of the drift log by sample ID.
// It is a read adapter kept for the benchmark harness and /v1/status;
// the window path gathers from its pinned view instead. A [benchmark]
// change that retargets bench/ onto View.Samples can delete it.
func (s *Service) Samples() SampleReader { return SampleReader{s.log} }

// SampleReader is the by-ID view of the drift log's sample column.
type SampleReader struct{ log *driftlog.Store }

// Gather materializes the vectors of the given sample IDs as a batch
// matrix (nil when none is held), rows in the order of ids; IDs whose
// rows were compacted, or never carried a vector, are skipped. It reads
// every sampled row of the log.
func (r SampleReader) Gather(ids []int64) *tensor.Matrix {
	all, xs, _ := r.log.All().Samples(nil) // no conditions: cannot fail
	byID := make(map[int64][]float64, len(all))
	for i, id := range all {
		byID[id] = xs[i]
	}
	var out [][]float64
	for _, id := range ids {
		if x := byID[id]; x != nil {
			out = append(out, x)
		}
	}
	return stack(out)
}

// Len returns the number of rows holding a vector.
func (r SampleReader) Len() int { return r.log.Stats().Samples }

// stack copies equal-length vectors into one matrix (nil when there are
// none).
func stack(xs [][]float64) *tensor.Matrix {
	if len(xs) == 0 {
		return nil
	}
	m := tensor.New(len(xs), len(xs[0]))
	for i, x := range xs {
		copy(m.Row(i), x)
	}
	return m
}

// Base returns the current clean model.
func (s *Service) Base() *nn.Network {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.base
}

// IngestBatchContext adapts row-form entries onto IngestColumnsContext —
// the edge adapter for callers that hold []driftlog.Entry (the in-process
// pipeline, examples, tests). entries is neither retained nor modified.
func (s *Service) IngestBatchContext(ctx context.Context, entries []driftlog.Entry, samples [][]float64) error {
	return s.IngestColumnsContext(ctx, driftlog.ColumnsFromEntries(entries), samples)
}

// IngestColumnsContext is the one ingest path: it links each uploaded
// vector to its row with a fresh sample ID, appends the batch to the WAL,
// then appends it to the drift log, which keeps the vectors as the
// batch's sample column. samples, when non-nil, replaces b.Samples and
// must have one element per row; a nil element means the row carried no
// uploaded input, and every other element must be as wide as the model's
// input (a vector adaptation cannot take is refused here, not left to
// fail every window that gathers it). Sample IDs are rewritten in b
// (rows without a sample normalize to -1). The write itself is
// non-blocking (sharded, lock-striped), so the context only gates entry:
// a batch is either rejected up front or recorded in full, never
// half-applied.
func (s *Service) IngestColumnsContext(ctx context.Context, b *driftlog.ColumnarBatch, samples [][]float64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if samples != nil {
		b.Samples = samples
	}
	if err := b.Validate(); err != nil {
		return fmt.Errorf("cloud: ingest: %w", err)
	}
	var sampleCount, sampleBytes int
	for i, x := range b.Samples {
		if len(x) > 0 {
			if s.inDim > 0 && len(x) != s.inDim {
				return fmt.Errorf("cloud: ingest: row %d: sample has %d features, the model takes %d", i, len(x), s.inDim)
			}
			sampleCount++
			sampleBytes += 8 * len(x)
		}
	}
	// A WAL already known bad refuses every batch, and the transport
	// retries a refused batch indefinitely: check before any sample ID is
	// spent on it.
	if err := s.walUsable(); err != nil {
		return err
	}
	next := s.nextSample.Add(int64(sampleCount)) - int64(sampleCount)
	for i := range b.SampleIDs {
		if b.Samples != nil && len(b.Samples[i]) > 0 {
			b.SampleIDs[i] = next
			next++
		} else {
			b.SampleIDs[i] = -1
		}
	}
	// WAL first: the batch must be durable before it is queryable, or a
	// crash between the two would acknowledge rows that replay cannot
	// restore. A batch too large for one record is the batch's fault, not
	// the log's: the WAL refused it whole and stays healthy, so it is not
	// a durability failure, and retrying it could never succeed.
	if s.wal != nil {
		if err := s.wal.AppendColumns(b); errors.Is(err, driftlog.ErrFrameTooLarge) {
			return fmt.Errorf("cloud: ingest: %w", err)
		} else if err != nil {
			return fmt.Errorf("%w: %w", ErrDurability, err)
		}
	}
	if err := s.log.AppendColumns(b); err != nil {
		return fmt.Errorf("cloud: ingest: %w", err)
	}
	if m := s.metrics; m != nil {
		m.ingestEntries.Add(uint64(b.Rows()))
		m.ingestBatches.Inc()
		m.ingestSamples.Add(uint64(sampleCount))
		m.ingestBytes.Add(uint64(sampleBytes))
	}
	return nil
}

// walUsable reports (as ErrDurability) a WAL that never opened or has
// since been poisoned, severed or closed. Nil without WithWAL.
func (s *Service) walUsable() error {
	err := s.walErr
	if err == nil && s.wal != nil {
		err = s.wal.Err()
	}
	if err != nil {
		return fmt.Errorf("%w: %w", ErrDurability, err)
	}
	return nil
}

// WindowResult is the outcome of one analysis/adaptation cycle.
type WindowResult struct {
	Causes   []rca.Cause
	Versions []adapt.BNVersion
	// LogRows is the number of drift-log rows scanned.
	LogRows int
	// RCADuration and AdaptDuration decompose the cycle's latency
	// (§5.8: analysis seconds vs adaptation minutes).
	RCADuration   time.Duration
	AdaptDuration time.Duration
}

// RunWindowContext executes one cycle of Nazar's cloud loop over drift-log
// rows in [from, to): root-cause analysis, per-cause adaptation (plus
// clean re-adaptation), returning the versions to deploy. now stamps the
// produced versions. The context threads through mining, counterfactual
// pruning and every adaptation run, so cancelling the request aborts the
// worker-pool fan-out mid-window and returns ctx.Err() promptly. A
// cancelled cycle deploys nothing and leaves the base model untouched.
func (s *Service) RunWindowContext(ctx context.Context, from, to, now time.Time) (WindowResult, error) {
	var res WindowResult
	m := s.metrics
	if m != nil {
		m.windowRuns.Inc()
	}
	windowStart := s.clock()
	fail := func(err error) (WindowResult, error) {
		if m != nil {
			m.windowErrors.Inc()
		}
		return res, err
	}
	if s.cfg.LogRetention > 0 {
		s.log.Compact(now.Add(-s.cfg.LogRetention))
	}
	v := s.log.Window(from, to)
	res.LogRows = v.Len()

	rcaStart := s.clock()
	causes, err := s.analyze(ctx, v)
	if err != nil {
		return fail(wrapUnlessCancelled(ctx, err, "cloud: analysis"))
	}
	res.RCADuration = s.clock().Sub(rcaStart)
	res.Causes = causes
	s.alertCauses(v, causes, now)

	adaptStart := s.clock()
	base := s.Base()

	// The clean re-adaptation and the by-cause runs both only read base,
	// so they share one fan-out; nothing is deployed until all of it has
	// succeeded.
	var runs adapt.Runs
	var adaptErr error
	pprof.Do(ctx, pprof.Labels("nazar_stage", "adapt"), func(ctx context.Context) {
		var cleanX *tensor.Matrix
		if s.cfg.AdaptClean {
			if x := stack(cleanSamples(v, causes)); x != nil && x.Rows >= s.cfg.MinSamplesPerCause {
				cleanX = x
			}
		}
		runs, adaptErr = adapt.WindowContext(ctx, base, causes, causeSamples(v, s.cfg.MinSamplesPerCause), s.cfg.MinSamplesPerCause, cleanX, s.cfg.AdaptCfg, now)
	})
	if adaptErr != nil {
		return fail(wrapUnlessCancelled(ctx, adaptErr, "cloud: adaptation"))
	}
	versions := runs.Versions
	if runs.Clean != nil {
		s.mu.Lock()
		s.base = runs.Clean
		s.versionSeq++
		seq := s.versionSeq
		s.mu.Unlock()
		versions = append(versions, adapt.BNVersion{
			ID:        fmt.Sprintf("clean@%d#%d", now.Unix(), seq),
			Snapshot:  nn.CaptureBN(runs.Clean),
			CreatedAt: now,
		})
	}
	res.AdaptDuration = s.clock().Sub(adaptStart)
	res.Versions = versions
	s.mu.Lock()
	s.deployed = append(s.deployed, versions...)
	s.mu.Unlock()
	if m != nil {
		m.observeRuns(runs)
		m.observeWindow(res, s.clock().Sub(windowStart))
	}
	return res, nil
}

// wrapUnlessCancelled preserves raw context errors (callers detect them
// via ctx.Err()) and wraps everything else with the stage name.
func wrapUnlessCancelled(ctx context.Context, err error, stage string) error {
	if ctx.Err() != nil {
		return err
	}
	return fmt.Errorf("%s: %w", stage, err)
}

// analyze runs root-cause analysis through the incremental
// window-analysis cache:
//
//   - unchanged window (same bounds, same pinned rows, no compaction):
//     the cached causes are returned without re-mining anything;
//   - grown window (same lower bound, row set a superset): mining
//     counts only the delta rows via rca.AnalyzeIncrementalContext;
//   - anything else (different window, compaction, first run): a full
//     analysis, which repopulates the cache.
//
// Results are identical to a fresh analysis in every case: the hit path
// replays a deterministic computation's output, and the delta path's
// counts are exact-integer sums over a disjoint row decomposition.
func (s *Service) analyze(ctx context.Context, v *driftlog.View) ([]rca.Cause, error) {
	fromN, toN := v.Bounds()
	rows := v.ShardRows()
	comp := s.log.Compactions()

	s.acMu.Lock()
	ac := s.acache
	s.acMu.Unlock()

	var delta *driftlog.View
	var prev *fim.MineCache
	outcome := "miss"
	if ac.valid && ac.fromN == fromN && ac.compactions == comp {
		if ac.toN == toN && slices.Equal(ac.shardRows, rows) {
			if m := s.metrics; m != nil {
				m.analysisCacheHits.Inc()
			}
			return append([]rca.Cause(nil), ac.causes...), nil
		}
		if toN >= ac.toN && rowsGrown(ac.shardRows, rows) {
			if d, err := v.Since(ac.shardRows, ac.toN); err == nil {
				delta, prev = d, ac.mine
				outcome = "delta"
			}
		}
	}
	causes, mine, err := rca.AnalyzeIncrementalContext(ctx, v, delta, prev,
		rca.Config{Thresholds: s.cfg.Thresholds}, s.cfg.RCAMode)
	if err != nil {
		return nil, err
	}
	if m := s.metrics; m != nil {
		if outcome == "delta" {
			m.analysisCacheDeltas.Inc()
		} else {
			m.analysisCacheMisses.Inc()
		}
	}
	s.acMu.Lock()
	s.acache = analysisCache{
		valid:       true,
		fromN:       fromN,
		toN:         toN,
		shardRows:   rows,
		compactions: comp,
		mine:        mine,
		causes:      append([]rca.Cause(nil), causes...),
	}
	s.acMu.Unlock()
	return causes, nil
}

// rowsGrown reports b[i] >= a[i] elementwise (b strictly contains a's
// rows as a prefix, shard by shard).
func rowsGrown(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if b[i] < a[i] {
			return false
		}
	}
	return true
}

// VersionsSince returns every produced version with CreatedAt ≥ since
// (devices poll this to pull new deployments).
func (s *Service) VersionsSince(since time.Time) []adapt.BNVersion {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []adapt.BNVersion
	for _, v := range s.deployed {
		if !v.CreatedAt.Before(since) {
			out = append(out, v)
		}
	}
	return out
}

// causeSamples is the by-cause adaptation source over one pinned view: a
// cause's pool is the vectors of the view's rows it matches, ascending by
// sample ID; nil, and no walk, when under floor rows match at all.
func causeSamples(v *driftlog.View, floor int) func(rca.Cause) *tensor.Matrix {
	return func(c rca.Cause) *tensor.Matrix {
		if n, _ := v.Count(c.Items, nil); n.Total < floor {
			return nil
		}
		_, xs, _ := v.Samples(c.Items) // nil for an attribute v lacks
		return stack(xs)
	}
}

// cleanSamples returns the vectors of the view's rows that match no
// cause, ascending by sample ID — the clean re-adaptation pool. It costs
// the window's sampled rows plus each cause's matches, and sorting the
// caused IDs; a cause naming an attribute the view does not hold matches
// no row and removes nothing.
func cleanSamples(v *driftlog.View, causes []rca.Cause) [][]float64 {
	var caused []int64
	for _, c := range causes {
		ids, _ := v.SampleIDs(c.Items)
		caused = append(caused, ids...)
	}
	slices.Sort(caused)
	ids, xs, _ := v.Samples(nil) // no conditions: cannot fail
	var out [][]float64
	for i, id := range ids {
		if _, hit := slices.BinarySearch(caused, id); !hit {
			out = append(out, xs[i])
		}
	}
	return out
}
