// Package cloud implements the cloud half of Nazar: drift-log ingestion,
// the sample store for uploaded inputs, the periodic root-cause-analysis
// job, by-cause adaptation and version deployment.
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
	"sort"
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

// sampleShards is the SampleStore shard count (power of two).
const (
	sampleShards    = 16
	sampleShardMask = sampleShards - 1
)

// sampleShard holds every sample whose ID ≡ shard index (mod
// sampleShards), densely packed: the vector for ID id lives at position
// id/sampleShards - basePos.
type sampleShard struct {
	mu      sync.RWMutex
	basePos int64 // position of vectors[0]
	vectors [][]float64
}

// SampleStore holds uploaded input samples keyed by ID. IDs are assigned
// from a global counter and strided across shards, so concurrent devices
// upload without contending on a single mutex. With a positive capacity
// it retains only the most recent samples — IDs below the eviction
// watermark (next-capacity) gather nothing — bounding cloud memory the
// way the paper's S3 lifecycle rules would.
type SampleStore struct {
	// first is the first ID this store assigns (see startAt); IDs below it
	// belong to a previous process and gather nothing.
	first    int64
	next     atomic.Int64
	capacity int64 // 0 = unbounded
	evicted  atomic.Int64
	shards   [sampleShards]sampleShard
}

// NewSampleStore returns an unbounded store.
func NewSampleStore() *SampleStore { return &SampleStore{} }

// NewBoundedSampleStore returns a store retaining at most capacity
// samples.
func NewBoundedSampleStore(capacity int) *SampleStore {
	return &SampleStore{capacity: int64(capacity)}
}

// startAt makes id the first ID the store assigns. Samples live only in
// memory, so drift-log rows restored from disk carry IDs of samples that
// no longer exist; starting above the largest of them keeps a restored
// row's link from ever resolving to a sample uploaded after the restart.
// Must be called before the first Add.
func (s *SampleStore) startAt(id int64) {
	s.first = id
	s.next.Store(id)
	for i := range s.shards {
		// Position of the first ID >= id that lands in shard i.
		s.shards[i].basePos = (id + (int64(i)-id)&sampleShardMask) / sampleShards
	}
}

// watermark returns the smallest retained ID (first when unbounded).
func (s *SampleStore) watermark() int64 {
	if s.capacity > 0 {
		if w := s.next.Load() - s.capacity; w > s.first {
			return w
		}
	}
	return s.first
}

// Add stores a sample and returns its ID.
func (s *SampleStore) Add(x []float64) int64 {
	id := s.next.Add(1) - 1
	sh := &s.shards[id&sampleShardMask]
	pos := id / sampleShards
	v := append([]float64(nil), x...)
	sh.mu.Lock()
	// Concurrent adders may reach the shard out of ID order; grow with
	// gaps that the lagging adder fills.
	for int64(len(sh.vectors)) <= pos-sh.basePos {
		sh.vectors = append(sh.vectors, nil)
	}
	sh.vectors[pos-sh.basePos] = v
	// Lazily trim everything below the eviction watermark.
	if w := s.watermark(); w > 0 {
		shardIdx := id & sampleShardMask
		minPos := int64(0)
		if w > shardIdx {
			minPos = (w - shardIdx + sampleShards - 1) / sampleShards
		}
		if drop := minPos - sh.basePos; drop > 0 {
			if drop > int64(len(sh.vectors)) {
				drop = int64(len(sh.vectors))
			}
			sh.vectors = append([][]float64(nil), sh.vectors[drop:]...)
			sh.basePos += drop
			s.evicted.Add(drop)
		}
	}
	sh.mu.Unlock()
	return id
}

// Len returns the number of retained samples.
func (s *SampleStore) Len() int {
	n := s.next.Load() - s.first
	if s.capacity > 0 && n > s.capacity {
		return int(s.capacity)
	}
	return int(n)
}

// SampleStoreStats is an operational snapshot of the sample store,
// consumed by the observability layer at scrape time.
type SampleStoreStats struct {
	// Added counts every sample ever stored; Retained is the current
	// (post-eviction) count; Evicted counts samples trimmed by the
	// capacity bound.
	Added    int64
	Retained int
	Evicted  int64
	// ShardRows is the per-shard retained row count (occupancy balance).
	ShardRows []int
}

// Stats returns the current operational snapshot.
func (s *SampleStore) Stats() SampleStoreStats {
	st := SampleStoreStats{
		Added:     s.next.Load() - s.first,
		Retained:  s.Len(),
		Evicted:   s.evicted.Load(),
		ShardRows: make([]int, sampleShards),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		st.ShardRows[i] = len(sh.vectors)
		sh.mu.RUnlock()
	}
	return st
}

// Gather materializes the samples with the given IDs as a batch matrix
// (nil when ids is empty), rows in the order of ids. Unknown or evicted
// IDs are skipped.
func (s *SampleStore) Gather(ids []int64) *tensor.Matrix {
	for i := range s.shards {
		s.shards[i].mu.RLock()
	}
	defer func() {
		for i := range s.shards {
			s.shards[i].mu.RUnlock()
		}
	}()
	next, w := s.next.Load(), s.watermark()
	var rows [][]float64
	for _, id := range ids {
		if id < w || id >= next {
			continue
		}
		sh := &s.shards[id&sampleShardMask]
		pos := id/sampleShards - sh.basePos
		if pos < 0 || pos >= int64(len(sh.vectors)) || sh.vectors[pos] == nil {
			continue
		}
		rows = append(rows, sh.vectors[pos])
	}
	if len(rows) == 0 {
		return nil
	}
	m := tensor.New(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

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
	// analysis, bounding log growth. Note that retention interacts with
	// cumulative analysis: compacted history no longer supports causes.
	LogRetention time.Duration
	// Sketch tunes the drift log's tiered approximate-counting layer for
	// high-cardinality attributes (see driftlog.SketchConfig). The zero
	// value selects the defaults; ordinary categorical attributes never
	// cross the default threshold, so behavior is exact unless the fleet
	// actually logs a high-cardinality attribute.
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

// sampleMeta records the attributes a sample arrived with, so samples can
// be grouped by cause (or by "no cause" for clean adaptation).
type sampleMeta struct {
	id    int64
	attrs map[string]string
	t     time.Time
}

// metaShard buckets sample metadata by sample ID so concurrent ingests
// do not serialize on the service mutex.
type metaShard struct {
	mu    sync.Mutex
	metas []sampleMeta
}

// Service is the cloud side of Nazar.
type Service struct {
	cfg Config
	// clock supplies "now" for stage timing (WithClock substitutes a
	// fake in tests).
	clock func() time.Time
	// metrics, when non-nil, receives every operational event
	// (WithObserver). The nil default keeps the hot paths free of even
	// the atomic adds.
	metrics *Metrics

	mu      sync.Mutex
	log     *driftlog.Store
	samples *SampleStore
	meta    [sampleShards]metaShard
	base    *nn.Network
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

// WithClock substitutes the time source used for stage timing and
// observability (defaults to time.Now).
func WithClock(clock func() time.Time) Option {
	return func(s *Service) {
		if clock != nil {
			s.clock = clock
		}
	}
}

// WithSampleCap bounds the sample store to the given capacity (the S3
// lifecycle rule of the paper's deployment). capacity <= 0 keeps the
// store unbounded.
func WithSampleCap(capacity int) Option {
	return func(s *Service) {
		if capacity > 0 {
			s.samples = NewBoundedSampleStore(capacity)
		}
	}
}

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
		cfg:     cfg,
		clock:   time.Now,
		log:     driftlog.NewStoreWithSketch(cfg.Sketch),
		samples: NewSampleStore(),
		base:    base,
		refBN:   nn.CaptureBN(base),
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
			s.samples.startAt(s.log.MaxSampleID() + 1)
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

// Observer returns the service's metrics hook (nil unless WithObserver
// was used).
func (s *Service) Observer() *Metrics { return s.metrics }

// ReferenceBN returns the pinned BN state of the *initial* base model —
// the stable reference both ends use for delta-compressed version
// transfer. (The live base evolves with clean adaptation; the reference
// does not.)
func (s *Service) ReferenceBN() *nn.BNSnapshot { return s.refBN }

// Log exposes the drift log (read-mostly; used by experiments and the
// HTTP API).
func (s *Service) Log() *driftlog.Store { return s.log }

// Samples exposes the sample store.
func (s *Service) Samples() *SampleStore { return s.samples }

// Base returns the current clean model.
func (s *Service) Base() *nn.Network {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.base
}

// recordMeta files a sample's metadata in its ID shard and drops the
// shard's leading entries below the eviction watermark — the lazy rule
// SampleStore.Add trims vectors by — so under a sample cap metadata is
// bounded by the same cap. (An entry filed out of ID order behind a newer
// one waits until that one is evicted; Gather skips it meanwhile.)
func (s *Service) recordMeta(m sampleMeta) {
	w := s.samples.watermark()
	sh := &s.meta[m.id&sampleShardMask]
	sh.mu.Lock()
	k := 0
	for k < len(sh.metas) && sh.metas[k].id < w {
		k++
	}
	clear(sh.metas[:k]) // release the attribute maps now, the slots at the next growth
	sh.metas = append(sh.metas[k:], m)
	sh.mu.Unlock()
}

// allMeta snapshots every shard's metadata, ordered by sample ID.
func (s *Service) allMeta() []sampleMeta {
	var out []sampleMeta
	for i := range s.meta {
		sh := &s.meta[i]
		sh.mu.Lock()
		out = append(out, sh.metas...)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].id < out[b].id })
	return out
}

// IngestBatchContext adapts row-form entries onto IngestColumnsContext —
// the edge adapter for callers that hold []driftlog.Entry (the in-process
// pipeline, examples, tests). entries is neither retained nor modified.
func (s *Service) IngestBatchContext(ctx context.Context, entries []driftlog.Entry, samples [][]float64) error {
	return s.IngestColumnsContext(ctx, driftlog.ColumnsFromEntries(entries), samples)
}

// IngestColumnsContext is the one ingest path: it links uploaded samples
// to their rows, appends the batch to the WAL, then appends it to the
// drift log. samples, when non-nil, must have one element per row;
// samples[i] == nil means row i carried no uploaded input. Sample IDs are
// rewritten in b (rows without a sample normalize to -1). The write
// itself is non-blocking (sharded, lock-striped), so the context only
// gates entry: a batch is either rejected up front or recorded in full,
// never half-applied.
func (s *Service) IngestColumnsContext(ctx context.Context, b *driftlog.ColumnarBatch, samples [][]float64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := b.Validate(); err != nil {
		return fmt.Errorf("cloud: ingest: %w", err)
	}
	rows := b.Rows()
	if samples != nil && len(samples) != rows {
		return fmt.Errorf("cloud: ingest: %d rows but %d samples", rows, len(samples))
	}
	// A WAL already known bad refuses every batch, and the transport
	// retries a refused batch indefinitely: check before the sample store
	// is touched, or each retry would leave its samples behind.
	if err := s.walUsable(); err != nil {
		return err
	}
	var sampleCount, sampleBytes int
	for i := 0; i < rows; i++ {
		if samples != nil && samples[i] != nil {
			id := s.samples.Add(samples[i])
			b.SampleIDs[i] = id
			s.recordMeta(sampleMeta{id: id, attrs: b.RowAttrs(i), t: time.Unix(0, b.Times[i]).UTC()})
			sampleCount++
			sampleBytes += 8 * len(samples[i])
		} else {
			b.SampleIDs[i] = -1
		}
	}
	// WAL first: the batch must be durable before it is queryable, or a
	// crash between the two would acknowledge rows that replay cannot
	// restore.
	if s.wal != nil {
		if err := s.wal.AppendColumns(b); err != nil {
			return fmt.Errorf("%w: %w", ErrDurability, err)
		}
	}
	if err := s.log.AppendColumns(b); err != nil {
		return fmt.Errorf("cloud: ingest: %w", err)
	}
	if m := s.metrics; m != nil {
		m.ingestEntries.Add(uint64(rows))
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
		if ctx.Err() != nil {
			return fail(err)
		}
		return fail(fmt.Errorf("cloud: analysis: %w", err))
	}
	res.RCADuration = s.clock().Sub(rcaStart)
	res.Causes = causes
	s.alertCauses(causes, from, to, now)

	adaptStart := s.clock()
	base := s.Base()

	source := func(c rca.Cause) *tensor.Matrix {
		ids, err := v.SampleIDs(c.Items)
		if err != nil {
			return nil
		}
		return s.samples.Gather(ids)
	}
	// The clean re-adaptation and the by-cause runs both only read base,
	// so they share one fan-out; nothing is deployed until all of it has
	// succeeded.
	var runs adapt.Runs
	var adaptErr error
	pprof.Do(ctx, pprof.Labels("nazar_stage", "adapt"), func(ctx context.Context) {
		var cleanX *tensor.Matrix
		if s.cfg.AdaptClean {
			if x := s.cleanSamples(causes, from, to); x != nil && x.Rows >= s.cfg.MinSamplesPerCause {
				cleanX = x
			}
		}
		runs, adaptErr = adapt.WindowContext(ctx, base, causes, source, s.cfg.MinSamplesPerCause, cleanX, s.cfg.AdaptCfg, now)
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
		if ac.toN == toN && rowsEqual(ac.shardRows, rows) {
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

// rowsEqual reports a == b elementwise.
func rowsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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

// SaveLog persists the drift log to path (atomic write).
func (s *Service) SaveLog(path string) error { return s.log.SaveFile(path) }

// LoadLog appends previously persisted drift-log rows from path. It is a
// startup call, made before the first ingest: the loaded rows' sample
// links are stale (samples are not persisted), and the sample ID counter
// is moved past them so they gather nothing.
func (s *Service) LoadLog(path string) error {
	if err := s.log.LoadFile(path); err != nil {
		return err
	}
	if s.samples.Len() == 0 {
		s.samples.startAt(s.log.MaxSampleID() + 1)
	}
	return nil
}

// cleanSamples gathers in-window samples whose attributes match no
// discovered cause.
func (s *Service) cleanSamples(causes []rca.Cause, from, to time.Time) *tensor.Matrix {
	metas := s.allMeta()
	var ids []int64
	for _, m := range metas {
		if !from.IsZero() && m.t.Before(from) {
			continue
		}
		if !to.IsZero() && !m.t.Before(to) {
			continue
		}
		if rca.AssignCause(causes, m.attrs) == -1 {
			ids = append(ids, m.id)
		}
	}
	return s.samples.Gather(ids)
}
