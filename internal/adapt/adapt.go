// Package adapt implements Nazar's self-supervised model adaptation
// (§3.4): TENT entropy minimization (Eq. 2) and MEMO marginal-entropy
// minimization (Eq. 3), both restricted to batch-norm parameters, plus
// the by-cause adaptation manager that produces one deployable "BN
// version" per root cause and the adapt-all baseline the paper compares
// against.
package adapt

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"time"

	"nazar/internal/nn"
	"nazar/internal/rca"
	"nazar/internal/tensor"
)

// Method selects the self-supervised objective.
type Method string

const (
	// TENT minimizes prediction entropy over batches (the paper's
	// default — it "largely outperforms MEMO in both strategies").
	TENT Method = "tent"
	// MEMO minimizes the marginal entropy over augmented copies of
	// each input.
	MEMO Method = "memo"
)

// AugmentFunc produces a randomly augmented copy of an input (used by
// MEMO; imagesim.World.Augment satisfies it).
type AugmentFunc func(x []float64, rng *rand.Rand) []float64

// Config controls one adaptation run.
type Config struct {
	Method Method
	// LR is the Adam learning rate over the BN affine parameters.
	LR float64
	// Epochs is the number of passes over the sample pool.
	Epochs int
	// BatchSize is the adaptation batch size (TENT needs > 1 so the
	// entropy objective cannot collapse per-sample).
	BatchSize int
	// MaxBatchesPerEpoch caps work per epoch (0 = no cap).
	MaxBatchesPerEpoch int
	// MinSteps extends the number of epochs so at least this many
	// optimizer steps run even when the sample pool is small (a window
	// may only collect a few dozen uploads per cause).
	MinSteps int
	// Augmentations is the number of MEMO copies per input.
	Augmentations int
	// Augment is required for MEMO.
	Augment AugmentFunc
	// EntropyFilter, when positive, skips samples whose prediction
	// entropy exceeds EntropyFilter·ln(C) during TENT (an EATA-style
	// reliability filter: very-high-entropy samples carry noisy
	// gradients). 0 disables filtering.
	EntropyFilter float64
	Rng           *rand.Rand
}

// DefaultConfig returns calibrated TENT defaults.
func DefaultConfig() Config {
	return Config{Method: TENT, LR: 0.005, Epochs: 3, BatchSize: 64, Augmentations: 8}
}

func (c Config) withDefaults() Config {
	if c.Method == "" {
		c.Method = TENT
	}
	if c.LR <= 0 {
		c.LR = 0.005
	}
	if c.Epochs <= 0 {
		c.Epochs = 3
	}
	if c.BatchSize <= 1 {
		c.BatchSize = 64
	}
	if c.Augmentations <= 1 {
		c.Augmentations = 8
	}
	if c.Rng == nil {
		c.Rng = tensor.NewRand(0xADA, 1)
	}
	return c
}

// AdaptContext clones base, freezes everything except batch-norm γ/β,
// runs the configured self-supervised objective over the unlabeled
// samples, and returns the adapted clone. The base network is never
// mutated. The context is checked before every optimizer step, so a
// cancelled window abandons the (minutes-long, §5.8) adaptation stage
// after at most one batch.
func AdaptContext(ctx context.Context, base *nn.Network, samples *tensor.Matrix, cfg Config) (*nn.Network, error) {
	cfg = cfg.withDefaults()
	if samples == nil || samples.Rows == 0 {
		return nil, fmt.Errorf("adapt: no samples to adapt on")
	}
	// Uploaded samples arrive from outside the process; a width the model
	// cannot take must fail this run, not panic in a fan-out goroutine.
	if len(base.LayersList) > 0 {
		if d, ok := base.LayersList[0].(*nn.Dense); ok && samples.Cols != d.In {
			return nil, fmt.Errorf("adapt: samples have %d features, the model takes %d", samples.Cols, d.In)
		}
	}
	switch cfg.Method {
	case TENT:
	case MEMO:
		if cfg.Augment == nil {
			return nil, fmt.Errorf("adapt: MEMO requires an augmentation function")
		}
	default:
		return nil, fmt.Errorf("adapt: unknown method %q", cfg.Method)
	}
	run := newRunner(base, samples, cfg)
	defer run.release()

	n := samples.Rows
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	epochs := cfg.Epochs
	if cfg.MinSteps > 0 {
		stepsPerEpoch := (n + cfg.BatchSize - 1) / cfg.BatchSize
		if cfg.MaxBatchesPerEpoch > 0 && stepsPerEpoch > cfg.MaxBatchesPerEpoch {
			stepsPerEpoch = cfg.MaxBatchesPerEpoch
		}
		if need := (cfg.MinSteps + stepsPerEpoch - 1) / stepsPerEpoch; need > epochs {
			epochs = need
		}
	}
	for epoch := 0; epoch < epochs; epoch++ {
		cfg.Rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		batches := 0
		for s := 0; s < n; s += cfg.BatchSize {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if cfg.MaxBatchesPerEpoch > 0 && batches >= cfg.MaxBatchesPerEpoch {
				break
			}
			e := min(s+cfg.BatchSize, n)
			if e-s < 2 && cfg.Method == TENT {
				break // a singleton TENT batch has a degenerate objective
			}
			run.step(idx[s:e])
			batches++
		}
	}
	run.net.UnfreezeAll()
	return run.net, nil
}

// runner is one adaptation run: the in-training clone, its optimizer and
// the per-step scratch (the gathered batch, the MEMO augmented-copies
// matrix, the loss gradient, the softmax scratch of the reliability
// filter). Buffers grow to the largest shape seen and are reused across
// every optimizer step, so steady-state adaptation does not allocate
// (pinned by TestAdaptSteadyStateAllocs).
type runner struct {
	cfg Config
	net *nn.Network
	opt *nn.Adam
	// Batches are gathered from src and enter the network at layer from.
	// TENT never changes what the frozen leading Dense layers compute for
	// a sample, so it forwards the whole pool through them once (prefix,
	// an arena buffer) and every step starts above them; MEMO augments
	// its inputs per step and starts from the samples at layer 0.
	src, prefix *tensor.Matrix
	from        int

	batch, copies, dlogits tensor.Matrix
	probs                  []float64
}

// newRunner clones base in the TENT configuration (only BN γ/β
// trainable). cfg must be defaulted and validated. Pair with release.
func newRunner(base *nn.Network, samples *tensor.Matrix, cfg Config) *runner {
	run := &runner{cfg: cfg, net: base.Clone(), opt: nn.NewAdam(cfg.LR), src: samples}
	run.net.FreezeExceptBN()
	if cfg.Method == TENT {
		if run.prefix, run.from = run.net.ForwardFrozenPrefix(samples); run.prefix != nil {
			run.src = run.prefix
		}
	}
	return run
}

// release returns the frozen-prefix buffer to the workspace arena.
func (run *runner) release() { tensor.PutMatrix(run.prefix) }

// step runs one optimizer step on the pool rows sel: forward, the
// objective's gradient, the backward pass that reaches a trainable
// parameter, Adam.
func (run *runner) step(sel []int) {
	cfg, net := run.cfg, run.net
	batch := run.gatherRows(run.src, sel)
	var dlogits *tensor.Matrix
	net.ZeroGrads()
	switch cfg.Method {
	case TENT:
		logits := net.ForwardFrom(run.from, batch, nn.Adapt)
		_, dlogits = nn.EntropyInto(&run.dlogits, logits)
		if cfg.EntropyFilter > 0 {
			run.zeroUnreliableRows(logits, dlogits, cfg.EntropyFilter)
		}
	case MEMO:
		// TENT-style batching (§3.4): augment every input in the batch
		// so BN statistics come from the whole augmented batch, then
		// minimize the per-input marginal entropy.
		copies := run.copies.Reshape(batch.Rows*cfg.Augmentations, batch.Cols)
		for r := 0; r < batch.Rows; r++ {
			for a := 0; a < cfg.Augmentations; a++ {
				copy(copies.Row(r*cfg.Augmentations+a), cfg.Augment(batch.Row(r), cfg.Rng))
			}
		}
		logits := net.Forward(copies, nn.Adapt)
		_, dlogits = nn.GroupedMarginalEntropyInto(&run.dlogits, logits, cfg.Augmentations)
	}
	net.BackwardParams(dlogits)
	run.opt.Step(net.Params())
}

// zeroUnreliableRows zeroes the gradient rows of samples whose prediction
// entropy exceeds frac·ln(C) — they still contribute to the BN batch
// statistics but not to the γ/β update.
func (run *runner) zeroUnreliableRows(logits, grad *tensor.Matrix, frac float64) {
	limit := frac * math.Log(float64(logits.Cols))
	if cap(run.probs) < logits.Cols {
		run.probs = make([]float64, logits.Cols)
	}
	probs := run.probs[:logits.Cols]
	for i := 0; i < logits.Rows; i++ {
		p := tensor.SoftmaxTo(probs, logits.Row(i))
		if nn.EntropyOf(p) > limit {
			g := grad.Row(i)
			for j := range g {
				g[j] = 0
			}
		}
	}
}

// gatherRows copies the selected rows of m into the runner's reused
// batch buffer.
func (run *runner) gatherRows(m *tensor.Matrix, sel []int) *tensor.Matrix {
	out := run.batch.Reshape(len(sel), m.Cols)
	for i, r := range sel {
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// BNVersion is the deployable adaptation artifact: the batch-norm state
// of an adapted model tagged with the root cause it was adapted to. Only
// this (not the full model) is shipped to devices.
type BNVersion struct {
	ID        string
	Cause     rca.Cause // empty Items = the continuously-adapted clean model
	Snapshot  *nn.BNSnapshot
	CreatedAt time.Time
}

// SizeBytes returns the wire size of the version's BN payload.
func (v BNVersion) SizeBytes() int { return v.Snapshot.SizeBytes() }

// IsClean reports whether this is the clean (no-cause) model version.
func (v BNVersion) IsClean() bool { return len(v.Cause.Items) == 0 }

// SampleSource supplies the unlabeled uploaded samples associated with a
// root cause (nil/empty matrix when none were collected).
type SampleSource func(c rca.Cause) *tensor.Matrix

// ByCauseContext produces one BN version per cause by adapting a clone of
// base on that cause's samples (Nazar's core adaptation strategy): it is
// WindowContext without a clean pool.
func ByCauseContext(ctx context.Context, base *nn.Network, causes []rca.Cause, samples SampleSource, minSamples int, cfg Config, now time.Time) ([]BNVersion, error) {
	runs, err := WindowContext(ctx, base, causes, samples, minSamples, nil, cfg, now)
	return runs.Versions, err
}

// Runs is the outcome of one window's adaptation fan-out.
type Runs struct {
	// Versions holds one BN version per adapted cause, in cause order.
	Versions []BNVersion
	// Clean is base re-adapted on the clean pool (nil without one).
	Clean *nn.Network
	// ByCauseTimes[i] is the wall time of the run behind Versions[i] and
	// CleanTime that of the clean run. The runs overlap, so the times sum
	// to more than the fan-out took.
	ByCauseTimes []time.Duration
	CleanTime    time.Duration
}

// WindowContext runs a window's adaptation: one run per cause on that
// cause's samples, each yielding a BN version, plus — when clean is
// non-nil — one re-adaptation of base on the clean pool (the
// "continuously adapted clean model" of §3.4). Causes with fewer than
// minSamples uploads are skipped: adaptation on a handful of images
// underfits.
//
// The runs share one bounded worker pool (at most tensor.Workers() in
// flight) — each clones the base and they share no state (§5.8: "model
// adaptation can be easily parallelized"), so the window costs its
// longest chain of runs, not their sum. The clean run, usually the
// largest, is launched first. Every cause gets its own deterministic RNG
// derived from cfg.Rng's first draw and the cause key, the clean run
// consumes cfg.Rng after that draw — the order of by-cause followed by
// clean adaptation — and results land in index-addressed slots, so the
// output is identical at any pool width.
//
// No new run is launched after the context is cancelled, and in-flight
// runs abort at their next optimizer step; every launched run is awaited
// before returning. A cancelled call returns ctx.Err() and no results.
func WindowContext(ctx context.Context, base *nn.Network, causes []rca.Cause, samples SampleSource, minSamples int, clean *tensor.Matrix, cfg Config, now time.Time) (Runs, error) {
	if minSamples < 2 {
		minSamples = 2
	}
	// The clean run takes the caller's cfg as AdaptContext would after
	// ByCauseContext returned: a supplied Rng past the seed draw below, or
	// none and so its own fresh default.
	cleanCfg := cfg
	cfg = cfg.withDefaults()
	baseSeed := cfg.Rng.Uint64()

	// One slot per cause, the clean run's last.
	type slot struct {
		net  *nn.Network
		took time.Duration
		err  error
	}
	slots := make([]slot, len(causes)+1)
	sem := make(chan struct{}, tensor.Workers())
	var wg sync.WaitGroup
	launch := func(i int, sx *tensor.Matrix, runCfg Config) {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			start := time.Now()
			net, err := AdaptContext(ctx, base, sx, runCfg)
			slots[i] = slot{net: net, took: time.Since(start), err: err}
		}()
	}
	if clean != nil && ctx.Err() == nil {
		launch(len(causes), clean, cleanCfg)
	}
	for i, c := range causes {
		if ctx.Err() != nil {
			break
		}
		sx := samples(c)
		if sx == nil || sx.Rows < minSamples {
			continue
		}
		causeCfg := cfg
		causeCfg.Rng = tensor.NewRand(baseSeed^hashKey(c.Key()), uint64(i)+1)
		launch(i, sx, causeCfg)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return Runs{}, err
	}
	var runs Runs
	for i, c := range causes {
		s := slots[i]
		if s.err != nil {
			return Runs{}, fmt.Errorf("adapt: cause %s: %w", c, s.err)
		}
		if s.net == nil {
			continue
		}
		runs.Versions = append(runs.Versions, BNVersion{
			ID:        fmt.Sprintf("%s@%d#%d", c.Key(), now.Unix(), i),
			Cause:     c,
			Snapshot:  nn.CaptureBN(s.net),
			CreatedAt: now,
		})
		runs.ByCauseTimes = append(runs.ByCauseTimes, s.took)
	}
	s := slots[len(causes)]
	if s.err != nil {
		return Runs{}, fmt.Errorf("adapt: clean model: %w", s.err)
	}
	runs.Clean, runs.CleanTime = s.net, s.took
	return runs, nil
}

// hashKey derives a stable seed from a cause key.
func hashKey(s string) uint64 {
	h := uint64(1469598103934665603)
	for _, b := range []byte(s) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// Materialize instantiates a runnable model from a base network and a BN
// version: a view of base (nn.Network.View) carrying the version's
// batch-norm state. It copies no weights, so base's Dense parameters
// must stay unwritten for as long as the result serves.
func Materialize(base *nn.Network, v BNVersion) (*nn.Network, error) {
	net := base.View()
	if err := v.Snapshot.ApplyTo(net); err != nil {
		return nil, fmt.Errorf("adapt: materialize %s: %w", v.ID, err)
	}
	return net, nil
}
