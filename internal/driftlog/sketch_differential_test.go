package driftlog

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"nazar/internal/tensor"
)

// sketchTestConfig is the geometry the sketch differential tests run
// with: a threshold low enough that the high-cardinality attribute tiers
// mid-ingest, buckets small enough that the window shapes cut through
// bucket boundaries, and a ring small enough that eviction into the rest
// bucket is exercised.
func sketchTestConfig() SketchConfig {
	return SketchConfig{
		Threshold:        16,
		Width:            4096,
		PairWidth:        8192,
		Depth:            4,
		Bucket:           100 * time.Second,
		MaxBuckets:       4,
		HeavyHitters:     64,
		PairHeavyHitters: 512,
		Seed:             7,
	}
}

// sketchStore builds a log with one high-cardinality attribute
// (app_version: ~vers distinct values, the first ten hot) alongside the
// usual low-cardinality ones, via mixed Append/AppendBatch ingest with
// scattered timestamps and randomly missing attributes.
func sketchStore(r *rand.Rand, n, vers int, cfg SketchConfig) *Store {
	s := NewStoreWithSketch(cfg)
	base := time.Unix(0, 0).UTC()
	var batch []Entry
	for i := 0; i < n; i++ {
		attrs := map[string]string{}
		if r.Float64() < 0.95 {
			attrs[AttrWeather] = fmt.Sprintf("w%d", r.Intn(6))
		}
		if r.Float64() < 0.9 {
			attrs[AttrLocation] = fmt.Sprintf("city_%d", r.Intn(9))
		}
		if r.Float64() < 0.9 {
			v := r.Intn(vers)
			if r.Float64() < 0.6 {
				v = r.Intn(10) // hot set
			}
			attrs["app_version"] = fmt.Sprintf("1.%d", v)
		}
		e := Entry{
			Time:     base.Add(time.Duration(r.Intn(1000)) * time.Second),
			Drift:    r.Float64() < 0.3,
			SampleID: -1,
			Attrs:    attrs,
		}
		if r.Float64() < 0.5 {
			s.AppendBatch([]Entry{e})
		} else {
			batch = append(batch, e)
		}
	}
	s.AppendBatch(batch)
	return s
}

// sketchWindows cuts both along and across the 100s bucket grid (aligned
// windows answer purely from sketches; unaligned ones force edge scans).
func sketchWindows() [][2]time.Time {
	base := time.Unix(0, 0).UTC()
	return [][2]time.Time{
		{{}, {}},
		{base.Add(200 * time.Second), base.Add(700 * time.Second)},
		{base.Add(250 * time.Second), base.Add(707 * time.Second)},
		{base.Add(33 * time.Second), base.Add(41 * time.Second)},
		{base.Add(5000 * time.Second), base.Add(6000 * time.Second)},
	}
}

// assertOneSided checks the sketch contract for one query: never below
// the exact result, above it by at most the analytic bound.
func assertOneSided(t *testing.T, ctx string, got, exact CountResult, bound int) {
	t.Helper()
	if got.Total < exact.Total || got.Drift < exact.Drift {
		t.Fatalf("%s: sketch %+v below exact %+v (must be one-sided)", ctx, got, exact)
	}
	if got.Drift > got.Total {
		t.Fatalf("%s: sketch drift %d > total %d", ctx, got.Drift, got.Total)
	}
	if got.Total-exact.Total > bound {
		t.Fatalf("%s: sketch total %d exceeds exact %d by more than bound %d", ctx, got.Total, exact.Total, bound)
	}
	if got.Drift-exact.Drift > bound {
		t.Fatalf("%s: sketch drift %d exceeds exact %d by more than bound %d", ctx, got.Drift, exact.Drift, bound)
	}
}

// TestSketchTierUp pins the tiering mechanics: the high-cardinality
// attribute tiers (sticky), its bitmaps are freed, the low-cardinality
// attributes stay exact and bit-identical to an all-exact twin store.
func TestSketchTierUp(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	cfg := sketchTestConfig()
	s := sketchStore(r, 3000, 300, cfg)

	if got := s.SketchedAttrs(); len(got) != 1 || got[0] != "app_version" {
		t.Fatalf("SketchedAttrs = %v, want [app_version]", got)
	}
	st := s.Stats()
	if st.SketchAttrs != 1 || st.SketchBuckets == 0 || st.SketchBytes == 0 {
		t.Fatalf("sketch stats not populated: %+v", st)
	}
	if st.SketchEvicted == 0 {
		t.Fatalf("expected bucket evictions with MaxBuckets=%d over 10 buckets of data", cfg.MaxBuckets)
	}

	// Twin store with sketching effectively disabled: identical data,
	// exact everywhere.
	exact := sketchStore(rand.New(rand.NewSource(1)), 3000, 300, SketchConfig{Threshold: 1 << 20})
	if n := len(exact.SketchedAttrs()); n != 0 {
		t.Fatalf("twin store sketched %d attrs", n)
	}
	// The sketched store must hold far fewer index words (app_version's
	// ~300 bitmaps freed).
	if st.IndexWords >= exact.Stats().IndexWords {
		t.Fatalf("sketched store index words %d not below exact twin %d", st.IndexWords, exact.Stats().IndexWords)
	}

	// Exact-tier queries are bit-identical between the stores.
	vs, ve := s.All(), exact.All()
	for _, conds := range diffConds() {
		cs, err1 := vs.Count(conds, nil)
		ce, err2 := ve.Count(conds, nil)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("error divergence %v %v", err1, err2)
		}
		if cs != ce {
			t.Fatalf("exact-tier conds %v: sketched-store %+v exact-store %+v", conds, cs, ce)
		}
		if ap, _ := vs.Approx(conds, nil); ap {
			t.Fatalf("exact-tier conds %v reported approximate", conds)
		}
	}
}

// TestSketchDifferentialBound is the sketch half of the PR's differential
// contract: every sketch-answered aggregate is one-sided against the
// exact row-scan reference and within the analytic error bound, across
// bucket-aligned and unaligned windows, odd shard fills, and pool widths
// 1 and 8 (results identical across widths).
func TestSketchDifferentialBound(t *testing.T) {
	type key struct {
		seed, wi, ci int
	}
	results := map[key]CountResult{}
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			tensor.SetMaxWorkers(workers)
			defer tensor.SetMaxWorkers(0)
			sizes := []int{65, 500, 3000}
			for seed := 0; seed < 6; seed++ {
				r := rand.New(rand.NewSource(int64(4000 + seed)))
				s := sketchStore(r, sizes[seed%len(sizes)], 200, sketchTestConfig())
				sketchedStore := len(s.SketchedAttrs()) > 0
				for wi, w := range sketchWindows() {
					vb := s.Window(w[0], w[1])
					conds := [][]Cond{
						{{"app_version", "1.3"}},
						{{"app_version", "1.7"}, {AttrWeather, "w1"}},
						{{"app_version", "1.150"}},
						{{"app_version", "no-such-version"}},
						{{"app_version", "1.0"}, {AttrLocation, "city_2"}, {AttrWeather, "w0"}},
					}
					for ci, cs := range conds {
						got, err1 := vb.Count(cs, nil)
						exact, err2 := refCount(vb, cs, nil)
						if err1 != nil || err2 != nil {
							t.Fatalf("seed %d window %d conds %d: errs %v %v", seed, wi, ci, err1, err2)
						}
						approx, bound := vb.Approx(cs, nil)
						if approx != sketchedStore {
							t.Fatalf("seed %d window %d conds %d: approx=%v, sketched store=%v", seed, wi, ci, approx, sketchedStore)
						}
						ctx := fmt.Sprintf("seed %d window %d conds %d", seed, wi, ci)
						if !approx {
							if got != exact {
								t.Fatalf("%s: exact-path %+v != oracle %+v", ctx, got, exact)
							}
						} else if len(cs) <= 2 {
							// One or two conditions: a covering sketch
							// exists, so the bound is against the true
							// conjunction.
							assertOneSided(t, ctx, got, exact, bound)
						} else {
							// Wider conjunctions: one-sided, and within the
							// reported bound of the tightest exact pair
							// marginal (no sketch covers the conjunction).
							if got.Total < exact.Total || got.Drift < exact.Drift {
								t.Fatalf("%s: sketch %+v below exact %+v", ctx, got, exact)
							}
							tightest := int(^uint(0) >> 1)
							for i := 0; i < len(cs); i++ {
								for j := i + 1; j < len(cs); j++ {
									pair := []Cond{cs[i], cs[j]}
									pc, err := refCount(vb, pair, nil)
									if err != nil {
										t.Fatal(err)
									}
									_, pbound := vb.Approx(pair, nil)
									if pc.Total+pbound < tightest {
										tightest = pc.Total + pbound
									}
								}
							}
							if got.Total > tightest {
								t.Fatalf("%s: sketch total %d exceeds tightest bounded pair marginal %d", ctx, got.Total, tightest)
							}
						}
						k := key{seed, wi, ci}
						if prev, ok := results[k]; ok {
							if prev != got {
								t.Fatalf("%s: result differs across pool widths: %+v vs %+v", ctx, prev, got)
							}
						} else {
							results[k] = got
						}
					}

					// Grouped aggregation: every sketched-attr value reported
					// is one-sided and bounded; every exact value frequent
					// enough for the Space-Saving guarantee is reported.
					gotAV := vb.AttrValueCounts(nil)
					exactAV := refAttrValueCounts(vb, nil)
					var totalApp int
					for _, cr := range exactAV["app_version"] {
						totalApp += cr.Total
					}
					for val, cr := range gotAV["app_version"] {
						_, bound := vb.Approx([]Cond{{"app_version", val}}, nil)
						assertOneSided(t, fmt.Sprintf("seed %d window %d AttrValueCounts[%s]", seed, wi, val),
							cr, exactAV["app_version"][val], bound)
					}
					if !sketchedStore && !reflect.DeepEqual(gotAV, exactAV) {
						t.Fatalf("seed %d window %d: unsketched store AttrValueCounts diverge", seed, wi)
					}
					if sketchedStore && wi == 0 {
						// Space-Saving's presence guarantee is over the
						// global stream, so check it on the unbounded window
						// only: every value above N/capacity frequency must
						// be a candidate.
						guarantee := totalApp / sketchTestConfig().HeavyHitters
						for val, cr := range exactAV["app_version"] {
							if cr.Total <= guarantee {
								continue
							}
							if _, ok := gotAV["app_version"][val]; !ok {
								t.Fatalf("seed %d window %d: frequent value %s (count %d > %d) missing from sketch AttrValueCounts",
									seed, wi, val, cr.Total, guarantee)
							}
						}
					}
					// Exact-tier attributes must be bit-identical either way.
					for _, attr := range []string{AttrWeather, AttrLocation} {
						if !reflect.DeepEqual(gotAV[attr], exactAV[attr]) {
							t.Fatalf("seed %d window %d: exact-tier AttrValueCounts[%s] diverge", seed, wi, attr)
						}
					}

					// Pair aggregation: reported pairs touching the sketched
					// attribute are one-sided within the pair-ring bound.
					gotPC := vb.PairCounts(nil, nil)
					exactPC := refPairCounts(vb, nil, nil)
					for k, cr := range gotPC {
						if k.AttrA != "app_version" && k.AttrB != "app_version" {
							if cr != exactPC[k] {
								t.Fatalf("seed %d window %d: exact-tier pair %+v: %+v vs %+v", seed, wi, k, cr, exactPC[k])
							}
							continue
						}
						if !sketchedStore {
							if cr != exactPC[k] {
								t.Fatalf("seed %d window %d: unsketched pair %+v diverges", seed, wi, k)
							}
							continue
						}
						bound := vb.sk.pairs.bound(vb.from, vb.to)
						assertOneSided(t, fmt.Sprintf("seed %d window %d pair %+v", seed, wi, k),
							cr, exactPC[k], int(bound))
					}
				}
			}
		})
	}
}

// interleavedSketchStore builds a 6000-row log over 1000 s in which
// adjacent 32-row runs arrive swapped (two writers whose batches land
// alternately), so every populated shard is time-unsorted, with
// app_version on the sketch tier and six of its ten 100 s buckets folded
// into rest.
func interleavedSketchStore() *Store {
	r := rand.New(rand.NewSource(21))
	s := NewStoreWithSketch(sketchTestConfig())
	base := time.Unix(0, 0).UTC()
	var batch []Entry
	for g := 0; g < 6000; g++ {
		v := r.Intn(300)
		if r.Float64() < 0.6 {
			v = r.Intn(10)
		}
		batch = append(batch, Entry{
			Time:     base.Add(time.Duration(g^32) * time.Second / 6),
			Drift:    r.Float64() < 0.3,
			SampleID: -1,
			Attrs: map[string]string{
				AttrWeather:   fmt.Sprintf("w%d", r.Intn(6)),
				AttrLocation:  fmt.Sprintf("city_%d", r.Intn(9)),
				AttrDevice:    fmt.Sprintf("dev_%d", r.Intn(12)),
				"app_version": fmt.Sprintf("1.%d", v),
			},
		})
		if len(batch) == 128 {
			s.AppendBatch(batch)
			batch = batch[:0]
		}
	}
	s.AppendBatch(batch)
	return s
}

// TestSketchUnalignedWindowOverInterleavedWriters is the traffic shape
// the composed benchmark runs: unsorted shards and a window whose `to` is
// off the bucket grid, here with `from` inside the rest bucket too, so
// both ends are exact edge slices around Count-Min-answered buckets. Every
// sketch-answered result must be one-sided within its bound, and the whole
// result set must hash to what the per-candidate edge scans produced
// before edges were resolved once per view.
func TestSketchUnalignedWindowOverInterleavedWriters(t *testing.T) {
	s := interleavedSketchStore()
	base := time.Unix(0, 0).UTC()
	from, to := base.Add(250*time.Second), base.Add(957*time.Second)
	v := s.Window(from, to)
	if st := s.Stats(); st.SketchEvicted == 0 || st.UnsortedShards == 0 {
		t.Fatalf("store shape: %+v, want folded buckets and unsorted shards", st)
	}
	for si := range v.shards {
		if v.shards[si].rows > 32 && v.shards[si].sorted {
			t.Fatalf("shard %d is time-sorted", si)
		}
	}

	conds := [][]Cond{
		{{"app_version", "1.3"}},
		{{"app_version", "1.250"}},
		{{"app_version", "1.3"}, {AttrWeather, "w2"}},
		{{"app_version", "1.7"}, {AttrWeather, "w0"}, {AttrLocation, "city_4"}},
		{{AttrWeather, "w1"}, {AttrLocation, "city_2"}},
	}
	var lines []string
	for _, c := range conds {
		got, err := v.Count(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		exact, _ := refCount(v, c, nil)
		approx, bound := v.Approx(c, nil)
		if !approx {
			bound = 0
		}
		if len(c) < 3 { // a 3-way conjunction is bounded against its tightest pair, not the exact count
			assertOneSided(t, fmt.Sprint(c), got, exact, bound)
		} else if got.Total < exact.Total || got.Drift < exact.Drift {
			t.Fatalf("%v: sketch %+v below exact %+v", c, got, exact)
		}
		lines = append(lines, fmt.Sprintf("count %v %+v %v %d", c, got, approx, bound))
	}
	exactAV := refAttrValueCounts(v, nil)
	_, valBound := v.Approx([]Cond{{"app_version", "1.0"}}, nil)
	for attr, byVal := range v.AttrValueCounts(nil) {
		for val, cr := range byVal {
			if attr == "app_version" {
				assertOneSided(t, attr+"="+val, cr, exactAV[attr][val], valBound)
			} else if cr != exactAV[attr][val] {
				t.Fatalf("exact-tier %s=%s: %+v vs %+v", attr, val, cr, exactAV[attr][val])
			}
			lines = append(lines, fmt.Sprintf("value %s=%s %+v", attr, val, cr))
		}
	}
	exactPC := refPairCounts(v, nil, nil)
	_, pairBound := v.Approx([]Cond{{"app_version", "1.0"}, {AttrWeather, "w0"}}, nil)
	for k, cr := range v.PairCounts(nil, nil) {
		if k.AttrA == "app_version" || k.AttrB == "app_version" {
			assertOneSided(t, fmt.Sprint(k), cr, exactPC[k], pairBound)
		} else if cr != exactPC[k] {
			t.Fatalf("exact-tier pair %+v: %+v vs %+v", k, cr, exactPC[k])
		}
		lines = append(lines, fmt.Sprintf("pair %+v %+v", k, cr))
	}
	sort.Strings(lines)
	h := fnv.New64a()
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	const want = "95f79bac967847ff" // computed at the parent commit
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Fatalf("result digest %s over %d lines, want %s", got, len(lines), want)
	}
}

// TestSketchWindowSurvivesFolds pins what a view's once-resolved sketch
// window relies on: buckets folding into rest after the view resolved its
// window (six newer buckets push every bucket it covers out of the ring)
// neither move nor duplicate the mass it reads.
func TestSketchWindowSurvivesFolds(t *testing.T) {
	s := interleavedSketchStore()
	base := time.Unix(0, 0).UTC()
	v := s.Window(time.Time{}, base.Add(957*time.Second)) // rest and three live buckets fully covered
	conds := [][]Cond{{{"app_version", "1.0"}}, {{"app_version", "1.0"}, {AttrWeather, "w0"}}}
	var before [2]CountResult
	for i, c := range conds {
		before[i], _ = v.Count(c, nil)
	}
	var late []Entry
	for sec := 1000; sec < 1600; sec++ {
		late = append(late, Entry{Time: base.Add(time.Duration(sec) * time.Second), SampleID: -1, Attrs: map[string]string{
			AttrWeather: "w0", AttrLocation: "city_0", AttrDevice: "dev_0", "app_version": "1.0"}})
	}
	s.AppendBatch(late)
	for i, c := range conds {
		if after, _ := v.Count(c, nil); after != before[i] {
			t.Fatalf("%v: %+v before the folds, %+v after", c, before[i], after)
		}
		exact, _ := refCount(v, c, nil)
		_, bound := v.Approx(c, nil)
		assertOneSided(t, fmt.Sprint(c), before[i], exact, bound)
	}
}

// TestSketchDeltaFallbackExact pins that Since-derived delta views answer
// sketched attributes exactly (the row walk), so incremental mining's
// additivity holds for the delta term.
func TestSketchDeltaFallbackExact(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	s := sketchStore(r, 2000, 200, sketchTestConfig())
	base := time.Unix(0, 0).UTC()
	v1 := s.Window(time.Time{}, base.Add(600*time.Second))
	prevRows := v1.ShardRows()
	_, to1 := v1.Bounds()
	// Pin the exact prev-window count before growing the log: the new
	// batch contains rows with timestamps inside the prev window, which
	// belong to the delta (appended after the watermark), not to prev.
	c1, _ := refCount(v1, []Cond{{"app_version", "1.3"}}, nil)

	var batch []Entry
	for i := 0; i < 500; i++ {
		batch = append(batch, Entry{
			Time:     base.Add(time.Duration(r.Intn(1000)) * time.Second),
			Drift:    r.Float64() < 0.3,
			SampleID: -1,
			Attrs:    map[string]string{"app_version": fmt.Sprintf("1.%d", r.Intn(200)), AttrWeather: "w0"},
		})
	}
	s.AppendBatch(batch)

	v2 := s.Window(time.Time{}, base.Add(900*time.Second))
	delta, err := v2.Since(prevRows, to1)
	if err != nil {
		t.Fatal(err)
	}
	conds := []Cond{{"app_version", "1.3"}}
	if ap, _ := delta.Approx(conds, nil); ap {
		t.Fatal("delta view reported approximate; deltas must be exact")
	}
	cd, err := delta.Count(conds, nil)
	if err != nil {
		t.Fatal(err)
	}
	cdScan, err := refCount(delta, conds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cd != cdScan {
		t.Fatalf("delta sketched-attr count %+v != scan %+v", cd, cdScan)
	}
	// Exact decomposition over the scan reference sanity-checks the window
	// plumbing under tiering.
	c2, _ := refCount(v2, conds, nil)
	if c2.Total != c1.Total+cd.Total {
		t.Fatalf("decomposition: full %d != prev %d + delta %d", c2.Total, c1.Total, cd.Total)
	}
}

// TestSketchClearDriftExact pins that counterfactual clearing involving
// sketched attributes is exact, and that a mutated overlay re-routes
// sketched queries to the exact row walk.
func TestSketchClearDriftExact(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	s := sketchStore(r, 2500, 200, sketchTestConfig())
	v := s.All()
	ovA := v.DriftOverlay()
	ovB := v.DriftOverlay()
	defer ovA.Release()
	defer ovB.Release()
	conds := []Cond{{"app_version", "1.2"}}
	na, err1 := v.ClearDrift(conds, ovA)
	nb, err2 := refClearDrift(v, conds, ovB)
	if err1 != nil || err2 != nil {
		t.Fatalf("errs %v %v", err1, err2)
	}
	if na != nb {
		t.Fatalf("ClearDrift %d != scan %d", na, nb)
	}
	if na > 0 && ovA.Epoch() == 0 {
		t.Fatal("mutating clear left epoch 0")
	}
	// Mutated overlay: sketched queries must be exact (the row walk).
	if na == 0 || v.tier(true, ovA) != tierRows {
		t.Fatalf("cleared %d flags, tier %d: want a mutated overlay on the row tier", na, v.tier(true, ovA))
	}
	if ap, _ := v.Approx(conds, ovA); ap {
		t.Fatal("mutated overlay reported approximate")
	}
	got, _ := v.Count(conds, ovA)
	want, _ := refCount(v, conds, ovB)
	if got != want {
		t.Fatalf("post-clear sketched count %+v != scan %+v", got, want)
	}
	if ga, wa := v.AttrValueCounts(ovA), refAttrValueCounts(v, ovB); !reflect.DeepEqual(ga, wa) {
		t.Fatal("post-clear AttrValueCounts diverge from scan")
	}
	if gp, wp := v.PairCounts(ovA, nil), refPairCounts(v, ovB, nil); !reflect.DeepEqual(gp, wp) {
		t.Fatal("post-clear PairCounts diverge from scan")
	}
}

// diffSketchState compares the whole state of two sketch indexes — per ring
// (value rings by attribute, then the pair ring) every bucket's span,
// adds and Count-Min cells, the rest bucket, restLow, evicted, and the
// Space-Saving summary with its error terms — and returns the first
// difference ("" when there is none). Space-Saving depends on offer order;
// hh=false leaves it out, for states reached by concurrent writers.
func diffSketchState(got, want *sketchIndex, hh bool) string {
	names := func(sk *sketchIndex) []string {
		var out []string
		for name := range sk.attrs {
			out = append(out, name)
		}
		sort.Strings(out)
		return out
	}
	if g, w := names(got), names(want); !reflect.DeepEqual(g, w) {
		return fmt.Sprintf("value rings %v, want %v", g, w)
	}
	bucket := func(ctx string, g, w *sketchBucket) string {
		switch {
		case (g == nil) != (w == nil):
			return fmt.Sprintf("%s: present %v, want %v", ctx, g != nil, w != nil)
		case g == nil:
			return ""
		case g.start != w.start || g.end != w.end:
			return fmt.Sprintf("%s: span [%d,%d), want [%d,%d)", ctx, g.start, g.end, w.start, w.end)
		case g.adds.Load() != w.adds.Load():
			return fmt.Sprintf("%s: adds %d, want %d", ctx, g.adds.Load(), w.adds.Load())
		case !g.cm.Equal(w.cm):
			return ctx + ": Count-Min cells differ"
		}
		return ""
	}
	ring := func(ctx string, g, w *attrSketch) string {
		if len(g.buckets) != len(w.buckets) {
			return fmt.Sprintf("%s: %d live buckets, want %d", ctx, len(g.buckets), len(w.buckets))
		}
		for i := range g.buckets {
			if d := bucket(fmt.Sprintf("%s bucket %d", ctx, i), g.buckets[i], w.buckets[i]); d != "" {
				return d
			}
		}
		if d := bucket(ctx+" rest", g.rest, w.rest); d != "" {
			return d
		}
		if g.rest != nil && g.restLow.Load() != w.restLow.Load() {
			return fmt.Sprintf("%s: restLow %d, want %d", ctx, g.restLow.Load(), w.restLow.Load())
		}
		if g.evicted != w.evicted {
			return fmt.Sprintf("%s: evicted %d, want %d", ctx, g.evicted, w.evicted)
		}
		if gi, wi := g.hh.Items(), w.hh.Items(); hh && !reflect.DeepEqual(gi, wi) {
			return fmt.Sprintf("%s: Space-Saving items differ\n got %v\nwant %v", ctx, gi, wi)
		}
		return ""
	}
	for _, name := range names(got) {
		if d := ring("ring "+name, got.attrs[name], want.attrs[name]); d != "" {
			return d
		}
	}
	return ring("pair ring", got.pairs, want.pairs)
}

// TestSketchColumnarIngestEquivalence pins that the batch feed leaves the
// sketch tier in the state the row-at-a-time reference appender (one key,
// one lock round trip at a time, rowref_test.go) leaves it in — every
// Count-Min cell, adds, restLow, evicted and Space-Saving entry, after
// every batch — over batches that span several buckets, carry out-of-order
// times that fold into rest, rows missing attributes (device included, so
// both shard placements run), repeated keys inside a batch, and two
// tier-ups mid-stream, the second replaying an already sketched attribute;
// then that a compaction's rebuild equals a row-by-row replay of the
// survivors.
func TestSketchColumnarIngestEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	base := time.Unix(0, 0).UTC()
	cfg := sketchTestConfig()
	rowStore, colStore := NewStoreWithSketch(cfg), NewStoreWithSketch(cfg)
	for batch := 0; batch < 24; batch++ {
		n := []int{1, 16, 128, 300}[batch%4]
		entries := make([]Entry, n)
		for i := range entries {
			attrs := map[string]string{}
			if r.Float64() < 0.9 {
				attrs["app_version"] = fmt.Sprintf("1.%d", r.Intn(8+batch*12))
			}
			if r.Float64() < 0.8 {
				attrs["firmware"] = fmt.Sprintf("fw%d", r.Intn(2+batch*2)) // crosses the threshold later
			}
			if r.Float64() < 0.9 {
				attrs[AttrWeather] = fmt.Sprintf("w%d", r.Intn(6))
			}
			if r.Float64() < 0.7 {
				attrs[AttrDevice] = fmt.Sprintf("dev%d", r.Intn(12))
			}
			// Mostly advancing event time with a tail of stragglers: late
			// enough that their bucket has already folded into rest.
			at := time.Duration(batch*60+r.Intn(120)) * time.Second
			if r.Float64() < 0.15 {
				at = time.Duration(r.Intn(batch*60+1)) * time.Second
			}
			entries[i] = Entry{Time: base.Add(at), Drift: r.Float64() < 0.3, SampleID: -1, Attrs: attrs}
		}
		refAppendBatch(rowStore, entries)
		if err := colStore.AppendColumns(ColumnsFromEntries(entries)); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rowStore.SketchedAttrs(), colStore.SketchedAttrs()) {
			t.Fatalf("batch %d: sketched attrs diverge: %v vs %v", batch, rowStore.SketchedAttrs(), colStore.SketchedAttrs())
		}
		if d := diffSketchState(colStore.sk, rowStore.sk, true); d != "" {
			t.Fatalf("batch %d (%d rows): %s", batch, n, d)
		}
	}
	if got := colStore.SketchedAttrs(); !reflect.DeepEqual(got, []string{"app_version", "firmware"}) {
		t.Fatalf("sketched attrs %v, want both high-cardinality attributes (two tier-ups)", got)
	}
	st := colStore.Stats()
	if st.SketchEvicted == 0 || colStore.sk.pairs.rest == nil {
		t.Fatalf("stream never folded a bucket into rest: %+v", st)
	}
	if st.SketchFeedRows == 0 || st.SketchFeedKeys == 0 {
		t.Fatalf("feed counters not maintained: %+v", st)
	}
	for _, w := range sketchWindows() {
		vr, vc := rowStore.Window(w[0], w[1]), colStore.Window(w[0], w[1])
		for _, val := range []string{"1.0", "1.3", "1.77", "1.149"} {
			conds := []Cond{{"app_version", val}}
			cr, err1 := vr.Count(conds, nil)
			cc, err2 := vc.Count(conds, nil)
			if err1 != nil || err2 != nil {
				t.Fatalf("errs %v %v", err1, err2)
			}
			if cr != cc {
				t.Fatalf("val %s: row-path %+v != columnar-path %+v", val, cr, cc)
			}
		}
	}
	if removed := colStore.Compact(base.Add(500 * time.Second)); removed == 0 {
		t.Fatal("compaction removed nothing")
	}
	if d := diffSketchState(colStore.sk, refReplay(colStore, colStore.sketchedSet()), true); d != "" {
		t.Fatalf("after Compact: %s", d)
	}
}

// TestSketchCompactRebuild pins that compaction rebuilds the sketches
// from the surviving rows: estimates stay one-sided and bounded against
// the post-compaction exact oracle.
func TestSketchCompactRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	s := sketchStore(r, 3000, 200, sketchTestConfig())
	base := time.Unix(0, 0).UTC()
	if removed := s.Compact(base.Add(500 * time.Second)); removed == 0 {
		t.Fatal("compaction removed nothing")
	}
	if got := s.SketchedAttrs(); len(got) != 1 {
		t.Fatalf("tiering must be sticky across compaction, got %v", got)
	}
	vb := s.All()
	for _, val := range []string{"1.0", "1.5", "1.123"} {
		conds := []Cond{{"app_version", val}}
		got, err1 := vb.Count(conds, nil)
		exact, err2 := refCount(vb, conds, nil)
		if err1 != nil || err2 != nil {
			t.Fatalf("errs %v %v", err1, err2)
		}
		_, bound := vb.Approx(conds, nil)
		assertOneSided(t, "post-compact "+val, got, exact, bound)
	}
}

// TestSketchPersistRoundTrip pins that a snapshot round trip re-tiers the
// high-cardinality attribute and keeps estimates one-sided and bounded.
func TestSketchPersistRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	s := sketchStore(r, 2000, 200, sketchTestConfig())
	path := t.TempDir() + "/log.snap"
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded := NewStoreWithSketch(sketchTestConfig())
	if err := loaded.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.SketchedAttrs(), loaded.SketchedAttrs()) {
		t.Fatalf("sketched attrs diverge after round trip: %v vs %v", s.SketchedAttrs(), loaded.SketchedAttrs())
	}
	vb := loaded.All()
	for _, val := range []string{"1.1", "1.42"} {
		conds := []Cond{{"app_version", val}}
		got, _ := vb.Count(conds, nil)
		exact, _ := refCount(vb, conds, nil)
		_, bound := vb.Approx(conds, nil)
		assertOneSided(t, "round-trip "+val, got, exact, bound)
	}
}

// FuzzSketchDifferential drives tiny sketch-tiered logs through the
// one-sided-and-bounded contract with fuzzer-chosen shapes.
func FuzzSketchDifferential(f *testing.F) {
	f.Add(int64(1), uint8(70), uint8(0))
	f.Add(int64(42), uint8(130), uint8(2))
	f.Add(int64(7), uint8(255), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, windowSel uint8) {
		r := rand.New(rand.NewSource(seed))
		s := sketchStore(r, int(n), 64, sketchTestConfig())
		w := sketchWindows()[int(windowSel)%len(sketchWindows())]
		vb := s.Window(w[0], w[1])
		for _, conds := range [][]Cond{
			{{"app_version", "1.1"}},
			{{"app_version", "1.9"}, {AttrWeather, "w2"}},
			{{AttrWeather, "w0"}},
		} {
			got, err1 := vb.Count(conds, nil)
			exact, err2 := refCount(vb, conds, nil)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("error divergence: %v vs %v", err1, err2)
			}
			if err1 != nil {
				continue
			}
			approx, bound := vb.Approx(conds, nil)
			if !approx {
				if got != exact {
					t.Fatalf("conds %v: exact-path %+v != oracle %+v", conds, got, exact)
				}
				continue
			}
			if got.Total < exact.Total || got.Drift < exact.Drift {
				t.Fatalf("conds %v: sketch %+v below exact %+v", conds, got, exact)
			}
			if got.Total-exact.Total > bound || got.Drift-exact.Drift > bound {
				t.Fatalf("conds %v: sketch %+v exceeds exact %+v beyond bound %d", conds, got, exact, bound)
			}
		}
	})
}
