package driftlog

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"nazar/internal/tensor"
)

// randomStore builds a log with deliberately awkward shapes: attributes
// missing at random (so columns backfill and shard fills are odd),
// device cardinality varying per seed (so some shards stay empty),
// mixed Append/AppendBatch ingestion, timestamps scattered so
// sub-windows cut through every shard's middle, and every seventh row
// carrying a vector (so a shard's sampled rows are sparse).
func randomStore(r *rand.Rand, n int) *Store {
	s := NewStore()
	appendRandom(s, r, n)
	return s
}

// appendRandom appends n of randomStore's rows to s.
func appendRandom(s *Store, r *rand.Rand, n int) {
	devs := r.Intn(80) + 1
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
		if r.Float64() < 0.8 {
			attrs[AttrDevice] = fmt.Sprintf("dev_%d", r.Intn(devs))
		}
		e := Entry{
			Time:     base.Add(time.Duration(r.Intn(1000)) * time.Second),
			Drift:    r.Float64() < 0.3,
			SampleID: -1,
			Attrs:    attrs,
		}
		if i%7 == 0 {
			e.SampleID = int64(i)
		}
		if r.Float64() < 0.5 {
			s.appendColumns(withSamples([]Entry{e}))
		} else {
			batch = append(batch, e)
		}
	}
	s.appendColumns(withSamples(batch))
}

// withSamples converts entries to a batch whose rows with a sample ID
// carry the vector sampleVec(id).
func withSamples(entries []Entry) *ColumnarBatch {
	b := ColumnsFromEntries(entries)
	b.Samples = make([][]float64, len(entries))
	for i, e := range entries {
		if e.SampleID >= 0 {
			b.Samples[i] = sampleVec(e.SampleID)
		}
	}
	return b
}

// sampleVec is the test vector of sample id.
func sampleVec(id int64) []float64 { return []float64{float64(id), -float64(id) / 2} }

// diffWindows are the window shapes each random log is probed with:
// unbounded, a middle slice, an empty slice past the data, and a thin
// slice.
func diffWindows() [][2]time.Time {
	base := time.Unix(0, 0).UTC()
	return [][2]time.Time{
		{{}, {}},
		{base.Add(200 * time.Second), base.Add(700 * time.Second)},
		{base.Add(5000 * time.Second), base.Add(6000 * time.Second)},
		{base.Add(500 * time.Second), base.Add(501 * time.Second)},
	}
}

// diffConds are the predicates each window is probed with, from empty
// to over-constrained to unknown-value.
func diffConds() [][]Cond {
	return [][]Cond{
		nil,
		{{AttrWeather, "w0"}},
		{{AttrWeather, "w1"}, {AttrLocation, "city_3"}},
		{{AttrWeather, "w2"}, {AttrLocation, "city_0"}, {AttrDevice, "dev_0"}},
		{{AttrWeather, "no-such-value"}},
	}
}

// TestBitsetMatchesScanOracle is the differential contract of the index:
// every bitset-backed aggregate must be result-identical to the row-scan
// reference (scanref_test.go), at pool widths 1 and 8.
func TestBitsetMatchesScanOracle(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			tensor.SetMaxWorkers(workers)
			defer tensor.SetMaxWorkers(0)
			sizes := []int{0, 1, 63, 64, 65, 500, 3000}
			for seed := int64(0); seed < 12; seed++ {
				r := rand.New(rand.NewSource(seed))
				s := randomStore(r, sizes[int(seed)%len(sizes)])
				for wi, w := range diffWindows() {
					vb := s.Window(w[0], w[1])
					if got, want := vb.Len(), refLen(vb); got != want {
						t.Fatalf("seed %d window %d: Len bitset %d scan %d", seed, wi, got, want)
					}
					for ci, conds := range diffConds() {
						cb, err1 := vb.Count(conds, nil)
						co, err2 := refCount(vb, conds, nil)
						// Attributes absent from a (possibly empty) log are
						// unknown; both paths must agree on that too.
						if (err1 == nil) != (err2 == nil) {
							t.Fatalf("seed %d window %d conds %d: error divergence %v %v", seed, wi, ci, err1, err2)
						}
						if err1 != nil {
							continue
						}
						if cb != co {
							t.Fatalf("seed %d window %d conds %d: bitset %+v scan %+v", seed, wi, ci, cb, co)
						}
					}
					// Unknown attribute: an error on every path.
					bad := []Cond{{"no-such-attr", "x"}}
					if _, err := vb.Count(bad, nil); err == nil {
						t.Fatal("bitset Count accepted unknown attribute")
					}
					if _, err := vb.SampleIDs(bad); err == nil {
						t.Fatal("SampleIDs accepted unknown attribute")
					}
					if _, err := refCount(vb, bad, nil); err == nil {
						t.Fatal("refCount accepted unknown attribute")
					}
					if avb, avs := vb.AttrValueCounts(nil), refAttrValueCounts(vb, nil); !reflect.DeepEqual(avb, avs) {
						t.Fatalf("seed %d window %d: AttrValueCounts diverge\nbitset %v\nscan   %v", seed, wi, avb, avs)
					}
					ps := refPairCounts(vb, nil, nil)
					if pb := vb.PairCounts(nil, nil); !reflect.DeepEqual(pb, ps) {
						t.Fatalf("seed %d window %d: PairCounts diverge", seed, wi)
					}
					for _, sel := range diffMaskBits {
						mask := maskFromBits(vb, sel)
						if pm := vb.PairCountsMasked(nil, mask); !reflect.DeepEqual(pm, refMasked(ps, mask)) {
							t.Fatalf("seed %d window %d mask %#x: masked PairCounts diverge", seed, wi, sel)
						}
					}
					if pm := vb.PairCountsMasked(nil, nil); len(pm) != 0 {
						t.Fatalf("seed %d window %d: nil mask counted %d pairs", seed, wi, len(pm))
					}
				}
			}
		})
	}
}

// TestPairCountsHighCardinality forces the bitset PairCounts path over
// its maxPairCross fallback (a value cross product too large to
// enumerate bitmap-by-bitmap) and requires scan-identical output.
func TestPairCountsHighCardinality(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	s := NewStore()
	base := time.Unix(0, 0).UTC()
	var batch []Entry
	for i := 0; i < 4000; i++ {
		batch = append(batch, Entry{
			Time:     base.Add(time.Duration(r.Intn(1000)) * time.Second),
			Drift:    r.Float64() < 0.3,
			SampleID: -1,
			Attrs: map[string]string{
				AttrLocation: fmt.Sprintf("city_%d", r.Intn(40)),
				AttrDevice:   fmt.Sprintf("dev_%d", r.Intn(40)),
				AttrWeather:  fmt.Sprintf("w%d", r.Intn(3)),
			},
		})
	}
	s.AppendBatch(batch)
	if cross := 40 * 40; cross <= maxPairCross {
		t.Fatalf("test needs cross %d > maxPairCross %d", cross, maxPairCross)
	}
	vb := s.All()
	if pb, ps := vb.PairCounts(nil, nil), refPairCounts(vb, nil, nil); !reflect.DeepEqual(pb, ps) {
		t.Fatal("high-cardinality PairCounts diverges from scan")
	}
	ex := map[string]bool{AttrWeather: true}
	if pb, ps := vb.PairCounts(nil, ex), refPairCounts(vb, nil, ex); !reflect.DeepEqual(pb, ps) {
		t.Fatal("high-cardinality PairCounts with exclusion diverges from scan")
	}
	// Masked: 20 × 20 kept values still walk the rows, 10 × 10 popcount — the
	// choice follows the kept cross product, not the 40-value dictionaries.
	ps := refPairCounts(vb, nil, nil)
	for _, keep := range []int{20, 10} {
		mask := ValueMask{AttrLocation: {}, AttrDevice: {}, AttrWeather: {"w1": true}}
		for i := 0; i < keep; i++ {
			mask[AttrLocation][fmt.Sprintf("city_%d", 2*i)] = true
			mask[AttrDevice][fmt.Sprintf("dev_%d", 2*i+1)] = true
		}
		if (keep*keep > maxPairCross) != (keep == 20) {
			t.Fatalf("test needs %d² on the %d side of maxPairCross %d", keep, keep, maxPairCross)
		}
		if pm := vb.PairCountsMasked(nil, mask); !reflect.DeepEqual(pm, refMasked(ps, mask)) {
			t.Fatalf("high-cardinality masked PairCounts (%d kept) diverges from scan", keep)
		}
	}
}

// TestClearDriftMatchesScanOracle runs a clear/count sequence through
// two overlays on the same view — one driven by the bitset paths, one
// by the scan reference — and requires identical clears, counts, and
// group-bys after every step.
func TestClearDriftMatchesScanOracle(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			tensor.SetMaxWorkers(workers)
			defer tensor.SetMaxWorkers(0)
			for seed := int64(0); seed < 8; seed++ {
				r := rand.New(rand.NewSource(1000 + seed))
				s := randomStore(r, 2500)
				w := diffWindows()[int(seed)%len(diffWindows())]
				v := s.Window(w[0], w[1])
				ovB := v.DriftOverlay()
				ovS := v.DriftOverlay()
				if ovB.Epoch() != 0 || ovS.Epoch() != 0 {
					t.Fatal("fresh overlay epoch not 0")
				}
				for step, conds := range diffConds() {
					nb, err1 := v.ClearDrift(conds, ovB)
					ns, err2 := refClearDrift(v, conds, ovS)
					if err1 != nil || err2 != nil {
						t.Fatalf("seed %d step %d: errs %v %v", seed, step, err1, err2)
					}
					if nb != ns {
						t.Fatalf("seed %d step %d: cleared bitset %d scan %d", seed, step, nb, ns)
					}
					for _, probe := range diffConds() {
						cb, err1 := v.Count(probe, ovB)
						co, err2 := refCount(v, probe, ovS)
						if err1 != nil || err2 != nil {
							t.Fatalf("seed %d step %d: probe errs %v %v", seed, step, err1, err2)
						}
						if cb != co {
							t.Fatalf("seed %d step %d probe %v: bitset %+v scan %+v", seed, step, probe, cb, co)
						}
					}
					ab := v.AttrValueCounts(ovB)
					as := refAttrValueCounts(v, ovS)
					if !reflect.DeepEqual(ab, as) {
						t.Fatalf("seed %d step %d: overlaid AttrValueCounts diverge", seed, step)
					}
					ps := refPairCounts(v, ovS, nil)
					if !reflect.DeepEqual(v.PairCounts(ovB, nil), ps) {
						t.Fatalf("seed %d step %d: overlaid PairCounts diverge", seed, step)
					}
					mask := maskFromBits(v, diffMaskBits[(int(seed)+step)%len(diffMaskBits)])
					if !reflect.DeepEqual(v.PairCountsMasked(ovB, mask), refMasked(ps, mask)) {
						t.Fatalf("seed %d step %d: overlaid masked PairCounts diverge", seed, step)
					}
					if nb > 0 && ovB.Epoch() == 0 {
						t.Fatalf("seed %d step %d: mutating ClearDrift left epoch 0", seed, step)
					}
				}
				ovB.Release()
				ovS.Release()
			}
		})
	}
}

// TestSinceDeltaDecomposition pins the incremental-mining identity:
// counts over a grown window equal the previous window's counts plus
// counts over its Since-derived delta view, for both new appended rows
// and rows admitted by a later upper bound.
func TestSinceDeltaDecomposition(t *testing.T) {
	base := time.Unix(0, 0).UTC()
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(2000 + seed))
		s := randomStore(r, 1500)
		from := time.Time{}
		to1 := base.Add(600 * time.Second)
		v1 := s.Window(from, to1)
		prevRows := v1.ShardRows()
		_, to1n := v1.Bounds()

		var c1 [16]CountResult
		for i, conds := range diffConds()[:4] {
			cr, err := v1.Count(conds, nil)
			if err != nil {
				t.Fatal(err)
			}
			c1[i] = cr
		}
		len1 := v1.Len()

		// Grow the log and the window's upper bound.
		r2 := rand.New(rand.NewSource(3000 + seed))
		var batch []Entry
		for i := 0; i < 700; i++ {
			batch = append(batch, Entry{
				Time:     base.Add(time.Duration(r2.Intn(1000)) * time.Second),
				Drift:    r2.Float64() < 0.3,
				SampleID: -1,
				Attrs: map[string]string{
					AttrWeather:  fmt.Sprintf("w%d", r2.Intn(6)),
					AttrLocation: fmt.Sprintf("city_%d", r2.Intn(9)),
				},
			})
		}
		s.AppendBatch(batch)

		to2 := base.Add(900 * time.Second)
		v2 := s.Window(from, to2)
		delta, err := v2.Since(prevRows, to1n)
		if err != nil {
			t.Fatal(err)
		}
		for i, conds := range diffConds()[:4] {
			c2, err := v2.Count(conds, nil)
			if err != nil {
				t.Fatal(err)
			}
			cd, err := delta.Count(conds, nil)
			if err != nil {
				t.Fatal(err)
			}
			if c2.Total != c1[i].Total+cd.Total || c2.Drift != c1[i].Drift+cd.Drift {
				t.Fatalf("seed %d conds %d: full %+v != prev %+v + delta %+v", seed, i, c2, c1[i], cd)
			}
			// The scan reference must agree with the delta's bitset path too.
			cdScan, err := refCount(delta, conds, nil)
			if err != nil {
				t.Fatal(err)
			}
			if cd != cdScan {
				t.Fatalf("seed %d conds %d: delta bitset %+v scan %+v", seed, i, cd, cdScan)
			}
		}
		if v2.Len() != len1+delta.Len() || delta.Len() != refLen(delta) {
			t.Fatalf("seed %d: Len %d != %d + %d (scan %d)", seed, v2.Len(), len1, delta.Len(), refLen(delta))
		}

		// An unchanged window decomposes into itself plus an empty delta.
		v3 := s.Window(from, to2)
		empty, err := v3.Since(v2.ShardRows(), to2.UnixNano())
		if err != nil {
			t.Fatal(err)
		}
		if got, err := empty.Count(nil, nil); err != nil || got.Total != 0 {
			t.Fatalf("seed %d: empty delta counted %+v err %v", seed, got, err)
		}
	}
}

// TestSinceValidation covers the watermark error paths.
func TestSinceValidation(t *testing.T) {
	s := randomStore(rand.New(rand.NewSource(7)), 100)
	v := s.All()
	if _, err := v.Since([]int{1, 2}, 0); err == nil {
		t.Fatal("short watermark slice accepted")
	}
	bad := v.ShardRows()
	bad[0] = v.shards[0].rows + 1
	if _, err := v.Since(bad, 0); err == nil {
		t.Fatal("out-of-range watermark accepted")
	}
}

const longStoreRows = 48 * 512

// longStore builds a longStoreRows-row log whose device shards each hold well over
// 64 bitmap words, so a window can be a small part of a long shard. Row g
// carries second g — in append order when sorted, with adjacent 32-row
// runs swapped (two writers whose batches land alternately) otherwise,
// which leaves every shard time-unsorted. hw × os is a 40 × 40 value
// cross product, past maxPairCross, so PairCounts takes both its popcount
// and its row-scan path. app_version (300 values, ten of them hot) crosses
// the store's tier-up threshold of 64 early on, so conditions on it walk the
// window's rows. Every fifth row links a sample.
func longStore(sorted bool) *Store {
	const n = longStoreRows
	r := rand.New(rand.NewSource(5))
	rv := rand.New(rand.NewSource(6)) // app_version draws: r's sequence stays what it was without them
	base := time.Unix(0, 0).UTC()
	entries := make([]Entry, n)
	for g := range entries {
		sec := g
		if !sorted {
			sec = g ^ 32
		}
		attrs := map[string]string{
			AttrWeather:  fmt.Sprintf("w%d", r.Intn(6)),
			AttrLocation: fmt.Sprintf("city_%d", r.Intn(9)),
			"hw":         fmt.Sprintf("hw_%d", r.Intn(40)),
			"os":         fmt.Sprintf("os_%d", r.Intn(40)),
		}
		if r.Float64() < 0.9 {
			attrs[AttrDevice] = fmt.Sprintf("dev_%d", r.Intn(3))
		}
		ver := rv.Intn(300)
		if rv.Float64() < 0.6 {
			ver = rv.Intn(10)
		}
		if rv.Float64() < 0.95 {
			attrs["app_version"] = fmt.Sprintf("1.%d", ver)
		}
		sample := int64(-1)
		if g%5 == 0 {
			sample = int64(g)
		}
		entries[g] = Entry{Time: base.Add(time.Duration(sec) * time.Second), Drift: r.Float64() < 0.3, SampleID: sample, Attrs: attrs}
	}
	s := NewStoreWithSketch(SketchConfig{Threshold: 64}) // above hw and os, below app_version
	for lo := 0; lo < n; lo += 512 {
		s.AppendBatch(entries[lo : lo+512])
	}
	return s
}

// TestSmallWindowsOfLongShards checks every aggregate and SampleIDs against
// the scan reference on windows that are a suffix, a middle slice, a single
// bitmap word and nothing at all of shards ≥ 64 words long — the shapes
// whose bitset loops and row walks run over [wlo, whi) instead of the whole
// shard — on time-sorted shards and on shards unsorted by interleaved
// writers, for conditions on bitmap columns and on the tiered attribute.
func TestSmallWindowsOfLongShards(t *testing.T) {
	base := time.Unix(0, 0).UTC()
	windows := []struct {
		name     string
		from, to time.Time
	}{
		{"suffix", base.Add(20000 * time.Second), time.Time{}},
		{"middle", base.Add(9000 * time.Second), base.Add(13000 * time.Second)},
		{"single-word", base.Add(12000 * time.Second), base.Add(12020 * time.Second)},
		{"empty", base.Add(50000 * time.Second), base.Add(60000 * time.Second)},
	}
	// The ClearDrift sequence runs in this order: the empty condition clears
	// every flag that is left, so it goes last.
	conds := [][]Cond{
		{{"app_version", "1.3"}}, {{"app_version", "1.7"}, {AttrWeather, "w1"}},
		{{"app_version", "1.250"}}, {{"app_version", "no-such-version"}},
		{{"hw", "hw_7"}, {"os", "os_3"}},
	}
	conds = append(append(conds, diffConds()[1:]...), nil)
	for _, sorted := range []bool{true, false} {
		s := longStore(sorted)
		if got := s.SketchedAttrs(); len(got) != 1 || got[0] != "app_version" {
			t.Fatalf("SketchedAttrs = %v, want [app_version]", got)
		}
		for _, w := range windows {
			t.Run(fmt.Sprintf("sorted=%v/%s", sorted, w.name), func(t *testing.T) {
				vb := s.Window(w.from, w.to)
				long := 0
				for si := range vb.shards {
					sh := &vb.shards[si]
					if sh.fullWords < 64 {
						continue
					}
					long++
					if sh.sorted != sorted {
						t.Fatalf("shard %d: sorted=%v, want %v", si, sh.sorted, sorted)
					}
					if first := sh.window.word(0, sh.fullWords); w.name != "empty" && first == 0 && sh.wlo == 0 {
						t.Fatalf("shard %d: window starts past word 0 but loops start at it", si)
					}
					if w.name == "single-word" && sh.whi-sh.wlo > 2 {
						t.Fatalf("shard %d: 20-second window spans words [%d,%d)", si, sh.wlo, sh.whi)
					}
				}
				if long < 3 {
					t.Fatalf("only %d shards ≥ 64 words", long)
				}
				requireViewMatchesScan(t, vb, conds)

				// Since delta of the window: rows past three quarters of every
				// shard, or admitted by the upper bound moving up from the
				// window's midpoint.
				prev := vb.ShardRows()
				for i := range prev {
					prev[i] = prev[i] * 3 / 4
				}
				from, to := vb.Bounds()
				prevTo := from/2 + min(to, base.Add(longStoreRows*time.Second).UnixNano())/2
				db, err := vb.Since(prev, prevTo)
				if err != nil {
					t.Fatal(err)
				}
				requireViewMatchesScan(t, db, conds)
			})
		}
	}
}

// requireViewMatchesScan requires a view to agree with the scan reference
// on Len, Count, SampleIDs, AttrValueCounts, PairCounts, PairCountsMasked
// and a ClearDrift sequence with overlaid re-counts and group-bys.
func requireViewMatchesScan(t *testing.T, v *View, conds [][]Cond) {
	t.Helper()
	if got, want := v.Len(), refLen(v); got != want {
		t.Fatalf("Len %d scan %d", got, want)
	}
	groupBys := func(stage string, ovB, ovS *Overlay) {
		t.Helper()
		if got, want := v.AttrValueCounts(ovB), refAttrValueCounts(v, ovS); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s AttrValueCounts diverge\ngot  %v\nscan %v", stage, got, want)
		}
		wantPC := refPairCounts(v, ovS, nil)
		if got := v.PairCounts(ovB, nil); !reflect.DeepEqual(got, wantPC) {
			t.Fatalf("%s PairCounts: %d pairs, scan %d", stage, len(got), len(wantPC))
		}
		for _, sel := range diffMaskBits {
			mask := maskFromBits(v, sel)
			if got := v.PairCountsMasked(ovB, mask); !reflect.DeepEqual(got, refMasked(wantPC, mask)) {
				t.Fatalf("%s PairCountsMasked %#x: %d pairs, filtered scan %d", stage, sel, len(got), len(refMasked(wantPC, mask)))
			}
		}
	}

	for _, c := range conds {
		got, err1 := v.Count(c, nil)
		want, err2 := refCount(v, c, nil)
		if err1 != nil || err2 != nil || got != want {
			t.Fatalf("Count %v: %+v (%v), scan %+v (%v)", c, got, err1, want, err2)
		}
		ids, err1 := v.SampleIDs(c)
		wantIDs, err2 := refSampleIDs(v, c)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(ids, wantIDs) {
			t.Fatalf("SampleIDs %v: %d ids (%v), scan %d (%v)", c, len(ids), err1, len(wantIDs), err2)
		}
		ids, xs, err1 := v.Samples(c)
		wantIDs, wantXs, err2 := refSamples(v, c)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(ids, wantIDs) || !reflect.DeepEqual(xs, wantXs) {
			t.Fatalf("Samples %v: %d vectors (%v), scan %d (%v)", c, len(xs), err1, len(wantXs), err2)
		}
	}
	groupBys("stored", nil, nil)

	ovB, ovS := v.DriftOverlay(), v.DriftOverlay()
	defer ovB.Release()
	defer ovS.Release()
	for ci, c := range conds {
		nb, err1 := v.ClearDrift(c, ovB)
		ns, err2 := refClearDrift(v, c, ovS)
		if err1 != nil || err2 != nil || nb != ns {
			t.Fatalf("conds %d: cleared %d (%v) scan %d (%v)", ci, nb, err1, ns, err2)
		}
		if (ovB.Epoch() != 0) != (ovS.Epoch() != 0) {
			t.Fatalf("conds %d: epochs %d / %d", ci, ovB.Epoch(), ovS.Epoch())
		}
		for _, probe := range conds {
			got, _ := v.Count(probe, ovB)
			if want, _ := refCount(v, probe, ovS); got != want {
				t.Fatalf("after clear %d: Count %v: %+v, scan %+v", ci, probe, got, want)
			}
		}
	}
	groupBys("overlaid", ovB, ovS)
}

// TestViewConcurrentQueries hammers one view from several goroutines
// while appends continue (run under -race by `make race`): a view resolves
// values through the live columns' indexes, which the appender keeps
// interning into, so those reads must be race-free and must not see the
// values interned after the view pinned — results must stay what the
// pinned rows say: equal to the scan reference's, on bitmap columns and
// the tiered one.
func TestViewConcurrentQueries(t *testing.T) {
	s := interleavedSketchStore()
	base := time.Unix(0, 0).UTC()
	from, to := base.Add(250*time.Second), base.Add(957*time.Second)
	// The reference runs over a second view of the same rows, so v's lazily
	// built state (its pair candidates) is first touched by the concurrent
	// readers.
	v, oracle := s.Window(from, to), s.Window(from, to)
	conds := [][]Cond{
		{{AttrWeather, "w1"}, {AttrLocation, "city_2"}},
		{{AttrDevice, "dev_3"}},
		{{"app_version", "1.3"}},
		{{"app_version", "1.3"}, {AttrWeather, "w2"}},
	}
	wantCount := make([]CountResult, len(conds))
	for i, c := range conds {
		wantCount[i], _ = refCount(oracle, c, nil)
	}
	wantAV, wantPC := refAttrValueCounts(oracle, nil), refPairCounts(oracle, nil, nil)
	check := func(what string, got, want CountResult) {
		if got != want {
			t.Errorf("%s: got %+v, oracle %+v", what, got, want)
		}
	}

	stop := make(chan struct{})
	var appender, readers sync.WaitGroup
	appender.Add(1)
	go func() {
		defer appender.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			s.AppendBatch([]Entry{{Time: base.Add(time.Duration(300+n%600) * time.Second), Drift: n%2 == 0, SampleID: -1, Attrs: map[string]string{
				AttrWeather: "w1", AttrLocation: "city_2", AttrDevice: "dev_3", "app_version": fmt.Sprintf("9.%d", n)}}})
		}
	}()
	for g := 0; g < 6; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; i < 8; i++ {
				switch (g + i) % 3 {
				case 0:
					for ci, c := range conds {
						got, err := v.Count(c, nil)
						if err != nil {
							t.Error(err)
						}
						check(fmt.Sprint(c), got, wantCount[ci])
					}
				case 1:
					for k, got := range v.PairCounts(nil, nil) {
						check(fmt.Sprint(k), got, wantPC[k])
					}
				default:
					for attr, byVal := range v.AttrValueCounts(nil) {
						for val, got := range byVal {
							check(attr+"="+val, got, wantAV[attr][val])
						}
					}
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	appender.Wait()
}

// FuzzCountDifferential drives tiny random logs through the
// index-vs-scan contract with fuzzer-chosen shapes: a log of n rows, grown
// by n/2 more after a first view pinned it, checked on the grown window and
// on its Since delta. tier is the tier-up threshold (0: the default, which
// no attribute reaches), so low values take weather (6 values), location
// (9) or device (up to 80) off the bitmaps and onto the row walk.
func FuzzCountDifferential(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(0), uint8(0x55), uint8(0))
	f.Add(int64(42), uint8(64), uint8(1), uint8(0xFF), uint8(0))
	f.Add(int64(99), uint8(130), uint8(2), uint8(0x06), uint8(0))
	f.Add(int64(7), uint8(200), uint8(0), uint8(0xFF), uint8(4))
	f.Add(int64(8), uint8(255), uint8(1), uint8(0x55), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, windowSel uint8, maskSel uint8, tier uint8) {
		r := rand.New(rand.NewSource(seed))
		s := NewStoreWithSketch(SketchConfig{Threshold: int(tier)})
		appendRandom(s, r, int(n))
		w := diffWindows()[int(windowSel)%len(diffWindows())]
		prev := s.Window(w[0], w[1])
		appendRandom(s, r, int(n)/2)
		vb := s.Window(w[0], w[1])
		_, prevTo := prev.Bounds()
		delta, err := vb.Since(prev.ShardRows(), prevTo)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []*View{vb, delta} {
			fuzzCheckView(t, v, seed, maskSel)
		}
	})
}

// fuzzCheckView is FuzzCountDifferential's check of one view: Count,
// AttrValueCounts, a masked pair group-by, then a ClearDrift and the
// overlaid totals and masked pairs, each against the scan reference.
func fuzzCheckView(t *testing.T, v *View, seed int64, maskSel uint8) {
	t.Helper()
	for _, conds := range diffConds() {
		cb, err1 := v.Count(conds, nil)
		cs, err2 := refCount(v, conds, nil)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("error divergence: %v vs %v", err1, err2)
		}
		if cb != cs {
			t.Fatalf("conds %v: index %+v scan %+v", conds, cb, cs)
		}
	}
	if got, want := v.AttrValueCounts(nil), refAttrValueCounts(v, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("AttrValueCounts %v, scan %v", got, want)
	}
	mask := maskFromBits(v, maskSel)
	if pm, ps := v.PairCountsMasked(nil, mask), refMasked(refPairCounts(v, nil, nil), mask); !reflect.DeepEqual(pm, ps) {
		t.Fatalf("mask %#x: masked pairs %v, filtered scan %v", maskSel, pm, ps)
	}
	ovB := v.DriftOverlay()
	ovS := v.DriftOverlay()
	defer ovB.Release()
	defer ovS.Release()
	conds := diffConds()[int(uint64(seed)%4+1)%len(diffConds())]
	nb, err1 := v.ClearDrift(conds, ovB)
	ns, err2 := refClearDrift(v, conds, ovS)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("clear error divergence: %v vs %v", err1, err2)
	}
	if nb != ns {
		t.Fatalf("cleared %d vs %d", nb, ns)
	}
	cb, _ := v.Count(nil, ovB)
	cs, _ := refCount(v, nil, ovS)
	if cb != cs {
		t.Fatalf("post-clear totals %+v vs %+v", cb, cs)
	}
	if pm, ps := v.PairCountsMasked(ovB, mask), refMasked(refPairCounts(v, ovS, nil), mask); !reflect.DeepEqual(pm, ps) {
		t.Fatalf("mask %#x: post-clear masked pairs %v, filtered scan %v", maskSel, pm, ps)
	}
}
