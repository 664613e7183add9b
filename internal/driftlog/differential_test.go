package driftlog

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"nazar/internal/tensor"
)

// randomStore builds a log with deliberately awkward shapes: attributes
// missing at random (so columns backfill and shard fills are odd),
// device cardinality varying per seed (so some shards stay empty),
// mixed Append/AppendBatch ingestion, and timestamps scattered so
// sub-windows cut through every shard's middle.
func randomStore(r *rand.Rand, n int) *Store {
	s := NewStore()
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
		if r.Float64() < 0.5 {
			s.AppendBatch([]Entry{e})
		} else {
			batch = append(batch, e)
		}
	}
	s.AppendBatch(batch)
	return s
}

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

// TestBitsetMatchesScanOracle is the differential contract of the PR:
// every bitset-backed aggregate must be result-identical to the
// retained row-scan oracle, on indexed and index-free views, at pool
// widths 1 and 8.
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
					vs := s.WindowScan(w[0], w[1])
					if got, want := vb.Len(), vs.Len(); got != want {
						t.Fatalf("seed %d window %d: Len bitset %d scan %d", seed, wi, got, want)
					}
					for ci, conds := range diffConds() {
						cb, err1 := vb.Count(conds, nil)
						co, err2 := vb.CountScan(conds, nil)
						cs, err3 := vs.Count(conds, nil)
						// Attributes absent from a (possibly empty) log are
						// unknown; all three paths must agree on that too.
						if (err1 == nil) != (err2 == nil) || (err1 == nil) != (err3 == nil) {
							t.Fatalf("seed %d window %d conds %d: error divergence %v %v %v", seed, wi, ci, err1, err2, err3)
						}
						if err1 != nil {
							continue
						}
						if cb != co || cb != cs {
							t.Fatalf("seed %d window %d conds %d: bitset %+v oracle %+v scanview %+v",
								seed, wi, ci, cb, co, cs)
						}
					}
					// Unknown attribute: identical error on every path.
					bad := []Cond{{"no-such-attr", "x"}}
					if _, err := vb.Count(bad, nil); err == nil {
						t.Fatal("bitset Count accepted unknown attribute")
					}
					if _, err := vb.CountScan(bad, nil); err == nil {
						t.Fatal("CountScan accepted unknown attribute")
					}
					if avb, avs := vb.AttrValueCounts(nil), vb.AttrValueCountsScan(nil); !reflect.DeepEqual(avb, avs) {
						t.Fatalf("seed %d window %d: AttrValueCounts diverge\nbitset %v\nscan   %v", seed, wi, avb, avs)
					}
					if pb, ps := vb.PairCounts(nil, nil), vs.PairCounts(nil, nil); !reflect.DeepEqual(pb, ps) {
						t.Fatalf("seed %d window %d: PairCounts diverge", seed, wi)
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
	vb, vs := s.All(), s.WindowScan(time.Time{}, time.Time{})
	if pb, ps := vb.PairCounts(nil, nil), vs.PairCounts(nil, nil); !reflect.DeepEqual(pb, ps) {
		t.Fatal("high-cardinality PairCounts diverges from scan")
	}
	ex := map[string]bool{AttrWeather: true}
	if pb, ps := vb.PairCounts(nil, ex), vs.PairCounts(nil, ex); !reflect.DeepEqual(pb, ps) {
		t.Fatal("high-cardinality PairCounts with exclusion diverges from scan")
	}
}

// TestClearDriftMatchesScanOracle runs a clear/count sequence through
// two overlays on the same view — one driven by the bitset paths, one
// by the scan oracles — and requires identical clears, counts, and
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
					ns, err2 := v.ClearDriftScan(conds, ovS)
					if err1 != nil || err2 != nil {
						t.Fatalf("seed %d step %d: errs %v %v", seed, step, err1, err2)
					}
					if nb != ns {
						t.Fatalf("seed %d step %d: cleared bitset %d scan %d", seed, step, nb, ns)
					}
					for _, probe := range diffConds() {
						cb, err1 := v.Count(probe, ovB)
						co, err2 := v.CountScan(probe, ovS)
						if err1 != nil || err2 != nil {
							t.Fatalf("seed %d step %d: probe errs %v %v", seed, step, err1, err2)
						}
						if cb != co {
							t.Fatalf("seed %d step %d probe %v: bitset %+v scan %+v", seed, step, probe, cb, co)
						}
					}
					ab := v.AttrValueCounts(ovB)
					as := v.AttrValueCountsScan(ovS)
					if !reflect.DeepEqual(ab, as) {
						t.Fatalf("seed %d step %d: overlaid AttrValueCounts diverge", seed, step)
					}
					if !reflect.DeepEqual(v.PairCounts(ovB, nil), v.PairCounts(ovS, nil)) {
						t.Fatalf("seed %d step %d: overlaid PairCounts diverge", seed, step)
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
			// The delta's scan oracle must agree with its bitset path too.
			cdScan, err := delta.CountScan(conds, nil)
			if err != nil {
				t.Fatal(err)
			}
			if cd != cdScan {
				t.Fatalf("seed %d conds %d: delta bitset %+v scan %+v", seed, i, cd, cdScan)
			}
		}
		if v2.Len() != len1+delta.Len() {
			t.Fatalf("seed %d: Len %d != %d + %d", seed, v2.Len(), len1, delta.Len())
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

// FuzzCountDifferential drives tiny random logs through the
// bitset-vs-scan contract with fuzzer-chosen shapes.
func FuzzCountDifferential(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(0))
	f.Add(int64(42), uint8(64), uint8(1))
	f.Add(int64(99), uint8(130), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, windowSel uint8) {
		r := rand.New(rand.NewSource(seed))
		s := randomStore(r, int(n))
		w := diffWindows()[int(windowSel)%len(diffWindows())]
		vb := s.Window(w[0], w[1])
		vs := s.WindowScan(w[0], w[1])
		for _, conds := range diffConds() {
			cb, err1 := vb.Count(conds, nil)
			cs, err2 := vs.Count(conds, nil)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("error divergence: %v vs %v", err1, err2)
			}
			if cb != cs {
				t.Fatalf("conds %v: bitset %+v scan %+v", conds, cb, cs)
			}
		}
		ovB := vb.DriftOverlay()
		ovS := vb.DriftOverlay()
		defer ovB.Release()
		defer ovS.Release()
		conds := diffConds()[int(uint64(seed)%4+1)%len(diffConds())]
		nb, err1 := vb.ClearDrift(conds, ovB)
		ns, err2 := vb.ClearDriftScan(conds, ovS)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("clear error divergence: %v vs %v", err1, err2)
		}
		if nb != ns {
			t.Fatalf("cleared %d vs %d", nb, ns)
		}
		cb, _ := vb.Count(nil, ovB)
		cs, _ := vb.CountScan(nil, ovS)
		if cb != cs {
			t.Fatalf("post-clear totals %+v vs %+v", cb, cs)
		}
	})
}
