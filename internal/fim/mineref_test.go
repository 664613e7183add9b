package fim

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"nazar/internal/driftlog"
)

// refMine is the reference miner: apriori as the product ran it before the
// level-1 survivors were pushed into the store — every co-occurring pair of
// the window counted and then filtered, every join of two frequent
// (k-1)-sets counted with no prune step, a map per join. It shares with
// MineContext only the View queries, ComputeMetrics, Thresholds.Passes and
// Rank.
func refMine(t *testing.T, v *driftlog.View, ov *driftlog.Overlay, th Thresholds) []Result {
	t.Helper()
	if th.MaxItems <= 0 {
		th.MaxItems = 3
	}
	totals, err := v.Count(nil, ov)
	if err != nil {
		t.Fatal(err)
	}
	if totals.Drift == 0 {
		return nil
	}
	excluded := map[string]bool{}
	for _, a := range th.ExcludeAttrs {
		excluded[a] = true
	}
	type scored struct {
		set Itemset
		n   driftlog.CountResult
	}
	frequent := func(n driftlog.CountResult) bool {
		return ComputeMetrics(n, totals.Total, totals.Drift).Occurrence >= th.MinOccurrence
	}
	var level, all []scored
	single := map[driftlog.Cond]bool{}
	for attr, values := range v.AttrValueCounts(ov) {
		for val, n := range values {
			if !excluded[attr] && frequent(n) {
				c := driftlog.Cond{Attr: attr, Value: val}
				single[c] = true
				level = append(level, scored{Itemset{c}, n})
			}
		}
	}
	all = append(all, level...)
	if th.MaxItems >= 2 && len(level) > 1 {
		level = nil
		for pk, n := range v.PairCounts(ov, excluded) {
			conds := pk.Conds()
			if single[conds[0]] && single[conds[1]] && frequent(n) {
				level = append(level, scored{NewItemset(conds...), n})
			}
		}
		all = append(all, level...)
	}
	for k := 3; k <= th.MaxItems && len(level) > 1; k++ {
		seen := map[string]bool{}
		var next []scored
		for i := range level {
			for j := i + 1; j < len(level); j++ {
				merged := map[string]string{}
				ok := true
				for _, c := range append(append(Itemset{}, level[i].set...), level[j].set...) {
					if val, dup := merged[c.Attr]; dup && val != c.Value {
						ok = false
					}
					merged[c.Attr] = c.Value
				}
				if !ok || len(merged) != k {
					continue
				}
				var conds []driftlog.Cond
				for attr, val := range merged {
					conds = append(conds, driftlog.Cond{Attr: attr, Value: val})
				}
				cand := NewItemset(conds...)
				if id := fmt.Sprintf("%q", cand); !seen[id] {
					seen[id] = true
					n, err := v.Count(cand, ov)
					if err != nil {
						t.Fatal(err)
					}
					if frequent(n) {
						next = append(next, scored{cand, n})
					}
				}
			}
		}
		all = append(all, next...)
		level = next
	}
	var results []Result
	for _, c := range all {
		if m := ComputeMetrics(c.n, totals.Total, totals.Drift); th.Passes(m) {
			results = append(results, Result{Items: c.set, Counts: c.n, Metrics: m})
		}
	}
	Rank(results)
	return results
}

// propertyLog builds a random log of five attributes whose cardinalities
// (3 to 400 values) straddle MinOccurrence, so level 1 drops some values and
// keeps others, with drift concentrated on two planted causes. With tiered
// set, the widest attribute crosses a small tier-up threshold.
func propertyLog(r *rand.Rand, n int, tiered bool) *driftlog.Store {
	cfg := driftlog.SketchConfig{Threshold: 1 << 30}
	if tiered {
		cfg = driftlog.SketchConfig{Threshold: 64}
	}
	s := driftlog.NewStoreWithSketch(cfg)
	attrs := []struct {
		name string
		card int
	}{{"a", 3}, {"b", 8 + r.Intn(8)}, {"c", 30 + r.Intn(30)}, {driftlog.AttrDevice, 80}, {"e", 400}}
	base := time.Unix(0, 0).UTC()
	batch := make([]driftlog.Entry, n)
	for i := range batch {
		row := map[string]string{}
		for _, a := range attrs {
			if r.Float64() < 0.95 {
				// Squared draw: a few hot values per attribute, a long tail.
				u := r.Float64()
				row[a.name] = fmt.Sprintf("%s%d", a.name, int(u*u*float64(a.card)))
			}
		}
		p := 0.05
		if row["a"] == "a0" || (row["b"] == "b1" && row["c"] == "c0") {
			p = 0.7
		}
		batch[i] = driftlog.Entry{Time: base.Add(time.Duration(r.Intn(1000)) * time.Second),
			Drift: r.Float64() < p, SampleID: -1, Attrs: row}
	}
	s.AppendBatch(batch)
	return s
}

// TestMineMatchesReferenceMiner is the property the pushed-down mask and the
// prune step are held to: on random logs — with and without a tiered
// attribute, whole and
// partial windows, stored flags and a mutated overlay, two to four items —
// MineContext returns exactly what the count-everything reference returns.
func TestMineMatchesReferenceMiner(t *testing.T) {
	base := time.Unix(0, 0).UTC()
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		tiered := seed%3 == 2
		s := propertyLog(r, 2000+r.Intn(3000), tiered)
		th := DefaultThresholds()
		th.MaxItems = 2 + int(seed)%3
		th.MinConfidence = 0.2
		if seed%4 == 1 {
			th.ExcludeAttrs = []string{"b"}
		}
		for wi, v := range []*driftlog.View{s.All(), s.Window(base.Add(300*time.Second), base.Add(800*time.Second))} {
			got, err := MineContext(context.Background(), v, nil, th)
			if err != nil {
				t.Fatal(err)
			}
			if want := refMine(t, v, nil, th); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d window %d (tiered=%v): mined %d results, reference %d\ngot  %v\nwant %v",
					seed, wi, tiered, len(got), len(want), got, want)
			}
			if len(got) == 0 {
				t.Fatalf("seed %d window %d: nothing mined, the property is vacuous", seed, wi)
			}
			ov := v.DriftOverlay()
			if _, err := v.ClearDrift([]driftlog.Cond{{Attr: "a", Value: "a0"}}, ov); err != nil {
				t.Fatal(err)
			}
			got, err = MineContext(context.Background(), v, ov, th)
			if err != nil {
				t.Fatal(err)
			}
			if want := refMine(t, v, ov, th); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d window %d (tiered=%v): overlaid mine diverges from the reference", seed, wi, tiered)
			}
			ov.Release()
		}
	}
}

// TestSketchPairsHaveNoFalseNegatives holds a tiered attribute to what the
// prune step relies on: PairCountsMasked under apriori's mask (the level-1
// survivors) reports exactly the mask-kept pairs the window holds, each with
// its row count. The log has a tiered attribute with a hot head and a long
// tail, and mining it equals the count-everything reference.
func TestSketchPairsHaveNoFalseNegatives(t *testing.T) {
	r := rand.New(rand.NewSource(0))
	s := driftlog.NewStoreWithSketch(driftlog.SketchConfig{Threshold: 100})
	batch := make([]driftlog.Entry, 8000)
	for i := range batch {
		x, y, z, sv := fmt.Sprint("x", r.Intn(2)), fmt.Sprint("y", r.Intn(4)), fmt.Sprint("z", r.Intn(70)), "s0"
		switch u := r.Float64(); {
		case u < 0.2:
			sv = fmt.Sprint("tail", r.Intn(500))
		case u < 0.26:
			sv = fmt.Sprint("mid", r.Intn(5)) // just above MinOccurrence, as z's values are
		case u < 0.8:
			sv = fmt.Sprint("s", 1+r.Intn(6))
		}
		p := 0.03
		if x == "x0" && y == "y1" && sv == "s3" {
			p = 0.9
		}
		batch[i] = driftlog.Entry{Time: time.Unix(int64(r.Intn(1000)), 0), Drift: r.Float64() < p, SampleID: -1,
			Attrs: map[string]string{"x": x, "y": y, "z": z, "s": sv}}
	}
	s.AppendBatch(batch)
	if got := s.SketchedAttrs(); len(got) != 1 || got[0] != "s" {
		t.Fatalf("tiered attrs %v, want [s]", got)
	}
	th := DefaultThresholds()
	th.MinConfidence = 0.3
	for _, v := range []*driftlog.View{s.All(), s.Window(time.Unix(200, 0), time.Unix(700, 0))} {
		from, to := v.Bounds()
		truth := map[driftlog.PairKey]driftlog.CountResult{}
		s.Each(func(_ int, e driftlog.Entry) {
			if ns := e.Time.UnixNano(); ns < from || ns >= to {
				return
			}
			for a, va := range e.Attrs {
				for b, vb := range e.Attrs {
					if a < b {
						k := driftlog.PairKey{AttrA: a, ValA: va, AttrB: b, ValB: vb}
						cr := truth[k]
						cr.Total++
						if e.Drift {
							cr.Drift++
						}
						truth[k] = cr
					}
				}
			}
		})
		mask := driftlog.ValueMask{}
		for attr, byVal := range v.AttrValueCounts(nil) {
			for val, cr := range byVal {
				if float64(cr.Total) >= th.MinOccurrence*float64(v.Len()) {
					if mask[attr] == nil {
						mask[attr] = map[string]bool{}
					}
					mask[attr][val] = true
				}
			}
		}
		if len(mask["s"]) == 0 {
			t.Fatal("no tiered value survives level 1: the test is vacuous")
		}
		got := v.PairCountsMasked(nil, mask)
		kept := 0
		for k, want := range truth {
			if !mask[k.AttrA][k.ValA] || !mask[k.AttrB][k.ValB] {
				continue
			}
			kept++
			if cr, ok := got[k]; !ok || cr != want {
				t.Fatalf("window [%d, %d): mask-kept pair %+v holds %+v, reported %+v (present %v)", from, to, k, want, cr, ok)
			}
		}
		if len(got) != kept {
			t.Fatalf("window [%d, %d): %d pairs reported, %d mask-kept pairs held", from, to, len(got), kept)
		}
		if kept == 0 {
			t.Fatal("no mask-kept pair in the window")
		}
		mined, err := MineContext(context.Background(), v, nil, th)
		if err != nil {
			t.Fatal(err)
		}
		if want := refMine(t, v, nil, th); !reflect.DeepEqual(mined, want) {
			t.Fatalf("mined %v\nreference %v", mined, want)
		}
		if len(mined) == 0 {
			t.Fatal("nothing mined")
		}
	}
}

// TestMineStatsPinned pins the work counters on a fixed seeded log to the
// unit: the pairs the store materializes are the level-1 survivors' pairs
// and nothing else, and level 3 counts exactly the joined candidates whose
// three 2-subsets are all frequent.
func TestMineStatsPinned(t *testing.T) {
	v := propertyLog(rand.New(rand.NewSource(42)), 4000, false).All()
	th := DefaultThresholds()
	before := ReadMineStats()
	if _, err := MineContext(context.Background(), v, nil, th); err != nil {
		t.Fatal(err)
	}
	after := ReadMineStats()
	got := MineStats{PairsCounted: after.PairsCounted - before.PairsCounted}
	for i := range got.Candidates {
		got.Candidates[i] = after.Candidates[i] - before.Candidates[i]
	}

	// The same numbers from first principles.
	totals, _ := v.Count(nil, nil)
	floor := func(n driftlog.CountResult) bool {
		return ComputeMetrics(n, totals.Total, totals.Drift).Occurrence >= th.MinOccurrence
	}
	var want MineStats
	single := map[driftlog.Cond]bool{}
	for attr, values := range v.AttrValueCounts(nil) {
		want.Candidates[0] += uint64(len(values))
		for val, n := range values {
			single[driftlog.Cond{Attr: attr, Value: val}] = floor(n)
		}
	}
	var pairs []Itemset
	frequentPair := map[[2]driftlog.Cond]bool{}
	for pk, n := range v.PairCounts(nil, nil) {
		if c := pk.Conds(); single[c[0]] && single[c[1]] {
			want.PairsCounted++
			if floor(n) {
				pairs = append(pairs, Itemset(c))
				frequentPair[[2]driftlog.Cond{c[0], c[1]}] = true
			}
		}
	}
	want.Candidates[1] = want.PairsCounted
	triples := map[[3]driftlog.Cond]bool{}
	for i := range pairs {
		for j := i + 1; j < len(pairs); j++ {
			if c, ok := join(pairs[i], pairs[j]); ok &&
				frequentPair[[2]driftlog.Cond{c[0], c[1]}] && frequentPair[[2]driftlog.Cond{c[0], c[2]}] && frequentPair[[2]driftlog.Cond{c[1], c[2]}] {
				triples[[3]driftlog.Cond{c[0], c[1], c[2]}] = true
			}
		}
	}
	want.Candidates[2] = uint64(len(triples))
	if got != want {
		t.Fatalf("work counters %+v, from first principles %+v", got, want)
	}
	if pinned := (MineStats{PairsCounted: 1856, Candidates: [mineLevels]uint64{539, 1856, 44}}); got != pinned {
		t.Fatalf("work counters %+v, pinned %+v", got, pinned)
	}
	if all := len(v.PairCounts(nil, nil)); uint64(all) <= 4*got.PairsCounted {
		t.Fatalf("window holds %d pairs, mask kept %d: the log no longer exercises the mask", all, got.PairsCounted)
	}
}

// TestItemsetKeyUnambiguous: distinct itemsets have distinct keys whatever
// bytes their attributes and values hold, and a value without '|', '=' or
// '\' appears in the key verbatim.
func TestItemsetKeyUnambiguous(t *testing.T) {
	if got := NewItemset(driftlog.Cond{Attr: "weather", Value: "snow"}, driftlog.Cond{Attr: "location", Value: "New York"}).Key(); got != "location=New York|weather=snow" {
		t.Fatalf("plain key = %q", got)
	}
	parts := []string{"x", "y", "x|b=y", "x=y", `x\`, `\|b`, "|", "=", `\`, `x\|b=y`, "b=y", ""}
	keys := map[string]Itemset{}
	add := func(s Itemset) {
		if prev, dup := keys[s.Key()]; dup && !reflect.DeepEqual(prev, s) {
			t.Fatalf("%#v and %#v share the key %q", prev, s, s.Key())
		}
		keys[s.Key()] = s
	}
	for _, a := range parts {
		for _, v := range parts {
			add(Itemset{{Attr: "a" + a, Value: v}})
			for _, w := range parts {
				add(Itemset{{Attr: "a", Value: v}, {Attr: "b" + a, Value: w}})
			}
		}
	}
}

// TestSupportMemoDoesNotAlias is the regression for the memo aliasing bug:
// the single condition {a="x|b=y"} and the pair {a=x, b=y} used to share the
// SupportCache key "a=x|b=y", so whichever was rescored second was served
// the other's counts.
func TestSupportMemoDoesNotAlias(t *testing.T) {
	s := driftlog.NewStore()
	var batch []driftlog.Entry
	for i := 0; i < 300; i++ {
		batch = append(batch,
			driftlog.Entry{Time: time.Unix(int64(i), 0), Drift: true, SampleID: -1, Attrs: map[string]string{"a": "x|b=y"}},
			driftlog.Entry{Time: time.Unix(int64(i), 0), Drift: false, SampleID: -1, Attrs: map[string]string{"a": "x", "b": "y"}})
	}
	s.AppendBatch(batch)
	sc := NewSupportCache(s.All())
	one, err := RescoreCached(sc, Itemset{{Attr: "a", Value: "x|b=y"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := RescoreCached(sc, Itemset{{Attr: "a", Value: "x"}, {Attr: "b", Value: "y"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := (driftlog.CountResult{Total: 300, Drift: 300}); one.Counts != want {
		t.Fatalf("single condition counts %+v, want %+v", one.Counts, want)
	}
	if want := (driftlog.CountResult{Total: 300, Drift: 0}); pair.Counts != want {
		t.Fatalf("pair counts %+v, want %+v (the single condition's memo entry was served)", pair.Counts, want)
	}
}
