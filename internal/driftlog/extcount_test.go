package driftlog

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"nazar/internal/tensor"
)

// extStore is a log for the extension count: weather (6 values) and
// location (9) stay on the bitmaps, app (300 values, ten hot) tiers up past
// the store's threshold of 64 values, and each attribute is missing from
// some rows. Rows carry random seconds in [0, 1000), so every window cuts
// through every shard's words.
func extStore(r *rand.Rand, n int) *Store {
	s := NewStoreWithSketch(SketchConfig{Threshold: 64})
	appendExt(s, r, n, "")
	return s
}

// appendExt appends n of extStore's rows; a non-empty late adds one value
// to weather and to app that no earlier row holds.
func appendExt(s *Store, r *rand.Rand, n int, late string) {
	base := time.Unix(0, 0).UTC()
	batch := make([]Entry, n)
	for i := range batch {
		attrs := map[string]string{}
		if r.Float64() < 0.95 {
			attrs[AttrWeather] = fmt.Sprint("w", r.Intn(6))
		}
		if r.Float64() < 0.9 {
			attrs[AttrLocation] = fmt.Sprint("city_", r.Intn(9))
		}
		if u := r.Float64(); u < 0.6 {
			attrs["app"] = fmt.Sprint("a", r.Intn(10))
		} else if u < 0.9 {
			attrs["app"] = fmt.Sprint("a", 10+r.Intn(290))
		}
		if late != "" && i%3 == 0 {
			attrs[AttrWeather], attrs["app"] = "w_"+late, "a_"+late
		}
		batch[i] = Entry{Time: base.Add(time.Duration(r.Intn(1000)) * time.Second), Drift: r.Float64() < 0.3, SampleID: -1, Attrs: attrs}
	}
	s.AppendBatch(batch)
}

// extGroups builds random groups over the store's values in the extension
// count's form, with each value's condition beside it: prefixes of zero to
// two values, extensions on the attributes the prefix leaves out (app's at
// random: a group with an app value walks), values interned after the view
// included, and a prefix no row matches (two weathers).
func extGroups(r *rand.Rand, s *Store) (groups []Group, prefix, ext [][]Cond) {
	s.dictMu.RLock()
	defer s.dictMu.RUnlock()
	item := func(attr string, id int) (Item, Cond) {
		d := s.dicts[attr]
		return Item{d.pos, uint32(id)}, Cond{attr, d.vals[id]}
	}
	attrs := []string{AttrWeather, AttrLocation, "app"}
	add := func(pre []string, preIDs []int) {
		var g Group
		var pc, ec []Cond
		for i, a := range pre {
			it, c := item(a, preIDs[i])
			g.Prefix, pc = append(g.Prefix, it), append(pc, c)
		}
		for _, a := range attrs {
			if len(pre) > 0 && (a == pre[0] || a == pre[len(pre)-1]) || a == "app" && r.Intn(2) == 0 {
				continue
			}
			for id := 1; id < len(s.dicts[a].vals); id++ {
				if a != "app" || id <= 12 || r.Intn(8) == 0 {
					it, c := item(a, id)
					g.Ext, ec = append(g.Ext, it), append(ec, c)
				}
			}
		}
		groups, prefix = append(groups, g), append(prefix, pc)
		ext = append(ext, ec)
	}
	add(nil, nil)
	for range 12 {
		k := r.Intn(3)
		if k == 0 {
			continue
		}
		a := r.Perm(len(attrs))[:k]
		pre, ids := make([]string, k), make([]int, k)
		for i, ai := range a {
			pre[i], ids[i] = attrs[ai], 1+r.Intn(min(len(s.dicts[attrs[ai]].vals)-1, 12))
		}
		add(pre, ids)
	}
	add([]string{AttrWeather, AttrWeather}, []int{1, 2})
	return groups, prefix, ext
}

// requireExtMatchesScan requires every group's counts to equal the row
// walk's Count of its prefix and each extension.
func requireExtMatchesScan(t *testing.T, what string, v *View, ov *Overlay, groups []Group, prefix, ext [][]Cond) {
	t.Helper()
	got := v.ExtensionCounts(ov, groups)
	walked, popcounted := 0, 0
	for g := range groups {
		if len(got[g]) != len(groups[g].Ext) {
			t.Fatalf("%s: group %d holds %d counts for %d extensions", what, g, len(got[g]), len(groups[g].Ext))
		}
		for k, c := range ext[g] {
			want, err := refCount(v, append(prefix[g][:len(prefix[g]):len(prefix[g])], c), ov)
			if err != nil {
				t.Fatal(err)
			}
			if got[g][k] != want {
				t.Fatalf("%s: %v + %v: got %+v, scan %+v", what, prefix[g], c, got[g][k], want)
			}
		}
		onApp := func(c Cond) bool { return c.Attr == "app" }
		if len(groups[g].Ext) > maxValueSweep || slices.ContainsFunc(prefix[g], onApp) || slices.ContainsFunc(ext[g], onApp) {
			walked++
		} else {
			popcounted++
		}
	}
	if walked == 0 || popcounted == 0 {
		t.Fatalf("%s: %d groups walk, %d popcount: both routes must run", what, walked, popcounted)
	}
}

// TestExtensionCountsMatchScan is the extension count's differential
// contract, at pool widths 1 and 8 under every kernel body: random logs with
// a tiered and an untiered attribute and rows lacking either, unaligned
// windows, overlays after ClearDrift, Since deltas, values interned after
// the view and a prefix no row matches, each group's counts equal to the row
// walk's (refCount).
func TestExtensionCountsMatchScan(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			tensor.SetMaxWorkers(workers)
			defer tensor.SetMaxWorkers(0)
			onKernelBodies(t, func(t *testing.T) {
				for seed := int64(0); seed < 4; seed++ {
					r := rand.New(rand.NewSource(seed))
					s := extStore(r, 4000)
					if tiered := s.SketchedAttrs(); len(tiered) != 1 || tiered[0] != "app" {
						t.Fatalf("tiered attributes %v, want [app]", tiered)
					}
					base := time.Unix(0, 0).UTC()
					from, to := base.Add(time.Duration(100+r.Intn(200))*time.Second), base.Add(time.Duration(600+r.Intn(300))*time.Second)
					for _, w := range [][2]time.Time{{}, {from, to}} {
						v := s.Window(w[0], w[1])
						// Values interned after the view: its groups name them,
						// and no pinned row holds them.
						grown := s.Len()
						appendExt(s, r, 300, fmt.Sprint(seed))
						groups, prefix, ext := extGroups(r, s)
						what := fmt.Sprintf("seed %d window %v", seed, w)
						requireExtMatchesScan(t, what, v, nil, groups, prefix, ext)

						ov := v.DriftOverlay()
						for _, c := range [][]Cond{{{AttrWeather, "w1"}}, {{"app", "a3"}}, {{AttrLocation, "city_2"}, {AttrWeather, "w4"}}} {
							if _, err := v.ClearDrift(c, ov); err != nil {
								t.Fatal(err)
							}
							requireExtMatchesScan(t, fmt.Sprintf("%s after clearing %v", what, c), v, ov, groups, prefix, ext)
						}
						ov.Release()

						// The grown view's delta: the rows appended since v.
						v2 := s.Window(w[0], w[1])
						_, to1 := v.Bounds()
						d, err := v2.Since(v.ShardRows(), to1)
						if err != nil {
							t.Fatal(err)
						}
						if d.Len() == 0 && w[0].IsZero() && s.Len() > grown {
							t.Fatalf("%s: the delta of %d appended rows is empty", what, s.Len()-grown)
						}
						requireExtMatchesScan(t, what+" delta", d, nil, groups, prefix, ext)
					}
				}
			})
		})
	}
}
