package registry

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"nazar/internal/adapt"
	"nazar/internal/driftlog"
	"nazar/internal/fim"
	"nazar/internal/nn"
	"nazar/internal/rca"
	"nazar/internal/tensor"
)

func baseNet() *nn.Network {
	return nn.NewClassifier(nn.ArchResNet18, 8, 4, tensor.NewRand(1, 1))
}

// version builds a BN version whose cause is the given attr=value pairs
// (pairs of strings) with the given risk ratio.
func version(id string, rr float64, kv ...string) adapt.BNVersion {
	var conds []driftlog.Cond
	for i := 0; i+1 < len(kv); i += 2 {
		conds = append(conds, driftlog.Cond{Attr: kv[i], Value: kv[i+1]})
	}
	return adapt.BNVersion{
		ID:       id,
		Cause:    rca.Cause{Items: fim.NewItemset(conds...), Metrics: fim.Metrics{RiskRatio: rr}},
		Snapshot: nn.CaptureBN(baseNet()),
	}
}

func at(day int) time.Time {
	return time.Date(2020, 1, 1+day, 0, 0, 0, 0, time.UTC)
}

func TestInstallAndSelect(t *testing.T) {
	p := NewPool(baseNet(), 0)
	if err := p.Install(version("rain", 2, "weather", "rain"), at(0)); err != nil {
		t.Fatal(err)
	}
	if err := p.Install(version("rain-ny", 3, "weather", "rain", "location", "NY"), at(1)); err != nil {
		t.Fatal(err)
	}
	// An input matching both must get the more specific version.
	_, id := p.Select(map[string]string{"weather": "rain", "location": "NY"})
	if id != "rain-ny" {
		t.Fatalf("selected %q, want rain-ny", id)
	}
	// Input matching only {rain} gets the rain version.
	_, id = p.Select(map[string]string{"weather": "rain", "location": "LA"})
	if id != "rain" {
		t.Fatalf("selected %q, want rain", id)
	}
	// Clean input falls back to the base model.
	net, id := p.Select(map[string]string{"weather": "clear-day"})
	if id != "" || net != p.Base() {
		t.Fatalf("expected clean fallback, got %q", id)
	}
}

func TestSameAttrsReplaced(t *testing.T) {
	p := NewPool(baseNet(), 0)
	_ = p.Install(version("rain-v1", 2, "weather", "rain"), at(0))
	_ = p.Install(version("rain-v2", 2, "weather", "rain"), at(1))
	if p.Len() != 1 {
		t.Fatalf("pool size %d, want 1", p.Len())
	}
	_, id := p.Select(map[string]string{"weather": "rain"})
	if id != "rain-v2" {
		t.Fatalf("selected %q", id)
	}
}

func TestSupersetCauseEvictsCovered(t *testing.T) {
	// Paper rule: an incoming version whose root cause covers a
	// superset of an installed version's data evicts it.
	p := NewPool(baseNet(), 0)
	_ = p.Install(version("rain-ny", 3, "weather", "rain", "location", "NY"), at(0))
	_ = p.Install(version("rain", 2, "weather", "rain"), at(1))
	if p.Len() != 1 {
		t.Fatalf("pool size %d, want 1 (rain-ny subsumed)", p.Len())
	}
	_, id := p.Select(map[string]string{"weather": "rain", "location": "NY"})
	if id != "rain" {
		t.Fatalf("selected %q", id)
	}
}

func TestLRUEviction(t *testing.T) {
	p := NewPool(baseNet(), 2)
	_ = p.Install(version("a", 1, "weather", "rain"), at(0))
	_ = p.Install(version("b", 1, "weather", "snow"), at(1))
	_ = p.Install(version("c", 1, "weather", "fog"), at(2))
	if p.Len() != 2 {
		t.Fatalf("pool size %d", p.Len())
	}
	// "a" (oldest) must be gone.
	if _, id := p.Select(map[string]string{"weather": "rain"}); id != "" {
		t.Fatalf("evicted version still selected: %q", id)
	}
	if _, id := p.Select(map[string]string{"weather": "fog"}); id != "c" {
		t.Fatalf("selected %q", id)
	}
}

func TestTouchRefreshesRecency(t *testing.T) {
	p := NewPool(baseNet(), 2)
	_ = p.Install(version("a", 1, "weather", "rain"), at(0))
	_ = p.Install(version("b", 1, "weather", "snow"), at(1))
	if !p.Touch("a", at(2)) {
		t.Fatal("touch failed")
	}
	_ = p.Install(version("c", 1, "weather", "fog"), at(3))
	// Now "b" is the LRU and must be evicted, "a" survives.
	if _, id := p.Select(map[string]string{"weather": "rain"}); id != "a" {
		t.Fatalf("a was evicted; got %q", id)
	}
	if _, id := p.Select(map[string]string{"weather": "snow"}); id != "" {
		t.Fatalf("b still present: %q", id)
	}
	if p.Touch("nonexistent", at(4)) {
		t.Fatal("touch of unknown version should fail")
	}
}

func TestRiskRatioBreaksTies(t *testing.T) {
	p := NewPool(baseNet(), 0)
	now := at(0)
	_ = p.Install(version("low", 1.5, "weather", "rain"), now)
	_ = p.Install(version("high", 4.0, "location", "NY"), now)
	// Input matches both single-attribute causes installed at the same
	// time: risk ratio decides.
	_, id := p.Select(map[string]string{"weather": "rain", "location": "NY"})
	if id != "high" {
		t.Fatalf("selected %q, want high (risk-ratio tiebreak)", id)
	}
}

func TestRecencyBeatsRiskRatio(t *testing.T) {
	p := NewPool(baseNet(), 0)
	_ = p.Install(version("older-high-rr", 9, "weather", "rain"), at(0))
	_ = p.Install(version("newer-low-rr", 1.2, "location", "NY"), at(1))
	_, id := p.Select(map[string]string{"weather": "rain", "location": "NY"})
	if id != "newer-low-rr" {
		t.Fatalf("selected %q, want newer-low-rr (recency precedes risk ratio)", id)
	}
}

func TestCleanVersionReplacesBase(t *testing.T) {
	base := baseNet()
	p := NewPool(base, 0)
	// Move the BN state so the clean version is distinguishable.
	adapted := base.Clone()
	adapted.BatchNorms()[0].RunMean[0] = 42
	clean := adapt.BNVersion{ID: "clean-v2", Snapshot: nn.CaptureBN(adapted)}
	if err := p.Install(clean, at(0)); err != nil {
		t.Fatal(err)
	}
	if p.Len() != 0 {
		t.Fatal("clean version must not occupy a pool slot")
	}
	if p.Base().BatchNorms()[0].RunMean[0] != 42 {
		t.Fatal("base not replaced")
	}
}

func TestInstallTopologyMismatch(t *testing.T) {
	p := NewPool(baseNet(), 0)
	other := nn.NewClassifier(nn.ArchResNet50, 8, 4, tensor.NewRand(2, 2))
	v := adapt.BNVersion{ID: "bad", Cause: rca.Cause{Items: fim.NewItemset(driftlog.Cond{Attr: "w", Value: "x"})},
		Snapshot: nn.CaptureBN(other)}
	if err := p.Install(v, at(0)); err == nil {
		t.Fatal("expected topology error")
	}
}

func TestVersionIDs(t *testing.T) {
	p := NewPool(baseNet(), 0)
	_ = p.Install(version("a", 1, "weather", "rain"), at(0))
	_ = p.Install(version("b", 1, "weather", "snow"), at(1))
	ids := p.VersionIDs()
	if len(ids) != 2 || ids[0] != "b" || ids[1] != "a" {
		t.Fatalf("ids %v", ids)
	}
}

// Property: after any install sequence, the pool never exceeds capacity
// and Select only returns fully matching versions.
func TestQuickPoolInvariants(t *testing.T) {
	weathers := []string{"rain", "snow", "fog"}
	locs := []string{"NY", "LA"}
	f := func(ops []uint8) bool {
		p := NewPool(baseNet(), 2)
		day := 0
		for _, op := range ops {
			if len(ops) > 40 {
				ops = ops[:40]
			}
			w := weathers[int(op)%3]
			var v adapt.BNVersion
			if op%2 == 0 {
				v = version(fmt.Sprintf("v%d", day), 1+float64(op%5), "weather", w)
			} else {
				v = version(fmt.Sprintf("v%d", day), 1+float64(op%5), "weather", w, "location", locs[int(op/3)%2])
			}
			if err := p.Install(v, at(day)); err != nil {
				return false
			}
			day++
			if p.Len() > 2 {
				return false
			}
		}
		// Selection sanity: a clear-day input must get the clean model.
		if _, id := p.Select(map[string]string{"weather": "clear-day"}); id != "" {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveByCauseAndCauseKeys(t *testing.T) {
	p := NewPool(baseNet(), 0)
	_ = p.Install(version("a", 1, "weather", "rain"), at(0))
	_ = p.Install(version("b", 1, "device", "android_3"), at(1))
	keys := p.CauseKeys()
	if len(keys) != 2 {
		t.Fatalf("keys %v", keys)
	}
	if !p.RemoveByCause("device=android_3") {
		t.Fatal("remove failed")
	}
	if p.RemoveByCause("device=android_3") {
		t.Fatal("double remove should report false")
	}
	if p.Len() != 1 {
		t.Fatalf("len %d", p.Len())
	}
	if _, id := p.Select(map[string]string{"device": "android_3", "weather": "clear-day"}); id != "" {
		t.Fatalf("retired cause still selected: %q", id)
	}
	if _, id := p.Select(map[string]string{"weather": "rain"}); id != "a" {
		t.Fatal("unrelated version lost")
	}
}

// TestPoolConcurrentInstallSelect interleaves clean installs, by-cause
// installs, SetBase, Base and Select on one pool (run under -race): the
// base pointer is read and written under the pool's lock only.
func TestPoolConcurrentInstallSelect(t *testing.T) {
	base := baseNet()
	p := NewPool(base, 4)
	clean := adapt.BNVersion{ID: "clean", Snapshot: nn.CaptureBN(base)}
	const rounds = 60
	var wg sync.WaitGroup
	run := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				f(i)
			}
		}()
	}
	run(func(i int) {
		if err := p.Install(clean, at(i)); err != nil {
			t.Error(err)
		}
	})
	run(func(i int) {
		v := version(fmt.Sprintf("v%d", i), 2, "weather", fmt.Sprintf("w%d", i%6))
		if err := p.Install(v, at(i)); err != nil {
			t.Error(err)
		}
	})
	run(func(int) { p.SetBase(base.View()) })
	run(func(i int) {
		net, _ := p.Select(map[string]string{"weather": fmt.Sprintf("w%d", i%6)})
		if net == nil || p.Base() == nil {
			t.Error("pool served no model")
		}
		p.CauseKeys()
		p.RemoveByCause(fmt.Sprintf("weather=w%d", (i+3)%6))
	})
	wg.Wait()
	if p.Len() > 4 {
		t.Fatalf("pool holds %d versions over capacity 4", p.Len())
	}
}

// TestInstallHoldsNoWeights pins what a version costs in memory: its
// batch-norm state, not a copy of the backbone. 8 versions on each of 20
// pools over one base — 160 installs — must grow the live heap by less
// than twice the base model; a deep-copy install grows it ~160×. The
// model is shaped like the paper's, where BN is a fraction of a percent
// of the parameters (this repo's 64-input MLP analogues carry 4% in BN,
// so there the 160 versions' own BN state alone outweighs the model).
func TestInstallHoldsNoWeights(t *testing.T) {
	base := nn.NewClassifier(nn.ArchResNet18, 8192, 10, tensor.NewRand(5, 5))
	snap := nn.CaptureBN(base)
	pools := make([]*Pool, 20)
	for i := range pools {
		pools[i] = NewPool(base, 0)
	}
	versions := make([]adapt.BNVersion, 8)
	for i := range versions {
		versions[i] = version(fmt.Sprintf("v%d", i), 2, "weather", fmt.Sprintf("w%d", i))
		versions[i].Snapshot = snap
	}
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	x := make([]float64, 8192)
	for _, p := range pools {
		for _, v := range versions {
			if err := p.Install(v, at(0)); err != nil {
				t.Fatal(err)
			}
			net, id := p.Select(map[string]string{"weather": v.Cause.Items[0].Value})
			if id != v.ID {
				t.Fatalf("selected %q, want %q", id, v.ID)
			}
			net.LogitsOne(x) // scratch is part of what a served version holds
		}
	}
	grew := int64(heap()) - int64(before)
	runtime.KeepAlive(pools)
	model := int64(base.SizeBytes())
	t.Logf("160 installs grew the live heap by %d B (%.2f× the %d B model, %d B per install)", grew, float64(grew)/float64(model), model, grew/160)
	if grew >= 2*model {
		t.Fatalf("160 installs grew the live heap by %d B, over 2× the %d B model: installs copy weights", grew, model)
	}
}
