package cloud

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"nazar/internal/driftlog"
	"nazar/internal/nn"
	"nazar/internal/obs"
	"nazar/internal/tensor"
	"nazar/internal/weather"
)

// cacheWorkload ingests a fog-drifted stream (no sample payloads, so
// windows analyze without adapting).
func cacheWorkload(svc *Service, day time.Time, offset, n int) {
	for i := offset; i < offset+n; i++ {
		cond := "clear-day"
		drift := i%11 == 0
		if i%2 == 0 {
			cond = "fog"
			drift = i%3 != 0
		}
		ingestOne(svc, driftlog.Entry{
			Time:  day.Add(time.Duration(i) * time.Minute),
			Drift: drift,
			Attrs: map[string]string{
				driftlog.AttrWeather:  cond,
				driftlog.AttrLocation: []string{"Hamburg", "Zurich", "Bremen"}[i%3],
			},
		}, nil)
	}
}

// expositionValue extracts one sample's value from the Prometheus text
// exposition.
func expositionValue(t *testing.T, reg *obs.Registry, needle string) float64 {
	t.Helper()
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, needle+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(needle)+1:], "%g", &v); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("sample %q not in exposition:\n%s", needle, buf.String())
	return 0
}

// TestAnalysisCache drives the window-analysis cache through its three
// outcomes — miss, hit, delta — and requires each result to be
// identical to an uncached fresh analysis of the same window.
func TestAnalysisCache(t *testing.T) {
	base := nn.NewClassifier(nn.ArchResNet18, 8, 4, tensor.NewRand(1, 1))
	reg := obs.NewRegistry()
	svc := NewService(base, DefaultConfig(), WithObserver(reg))
	day := weather.Day(10)
	cacheWorkload(svc, day, 0, 300)

	hits := func() float64 { return expositionValue(t, reg, `nazar_analysis_cache_total{result="hit"}`) }
	deltas := func() float64 { return expositionValue(t, reg, `nazar_analysis_cache_total{result="delta"}`) }
	misses := func() float64 { return expositionValue(t, reg, `nazar_analysis_cache_total{result="miss"}`) }

	// First run: a miss that populates the cache.
	res1, err := svc.RunWindowContext(context.Background(), day, day.Add(400*time.Minute), day.Add(400*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if misses() != 1 || hits() != 0 || deltas() != 0 {
		t.Fatalf("after first run: miss=%v hit=%v delta=%v", misses(), hits(), deltas())
	}
	if len(res1.Causes) == 0 {
		t.Fatal("workload produced no causes")
	}

	// Unchanged window: a hit that replays the causes without mining.
	res2, err := svc.RunWindowContext(context.Background(), day, day.Add(400*time.Minute), day.Add(400*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if hits() != 1 {
		t.Fatalf("after rerun: hit=%v", hits())
	}
	if !reflect.DeepEqual(res1.Causes, res2.Causes) {
		t.Fatalf("cache hit changed causes:\n%v\n%v", res1.Causes, res2.Causes)
	}

	// Grown window: new rows plus a later upper bound take the delta
	// path; the causes must equal a fresh uncached analysis.
	cacheWorkload(svc, day, 400, 200)
	to2 := day.Add(700 * time.Minute)
	res3, err := svc.RunWindowContext(context.Background(), day, to2, to2)
	if err != nil {
		t.Fatal(err)
	}
	if deltas() != 1 {
		t.Fatalf("after grown window: delta=%v (miss=%v hit=%v)", deltas(), misses(), hits())
	}
	fresh := NewService(nn.NewClassifier(nn.ArchResNet18, 8, 4, tensor.NewRand(1, 1)), DefaultConfig())
	cacheWorkload(fresh, day, 0, 300)
	cacheWorkload(fresh, day, 400, 200)
	resFresh, err := fresh.RunWindowContext(context.Background(), day, to2, to2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res3.Causes, resFresh.Causes) {
		t.Fatalf("delta analysis diverges from fresh:\n%v\n%v", res3.Causes, resFresh.Causes)
	}

	// A different lower bound cannot reuse the cache.
	if _, err := svc.RunWindowContext(context.Background(), day.Add(10*time.Minute), to2, to2); err != nil {
		t.Fatal(err)
	}
	if misses() != 2 {
		t.Fatalf("after shifted window: miss=%v", misses())
	}
}

// TestAnalysisCacheCompactionInvalidates: retention compaction renumbers
// rows, so a post-compaction window must re-analyze from scratch even
// with identical bounds.
func TestAnalysisCacheCompactionInvalidates(t *testing.T) {
	base := nn.NewClassifier(nn.ArchResNet18, 8, 4, tensor.NewRand(1, 1))
	reg := obs.NewRegistry()
	cfg := DefaultConfig()
	svc := NewService(base, cfg, WithObserver(reg))
	day := weather.Day(10)
	cacheWorkload(svc, day, 0, 300)

	to := day.Add(400 * time.Minute)
	if _, err := svc.RunWindowContext(context.Background(), day, to, to); err != nil {
		t.Fatal(err)
	}
	// Compact away the first half of the rows; the same window must now
	// miss (the cached watermarks are void) yet still analyze correctly.
	svc.Log().Compact(day.Add(150 * time.Minute))
	res2, err := svc.RunWindowContext(context.Background(), day, to, to)
	if err != nil {
		t.Fatal(err)
	}
	if got := expositionValue(t, reg, `nazar_analysis_cache_total{result="hit"}`); got != 0 {
		t.Fatalf("post-compaction run hit the cache (hit=%v)", got)
	}
	if got := expositionValue(t, reg, `nazar_analysis_cache_total{result="miss"}`); got != 2 {
		t.Fatalf("post-compaction run not a miss (miss=%v)", got)
	}
	if len(res2.Causes) == 0 {
		t.Fatal("post-compaction analysis found no causes")
	}
}
