package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConfusionCounts(t *testing.T) {
	var c Confusion
	c.Observe(true, true)   // TP
	c.Observe(true, false)  // FP
	c.Observe(false, true)  // FN
	c.Observe(false, false) // TN
	if c.TP != 1 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Fatalf("counts %+v", c)
	}
	if c.Precision() != 0.5 || c.Recall() != 0.5 {
		t.Fatalf("P=%v R=%v", c.Precision(), c.Recall())
	}
	if c.F1() != 0.5 {
		t.Fatalf("F1=%v", c.F1())
	}
}

func TestF1Formula(t *testing.T) {
	// F1 = 2PR/(P+R) must equal 2TP/(2TP+FP+FN).
	c := Confusion{TP: 7, FP: 3, FN: 2, TN: 10}
	p, r := c.Precision(), c.Recall()
	want := 2 * p * r / (p + r)
	if math.Abs(c.F1()-want) > 1e-12 {
		t.Fatalf("F1=%v want %v", c.F1(), want)
	}
}

func TestEmptyConfusion(t *testing.T) {
	var c Confusion
	if c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 {
		t.Fatal("empty confusion must return zeros")
	}
}

func TestFowlkesMallowsPerfect(t *testing.T) {
	truth := []string{"a", "a", "b", "b", "c"}
	if got := FowlkesMallows(truth, truth); got != 1 {
		t.Fatalf("identical clusterings FMS = %v", got)
	}
	// Relabeled but identical partition is still perfect.
	pred := []string{"x", "x", "y", "y", "z"}
	if got := FowlkesMallows(truth, pred); got != 1 {
		t.Fatalf("relabeled clustering FMS = %v", got)
	}
}

func TestFowlkesMallowsDisjoint(t *testing.T) {
	truth := []string{"a", "a", "a", "a"}
	pred := []string{"w", "x", "y", "z"}
	if got := FowlkesMallows(truth, pred); got != 0 {
		t.Fatalf("completely split FMS = %v", got)
	}
}

func TestFowlkesMallowsKnownValue(t *testing.T) {
	// truth: {0,1} {2,3}; pred: {0,1,2} {3}
	truth := []string{"a", "a", "b", "b"}
	pred := []string{"x", "x", "x", "y"}
	// Pairs co-clustered in truth: (0,1),(2,3) -> 2. In pred: (0,1),(0,2),(1,2) -> 3.
	// TP (both): (0,1) -> 1. FMS = 1/sqrt(2*3).
	want := 1 / math.Sqrt(6)
	if got := FowlkesMallows(truth, pred); math.Abs(got-want) > 1e-12 {
		t.Fatalf("FMS = %v want %v", got, want)
	}
}

func TestFowlkesMallowsSingletons(t *testing.T) {
	if got := FowlkesMallows([]string{"a", "b"}, []string{"x", "y"}); got != 1 {
		t.Fatalf("all-singleton FMS = %v", got)
	}
	if got := FowlkesMallows([]string{"a"}, []string{"x"}); got != 1 {
		t.Fatalf("single item FMS = %v", got)
	}
}

func TestFowlkesMallowsMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FowlkesMallows([]string{"a"}, []string{"a", "b"})
}

// Property: FMS is symmetric and within [0,1].
func TestQuickFowlkesMallows(t *testing.T) {
	labels := []string{"a", "b", "c"}
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 30 {
			raw = raw[:30]
		}
		n := len(raw) / 2
		if n < 2 {
			return true
		}
		truth := make([]string, n)
		pred := make([]string, n)
		for i := 0; i < n; i++ {
			truth[i] = labels[int(raw[i])%3]
			pred[i] = labels[int(raw[n+i])%3]
		}
		a := FowlkesMallows(truth, pred)
		b := FowlkesMallows(pred, truth)
		return a >= 0 && a <= 1+1e-12 && math.Abs(a-b) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanStd(t *testing.T) {
	if Mean(nil) != 0 || Std(nil) != 0 {
		t.Fatal("empty stats should be 0")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("mean %v", Mean(xs))
	}
	if Std(xs) != 2 {
		t.Fatalf("std %v", Std(xs))
	}
}

func TestRunningAccuracy(t *testing.T) {
	var r RunningAccuracy
	if r.Value() != 0 {
		t.Fatal("empty running accuracy")
	}
	r.Observe(true)
	r.Observe(true)
	r.Observe(false)
	if math.Abs(r.Value()-2.0/3) > 1e-12 {
		t.Fatalf("value %v", r.Value())
	}
}

func TestAUROCPerfect(t *testing.T) {
	neg := []float64{0.9, 0.95, 0.99} // clean: high confidence
	pos := []float64{0.1, 0.2, 0.3}   // drifted: low confidence
	if got := AUROC(neg, pos); got != 1 {
		t.Fatalf("perfect separation AUROC = %v", got)
	}
	if got := AUROC(pos, neg); got != 0 {
		t.Fatalf("inverted AUROC = %v", got)
	}
}

func TestAUROCChanceAndTies(t *testing.T) {
	same := []float64{0.5, 0.5, 0.5}
	if got := AUROC(same, same); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("all-tied AUROC = %v", got)
	}
	if got := AUROC(nil, []float64{1}); got != 0.5 {
		t.Fatalf("empty side AUROC = %v", got)
	}
}

func TestAUROCMatchesBruteForce(t *testing.T) {
	neg := []float64{0.9, 0.5, 0.7, 0.5}
	pos := []float64{0.4, 0.5, 0.8}
	var wins float64
	for _, p := range pos {
		for _, n := range neg {
			switch {
			case p < n:
				wins++
			case p == n:
				wins += 0.5
			}
		}
	}
	want := wins / float64(len(neg)*len(pos))
	if got := AUROC(neg, pos); math.Abs(got-want) > 1e-12 {
		t.Fatalf("AUROC = %v, brute force %v", got, want)
	}
}

// Property: AUROC(neg, pos) + AUROC(pos, neg) == 1.
func TestQuickAUROCSymmetry(t *testing.T) {
	f := func(rawA, rawB []uint8) bool {
		if len(rawA) == 0 || len(rawB) == 0 {
			return true
		}
		if len(rawA) > 20 {
			rawA = rawA[:20]
		}
		if len(rawB) > 20 {
			rawB = rawB[:20]
		}
		a := make([]float64, len(rawA))
		b := make([]float64, len(rawB))
		for i, v := range rawA {
			a[i] = float64(v % 16)
		}
		for i, v := range rawB {
			b[i] = float64(v % 16)
		}
		return math.Abs(AUROC(a, b)+AUROC(b, a)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
