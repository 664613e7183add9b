package cloud

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"nazar/internal/driftlog"
	"nazar/internal/nn"
	"nazar/internal/obs"
	"nazar/internal/tensor"
	"nazar/internal/weather"
)

func walTestService(t *testing.T, dir string, opts ...Option) *Service {
	t.Helper()
	base := nn.NewClassifier(nn.ArchResNet18, 8, 4, tensor.NewRand(1, 1))
	opts = append([]Option{WithWAL(dir, driftlog.WALOptions{})}, opts...)
	svc := NewService(base, DefaultConfig(), opts...)
	if err := svc.WALErr(); err != nil {
		t.Fatalf("wal open: %v", err)
	}
	return svc
}

// TestServiceWALRestart proves the restart contract end to end: a
// service reopened on the same WAL directory resumes with every
// acknowledged row, its analysis caches start cold, and the reopened
// service's window results are identical to the original's.
func TestServiceWALRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	day := weather.Day(10)
	to := day.Add(400 * time.Minute)

	reg1 := obs.NewRegistry()
	svc := walTestService(t, dir, WithObserver(reg1))
	cacheWorkload(svc, day, 0, 300)
	res1, err := svc.RunWindowContext(context.Background(), day, to, to)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Causes) == 0 {
		t.Fatal("workload produced no causes")
	}
	rows := svc.Log().Len()
	if err := svc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The service is discarded here; only the WAL directory survives.

	reg2 := obs.NewRegistry()
	svc2 := walTestService(t, dir, WithObserver(reg2))
	defer svc2.Close()
	if got := svc2.Log().Len(); got != rows {
		t.Fatalf("replayed rows: want %d got %d", rows, got)
	}
	if rec := svc2.WAL().Recovery(); rec.TornTail {
		t.Fatalf("clean shutdown replayed as torn: %+v", rec)
	}

	// Caches are cold: the first window on the reopened service is an
	// analysis-cache miss, not a hit — there is no carried-over state.
	res2, err := svc2.RunWindowContext(context.Background(), day, to, to)
	if err != nil {
		t.Fatal(err)
	}
	if misses := expositionValue(t, reg2, `nazar_analysis_cache_total{result="miss"}`); misses != 1 {
		t.Fatalf("reopened service first window: miss=%v, want 1 (cold cache)", misses)
	}
	if hits := expositionValue(t, reg2, `nazar_analysis_cache_total{result="hit"}`); hits != 0 {
		t.Fatalf("reopened service first window hit a cache that should not exist: hit=%v", hits)
	}
	// ... but cold caches must not change answers: byte-identical causes.
	if !reflect.DeepEqual(res1.Causes, res2.Causes) {
		t.Fatalf("window results diverge across restart:\n%v\n%v", res1.Causes, res2.Causes)
	}
	if res1.LogRows != res2.LogRows {
		t.Fatalf("window rows diverge across restart: %d vs %d", res1.LogRows, res2.LogRows)
	}

	// The cache works after replay: an unchanged window now hits.
	if _, err := svc2.RunWindowContext(context.Background(), day, to, to); err != nil {
		t.Fatal(err)
	}
	if hits := expositionValue(t, reg2, `nazar_analysis_cache_total{result="hit"}`); hits != 1 {
		t.Fatalf("post-replay cache never warmed: hit=%v", hits)
	}
	// ... and the delta path too: grow the window with post-restart rows.
	cacheWorkload(svc2, day, 400, 200)
	to2 := day.Add(700 * time.Minute)
	if _, err := svc2.RunWindowContext(context.Background(), day, to2, to2); err != nil {
		t.Fatal(err)
	}
	if deltas := expositionValue(t, reg2, `nazar_analysis_cache_total{result="delta"}`); deltas != 1 {
		t.Fatalf("post-replay grown window not a delta: %v", deltas)
	}
}

// TestServiceWALIngestRefusedAfterSever: once the WAL is severed (the
// chaos harness's kill), ingest must refuse with ErrDurability — an
// unacknowledged batch, not a silent in-memory-only write.
func TestServiceWALIngestRefusedAfterSever(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	svc := walTestService(t, dir)
	day := weather.Day(10)
	cacheWorkload(svc, day, 0, 10)
	before := svc.Log().Len()
	svc.WAL().Sever()
	err := svc.IngestBatchContext(context.Background(), []driftlog.Entry{{
		Time:  day,
		Attrs: map[string]string{driftlog.AttrWeather: "fog"},
	}}, nil)
	if !errors.Is(err, ErrDurability) {
		t.Fatalf("ingest after sever: want ErrDurability, got %v", err)
	}
	if svc.Log().Len() != before {
		t.Fatalf("refused batch still landed in memory: %d -> %d rows", before, svc.Log().Len())
	}
}

// TestServiceWALOpenFailure: an unopenable WAL defers to WALErr and the
// service refuses ingest rather than running volatile.
func TestServiceWALOpenFailure(t *testing.T) {
	dir := t.TempDir()
	// A corrupt segment: plausible length/CRC damage in a sealed file.
	seg := filepath.Join(dir, "wal-0000000000000001.seg")
	writeFileOrFatal(t, seg, []byte("NZWAL001garbage-that-is-not-a-frame"))
	seg2 := filepath.Join(dir, "wal-0000000000000002.seg")
	writeFileOrFatal(t, seg2, []byte("NZWAL001"))

	base := nn.NewClassifier(nn.ArchResNet18, 8, 4, tensor.NewRand(1, 1))
	svc := NewService(base, DefaultConfig(), WithWAL(dir, driftlog.WALOptions{}))
	if svc.WALErr() == nil {
		t.Fatal("corrupt WAL directory opened without error")
	}
	var ce *driftlog.CorruptError
	if !errors.As(svc.WALErr(), &ce) {
		t.Fatalf("WALErr not a *CorruptError: %v", svc.WALErr())
	}
	if err := svc.IngestBatchContext(context.Background(), []driftlog.Entry{{Time: weather.Day(0), Attrs: map[string]string{"a": "b"}}}, nil); !errors.Is(err, ErrDurability) {
		t.Fatalf("ingest with failed WAL: want ErrDurability, got %v", err)
	}
	if svc.Log().Len() != 0 {
		t.Fatalf("refused ingest landed in memory: %d rows", svc.Log().Len())
	}
}

func writeFileOrFatal(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestServiceWALRestartSampleLinks: samples live only in memory, so after
// a restart the replayed rows' sample links are stale. They must gather
// nothing — in particular not the samples that rows of another cause
// upload after the restart, which by-cause adaptation would then train on.
func TestServiceWALRestartSampleLinks(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	day := weather.Day(10)
	batch := func(cause string, mark float64) ([]driftlog.Entry, [][]float64) {
		entries := make([]driftlog.Entry, 20)
		samples := make([][]float64, len(entries))
		for i := range entries {
			entries[i] = driftlog.Entry{
				Time:  day.Add(time.Duration(i) * time.Minute),
				Drift: true,
				Attrs: map[string]string{driftlog.AttrWeather: cause},
			}
			samples[i] = []float64{mark, float64(i)}
		}
		return entries, samples
	}

	svc := walTestService(t, dir)
	entriesA, samplesA := batch("snow", 1)
	if err := svc.IngestBatchContext(context.Background(), entriesA, samplesA); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	svc2 := walTestService(t, dir)
	defer svc2.Close()
	entriesB, samplesB := batch("fog", 2)
	if err := svc2.IngestBatchContext(context.Background(), entriesB, samplesB); err != nil {
		t.Fatal(err)
	}
	v := svc2.Log().All()
	idsA, err := v.SampleIDs([]driftlog.Cond{{Attr: driftlog.AttrWeather, Value: "snow"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(idsA) != len(entriesA) {
		t.Fatalf("replayed snow rows carry %d sample links, want %d", len(idsA), len(entriesA))
	}
	if m := svc2.Samples().Gather(idsA); m != nil {
		t.Fatalf("replayed snow rows gathered %d samples uploaded after the restart (first row %v)", m.Rows, m.Row(0))
	}
	idsB, err := v.SampleIDs([]driftlog.Cond{{Attr: driftlog.AttrWeather, Value: "fog"}})
	if err != nil {
		t.Fatal(err)
	}
	m := svc2.Samples().Gather(idsB)
	if m == nil || m.Rows != len(entriesB) {
		t.Fatalf("fog rows gathered %v, want their own %d samples", m, len(entriesB))
	}
	for i := 0; i < m.Rows; i++ {
		if m.At(i, 0) != 2 {
			t.Fatalf("fog row %d gathered a foreign sample %v", i, m.Row(i))
		}
	}
	if st := svc2.Samples().Stats(); st.Added != int64(len(entriesB)) || st.Retained != len(entriesB) {
		t.Fatalf("sample stats after restart: %+v, want %d added and retained", st, len(entriesB))
	}
}

// TestServiceWALRefusedIngestLeavesNoSamples: a service whose WAL is
// already known bad answers every batch with ErrDurability, which the
// transport retries indefinitely — so a refused batch must not leave its
// samples behind.
func TestServiceWALRefusedIngestLeavesNoSamples(t *testing.T) {
	base := nn.NewClassifier(nn.ArchResNet18, 8, 4, tensor.NewRand(1, 1))
	cases := map[string]func(t *testing.T) *Service{
		"open failure": func(t *testing.T) *Service {
			dir := t.TempDir()
			writeFileOrFatal(t, filepath.Join(dir, "wal-0000000000000001.seg"), []byte("NZWAL001garbage-that-is-not-a-frame"))
			writeFileOrFatal(t, filepath.Join(dir, "wal-0000000000000002.seg"), []byte("NZWAL001"))
			svc := NewService(base, DefaultConfig(), WithWAL(dir, driftlog.WALOptions{}))
			if svc.WALErr() == nil {
				t.Fatal("corrupt WAL directory opened without error")
			}
			return svc
		},
		"severed": func(t *testing.T) *Service {
			svc := walTestService(t, filepath.Join(t.TempDir(), "wal"))
			svc.WAL().Sever()
			return svc
		},
		"closed": func(t *testing.T) *Service {
			svc := walTestService(t, filepath.Join(t.TempDir(), "wal"))
			if err := svc.Close(); err != nil {
				t.Fatal(err)
			}
			return svc
		},
	}
	for name, open := range cases {
		t.Run(name, func(t *testing.T) {
			svc := open(t)
			for i := 0; i < 5; i++ {
				err := svc.IngestBatchContext(context.Background(),
					[]driftlog.Entry{{Time: weather.Day(0), Attrs: map[string]string{driftlog.AttrWeather: "fog"}}},
					[][]float64{{1, 2, 3}})
				if !errors.Is(err, ErrDurability) {
					t.Fatalf("batch %d: want ErrDurability, got %v", i, err)
				}
			}
			if st := svc.Samples().Stats(); st.Added != 0 || st.Retained != 0 {
				t.Fatalf("refused batches left samples behind: %+v", st)
			}
			if n := len(svc.allMeta()); n != 0 {
				t.Fatalf("refused batches left %d sample metadata records behind", n)
			}
		})
	}
}
