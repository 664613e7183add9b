package cloud

import (
	"context"
	"errors"
	"fmt"
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

// TestServiceWALRestartSampleLinks: a vector is part of its row, so a
// service reopened on its WAL resolves every replayed link to the row's
// own vector, and samples uploaded after the restart get IDs of their own
// rather than reusing a replayed row's.
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
			samples[i] = []float64{mark, float64(i), 0, 0, 0, 0, 0, 0} // the model's 8 inputs
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
	for _, c := range []struct {
		weather string
		mark    float64
	}{{"snow", 1}, {"fog", 2}} {
		ids, err := v.SampleIDs([]driftlog.Cond{{Attr: driftlog.AttrWeather, Value: c.weather}})
		if err != nil {
			t.Fatal(err)
		}
		m := svc2.Samples().Gather(ids)
		if m == nil || m.Rows != 20 {
			t.Fatalf("%s rows gathered %v, want their own 20 samples", c.weather, m)
		}
		for i := 0; i < m.Rows; i++ {
			if m.At(i, 0) != c.mark || m.At(i, 1) != float64(i) {
				t.Fatalf("%s row %d gathered %v, want its own sample [%v %d]", c.weather, i, m.Row(i), c.mark, i)
			}
		}
	}
	if id := svc2.Log().Entry(20).SampleID; id != 20 {
		t.Fatalf("first sample after the restart got id %d, want 20", id)
	}
	if st := svc2.Log().Stats(); st.Samples != 40 {
		t.Fatalf("log holds %d vectors after restart, want 40", st.Samples)
	}
}

// TestServiceWALRestartAdaptsIdentically: the by-cause models must not
// shift across a crash. Two WAL services ingest the same batches; one is
// closed and reopened on its directory; the first window then yields the
// same versions, bit for bit, on both.
func TestServiceWALRestartAdaptsIdentically(t *testing.T) {
	base := nn.NewClassifier(nn.ArchResNet18, 8, 3, tensor.NewRand(40, 1))
	open := func(dir string) *Service {
		cfg := DefaultConfig()
		cfg.AdaptCfg.Rng = tensor.NewRand(7, 7)
		svc := NewService(base, cfg, WithWAL(dir, driftlog.WALOptions{}))
		if err := svc.WALErr(); err != nil {
			t.Fatal(err)
		}
		return svc
	}
	day := weather.Day(5)
	now := day.AddDate(0, 0, 1)
	liveDir, restartDir := filepath.Join(t.TempDir(), "live"), filepath.Join(t.TempDir(), "restart")
	live, restarted := open(liveDir), open(restartDir)
	defer live.Close()
	ingestThreeWay(t, live, day, 300)
	ingestThreeWay(t, restarted, day, 300)
	if err := restarted.Close(); err != nil {
		t.Fatal(err)
	}
	restarted = open(restartDir)
	defer restarted.Close()

	var results [2]WindowResult
	for i, svc := range []*Service{live, restarted} {
		res, err := svc.RunWindowContext(context.Background(), day, now, now)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}
	want, got := results[0].Versions, results[1].Versions
	byCause := 0
	for _, v := range want {
		if !v.IsClean() {
			byCause++
		}
	}
	if byCause < 2 {
		t.Fatalf("the uninterrupted service installed %d by-cause versions, want at least 2", byCause)
	}
	if len(got) != len(want) {
		t.Fatalf("restarted service produced %d versions, the uninterrupted one %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || !snapshotsBitEqual(t, got[i].Snapshot, want[i].Snapshot) {
			t.Fatalf("version %d: restarted %s differs from uninterrupted %s", i, got[i].ID, want[i].ID)
		}
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
					[][]float64{{1, 2, 3, 4, 5, 6, 7, 8}})
				if !errors.Is(err, ErrDurability) {
					t.Fatalf("batch %d: want ErrDurability, got %v", i, err)
				}
			}
			if st := svc.Log().Stats(); st.Rows != 0 || st.Samples != 0 || st.SamplesAdded != 0 {
				t.Fatalf("refused batches left rows or samples behind: %+v", st)
			}
			if next := svc.nextSample.Load(); next != 0 {
				t.Fatalf("refused batches spent sample ids up to %d", next)
			}
		})
	}
}

// TestServiceWALRefusesOversizedBatch: a batch too large for one WAL
// record is the batch's fault. Ingest refuses it with
// driftlog.ErrFrameTooLarge, not ErrDurability — so the HTTP layer
// answers 400 and the transport drops it instead of retrying it forever
// — and the service keeps ingesting durably.
func TestServiceWALRefusesOversizedBatch(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	// A model 8,192 inputs wide, so the samples pass ingest's width check
	// and the WAL's frame bound is what refuses the batch.
	base := nn.NewClassifier(nn.ArchResNet18, 8192, 4, tensor.NewRand(1, 1))
	open := func() *Service {
		svc := NewService(base, DefaultConfig(), WithWAL(dir, driftlog.WALOptions{}))
		if err := svc.WALErr(); err != nil {
			t.Fatalf("wal open: %v", err)
		}
		return svc
	}
	svc := open()
	day := weather.Day(3)
	entries := make([]driftlog.Entry, 1100)
	samples := make([][]float64, len(entries))
	vec := make([]float64, 8192) // shared: 72 MB of samples, 64 KB of memory
	for i := range entries {
		entries[i] = driftlog.Entry{Time: day.Add(time.Duration(i) * time.Second), Attrs: map[string]string{driftlog.AttrWeather: "snow"}}
		samples[i] = vec
	}
	err := svc.IngestBatchContext(context.Background(), entries, samples)
	if !errors.Is(err, driftlog.ErrFrameTooLarge) || errors.Is(err, ErrDurability) {
		t.Fatalf("oversized ingest: want ErrFrameTooLarge and not ErrDurability, got %v", err)
	}
	if n := svc.Log().Len(); n != 0 {
		t.Fatalf("refused batch landed %d rows", n)
	}
	if err := svc.WAL().Err(); err != nil {
		t.Fatalf("refusal poisoned the WAL: %v", err)
	}
	if err := svc.IngestBatchContext(context.Background(), entries[:1], samples[:1]); err != nil {
		t.Fatalf("ingest after a refusal: %v", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	svc2 := open()
	defer svc2.Close()
	if n := svc2.Log().Len(); n != 1 {
		t.Fatalf("replayed %d rows, want the 1 acked", n)
	}
}

// TestServiceWALRetentionBoundsDirectory: LogRetention bounds the WAL
// directory as it bounds the store. Ingest spans several days with a
// window at the end of each, whose now advances the retention cutoff.
// The compaction passes that rotations start delete every sealed file
// the cutoff has expired, so no file left on disk is older than the
// cutoff, and a reopened service holds exactly the acked rows at or
// after it.
func TestServiceWALRetentionBoundsDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	cfg := DefaultConfig()
	cfg.LogRetention = 48 * time.Hour
	base := nn.NewClassifier(nn.ArchResNet18, 8, 4, tensor.NewRand(1, 1))
	open := func() *Service {
		// One-byte segments: every batch seals its own file, so no file
		// straddles a day boundary.
		svc := NewService(base, cfg, WithWAL(dir, driftlog.WALOptions{SegmentBytes: 1, CompactSegments: 1}))
		if err := svc.WALErr(); err != nil {
			t.Fatal(err)
		}
		return svc
	}
	var acked []driftlog.Entry
	ingestDay := func(svc *Service, d int) {
		for i := 0; i < 4; i++ {
			entries := make([]driftlog.Entry, 5)
			for j := range entries {
				entries[j] = driftlog.Entry{
					Time:  weather.Day(d).Add(time.Duration(i)*time.Hour + time.Duration(j)*time.Minute),
					Attrs: map[string]string{driftlog.AttrWeather: "clear-day", driftlog.AttrDevice: fmt.Sprintf("dev_%d", j)},
				}
			}
			if err := svc.IngestBatchContext(context.Background(), entries, nil); err != nil {
				t.Fatal(err)
			}
			acked = append(acked, entries...)
		}
	}

	svc := open()
	const days = 6
	var cutoff time.Time
	for d := 0; d < days; d++ {
		ingestDay(svc, d)
		now := weather.Day(d + 1)
		if _, err := svc.RunWindowContext(context.Background(), time.Time{}, time.Time{}, now); err != nil {
			t.Fatal(err)
		}
		cutoff = now.Add(-cfg.LogRetention)
	}
	ingestDay(svc, days) // its rotations start passes under the last cutoff
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.WAL().CompactionErr(); err != nil {
		t.Fatalf("background compaction: %v", err)
	}
	if st := svc.WAL().Stats(); st.Compactions == 0 {
		t.Fatalf("no compaction pass deleted a file: %+v", st)
	}

	// Replay each file on its own: none may be all rows before the cutoff.
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		single := t.TempDir()
		writeFileOrFatal(t, filepath.Join(single, f.Name()), raw)
		s := driftlog.NewStore()
		if _, err := driftlog.OpenWAL(single, s, driftlog.WALOptions{ReadOnly: true}); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); s.Len() > 0 && st.NewestTime.Before(cutoff) {
			t.Fatalf("%s: newest row %v is before the cutoff %v", f.Name(), st.NewestTime, cutoff)
		}
	}

	var want []driftlog.Entry
	for _, e := range acked {
		if !e.Time.Before(cutoff) {
			want = append(want, e)
		}
	}
	svc2 := open()
	defer svc2.Close()
	log := svc2.Log()
	if log.Len() != len(want) {
		t.Fatalf("reopened service holds %d rows, want the %d acked at or after the cutoff", log.Len(), len(want))
	}
	for i, e := range want {
		if got := log.Entry(i); !got.Time.Equal(e.Time) || got.Attrs[driftlog.AttrDevice] != e.Attrs[driftlog.AttrDevice] {
			t.Fatalf("row %d: %v %v, want %v %v", i, got.Time, got.Attrs, e.Time, e.Attrs)
		}
	}
}
