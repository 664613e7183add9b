package pipeline

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"nazar/internal/dataset"
	"nazar/internal/faultinject"
	"nazar/internal/httpapi"
	"nazar/internal/obs"
)

// TestChaosDeliveryInvariant runs the chaos harness at the three
// `make chaos` presets. The hard invariant at every fault rate:
// zero acked-but-lost entries — at-least-once delivery holds no matter
// what the injector does to the wire. At rate 0 the run must also look
// like a clean pipeline: everything streamed is acked and delivered
// exactly once with no retries, and analysis installs versions.
func TestChaosDeliveryInvariant(t *testing.T) {
	for _, tc := range []struct {
		name string
		rate float64
	}{
		{"clean", 0},
		{"faults_10pct", 0.1},
		{"faults_30pct", 0.3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunChaos(ChaosConfig{Wire: Wire{Faults: faultinject.Preset(tc.rate)}, Seed: 11})
			if err != nil {
				t.Fatalf("RunChaos(%v): %v", tc.rate, err)
			}
			if out, err := json.Marshal(res); err == nil {
				t.Logf("chaos result: %s", out)
			}

			if res.Codec != httpapi.ContentTypeBinary {
				t.Fatalf("default run shipped %q, want the binary frame", res.Codec)
			}
			// The invariant: nothing acked to the caller went missing.
			if res.LostAcked != 0 {
				t.Fatalf("LOST %d acknowledged entries at fault rate %v", res.LostAcked, tc.rate)
			}
			// Acked entries are a subset of delivered ones, and with the
			// spool sized to the run nothing is dropped client-side.
			if res.SpoolDropped != 0 {
				t.Fatalf("spool dropped %d entries; the harness sizes the spool to the run", res.SpoolDropped)
			}
			if res.Acked > res.Delivered {
				t.Fatalf("acked %d > delivered %d", res.Acked, res.Delivered)
			}
			if res.AnalyzeOK != 2 {
				t.Fatalf("completed %d analysis cycles, want 2", res.AnalyzeOK)
			}

			if tc.rate == 0 {
				if res.Acked != res.Streamed || res.Delivered != res.Streamed {
					t.Fatalf("clean run: streamed=%d acked=%d delivered=%d, want all equal",
						res.Streamed, res.Acked, res.Delivered)
				}
				if res.Retries != 0 || res.Duplicates != 0 || res.BreakerOpens != 0 {
					t.Fatalf("clean run saw retries=%d duplicates=%d breakerOpens=%d, want none",
						res.Retries, res.Duplicates, res.BreakerOpens)
				}
				if res.Versions == 0 {
					t.Fatal("clean run installed no adapted versions")
				}
			} else {
				// With faults on the wire, delivery still completes: the
				// transport retried every entry to acknowledgment.
				if res.Acked != res.Streamed {
					t.Fatalf("faulty run: acked %d of %d streamed — transport gave up on entries",
						res.Acked, res.Streamed)
				}
				injured := res.InjectedFaults["err500"] + res.InjectedFaults["err429"] +
					res.InjectedFaults["reset"] + res.InjectedFaults["truncate"]
				if injured > 0 && res.Retries == 0 {
					t.Fatalf("%d requests were failed by the injector but the transport never retried", injured)
				}
			}
		})
	}
}

// TestChaosDeterminism: the same seed reproduces the same run — fault
// trace, delivery counts, retries — which is what makes a failing
// chaos run debuggable.
func TestChaosDeterminism(t *testing.T) {
	run := func() *ChaosResult {
		res, err := RunChaos(ChaosConfig{Wire: Wire{Faults: faultinject.Preset(0.3)}, Seed: 7, Devices: 2, PerDevice: 24})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("same seed produced different chaos results:\n  %s\n  %s", ja, jb)
	}
}

// TestChaosGolden holds `make chaos`'s output to the checked-in lines:
// each codec at the three fault-rate presets with the command's defaults
// (3 devices × 40 inferences, seed 42), encoded as the command encodes
// them, at GOMAXPROCS 1 and 8. Request boundaries follow the rows and the
// flushes, not timing, so any diff is a behaviour change.
func TestChaosGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range []struct {
			file  string
			codec httpapi.Codec
		}{
			{"chaos-binary.jsonl", nil},
			{"chaos-json.jsonl", httpapi.JSONCodec{}},
		} {
			want, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			enc := json.NewEncoder(&got)
			for _, rate := range []float64{0, 0.1, 0.3} {
				res, err := RunChaos(ChaosConfig{Wire: Wire{Faults: faultinject.Preset(rate), Codec: tc.codec}, Seed: 42})
				if err != nil {
					t.Fatal(err)
				}
				if err := enc.Encode(res); err != nil {
					t.Fatal(err)
				}
			}
			if got.String() != string(want) {
				t.Fatalf("GOMAXPROCS %d, %s:\n got\n%s want\n%s", procs, tc.file, got.String(), want)
			}
		}
	}
}

// TestChaosKillCloud kill-9s the cloud mid-window and audits the
// durability contract: with a WAL under the drift log, a process death
// with no flush or goodbye loses nothing that was acknowledged —
// lost_acked stays 0 after the replacement service replays the log.
func TestChaosKillCloud(t *testing.T) {
	for _, tc := range []struct {
		name string
		rate float64
	}{
		{"clean_wire", 0},
		{"faulty_wire", 0.15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunChaos(ChaosConfig{
				Wire: Wire{
					Faults:       faultinject.Preset(tc.rate),
					WALDir:       t.TempDir(),
					KillAtWindow: 2,
				},
				Seed:    23,
				Windows: 3,
			})
			if err != nil {
				t.Fatalf("RunChaos: %v", err)
			}
			if out, err := json.Marshal(res); err == nil {
				t.Logf("chaos result: %s", out)
			}
			if res.CloudKills != 1 {
				t.Fatalf("cloud kills: want 1 got %d", res.CloudKills)
			}
			// THE invariant: a kill-9 plus WAL replay loses nothing acked.
			if res.LostAcked != 0 {
				t.Fatalf("LOST %d acknowledged entries across a cloud kill-9", res.LostAcked)
			}
			// The replacement started from the dead service's acked rows,
			// not from zero.
			if res.ReplayedRows == 0 {
				t.Fatal("replacement service replayed 0 rows — the WAL did its job too late or not at all")
			}
			if res.SpoolDropped != 0 {
				t.Fatalf("spool dropped %d entries", res.SpoolDropped)
			}
			// Delivery completes across the restart: everything streamed is
			// eventually acked (the transport retried through the outage).
			if res.Acked != res.Streamed {
				t.Fatalf("acked %d of %d streamed across the kill", res.Acked, res.Streamed)
			}
			if res.AnalyzeOK != 3 {
				t.Fatalf("completed %d analysis cycles, want 3", res.AnalyzeOK)
			}
		})
	}
}

// TestChaosKillCloudRequiresWAL pins the config validation: a kill
// schedule without a WAL directory cannot run (there would be nothing
// to recover from).
func TestChaosKillCloudRequiresWAL(t *testing.T) {
	if _, err := RunChaos(ChaosConfig{Wire: Wire{KillAtWindow: 1}}); err == nil {
		t.Fatal("kill without WALDir must be rejected")
	}
}

// TestChaosKillCloudRejectsObserver: a replacement cloud would register
// its metrics on the run's Observer a second time, so a kill schedule
// with an Observer is refused before anything starts.
func TestChaosKillCloudRejectsObserver(t *testing.T) {
	ds := dataset.NewCityscapes(dataset.CityscapesConfig{Total: 100, Devices: 1, Seed: 1})
	cfg := DefaultConfig(Nazar, 1)
	cfg.Observer = obs.NewRegistry()
	cfg.Wire = &Wire{WALDir: t.TempDir(), KillAtWindow: 1}
	if _, err := Run(ds, nil, cfg); err == nil {
		t.Fatal("kill with an Observer must be rejected")
	}
}

// TestChaosJSONCodec reruns the delivery audit with the fleet opted
// into JSON bodies instead of the default binary frames: injected
// truncation, resets, and error statuses must surface as typed failures
// the transport retries — never a lost acknowledged entry, never a
// panic — and the drift-log state the cloud ends with still matches
// what was streamed.
func TestChaosJSONCodec(t *testing.T) {
	for _, tc := range []struct {
		name string
		rate float64
	}{
		{"clean", 0},
		{"faults_30pct", 0.3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunChaos(ChaosConfig{Wire: Wire{Faults: faultinject.Preset(tc.rate), Codec: httpapi.JSONCodec{}}, Seed: 19})
			if err != nil {
				t.Fatalf("RunChaos(%v): %v", tc.rate, err)
			}
			if out, err := json.Marshal(res); err == nil {
				t.Logf("chaos result: %s", out)
			}
			if res.Codec != httpapi.ContentTypeJSON {
				t.Fatalf("run used codec %q, want JSON", res.Codec)
			}
			if res.LostAcked != 0 {
				t.Fatalf("LOST %d acknowledged entries at fault rate %v with JSON bodies", res.LostAcked, tc.rate)
			}
			if res.SpoolDropped != 0 {
				t.Fatalf("spool dropped %d entries", res.SpoolDropped)
			}
			if res.Acked != res.Streamed {
				t.Fatalf("acked %d of %d streamed", res.Acked, res.Streamed)
			}
			if res.AnalyzeOK != 2 {
				t.Fatalf("completed %d analysis cycles, want 2", res.AnalyzeOK)
			}
			if tc.rate == 0 {
				if res.Delivered != res.Streamed || res.Retries != 0 || res.Duplicates != 0 {
					t.Fatalf("clean JSON run: delivered=%d/%d retries=%d duplicates=%d",
						res.Delivered, res.Streamed, res.Retries, res.Duplicates)
				}
				if res.Versions == 0 {
					t.Fatal("clean JSON run installed no adapted versions")
				}
			}
		})
	}
}

// TestChaosFailedRunReleasesEverything fails every request on the wire:
// the run must come back with an error, and the transport's worker, the
// HTTP server and the cloud service must all be gone once it has.
func TestChaosFailedRunReleasesEverything(t *testing.T) {
	before := runtime.NumGoroutine()
	if _, err := RunChaos(ChaosConfig{Wire: Wire{Faults: faultinject.Schedule{Err500: 1}}, Seed: 5}); err == nil {
		t.Fatal("a run whose every request fails must return an error")
	}
	// Client-side keep-alive goroutines exit once they see the server's
	// close; wait for that rather than sampling once.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d before the run, %d after:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
