package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

// jsonFields keeps what BENCHMARK.json holds of each declaration.
func jsonFields(decls []metricDecl) []metricDecl {
	out := append([]metricDecl(nil), decls...)
	for i := range out {
		out[i].On, out[i].Moves = 0, ""
	}
	return out
}

// TestSmoke runs every workload at a hundredth of its size, untraced and
// traced, in this process, and holds BENCHMARK.json to what the code
// emits: the declared workloads and metrics with their units and bounds,
// every metric measured on exactly the workloads it is declared on,
// nothing undeclared, all checks passing.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, code sizes the workloads for %d", decl.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(decl.Workloads, workloadDecls) {
		t.Errorf("workloads differ:\n json %+v\n code %+v", decl.Workloads, workloadDecls)
	}
	if !reflect.DeepEqual(decl.EndToEnd, jsonFields(endToEndDecls)) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", decl.EndToEnd, endToEndDecls)
	}
	if !reflect.DeepEqual(decl.PerLayer, jsonFields(perLayerDecls)) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", decl.PerLayer, perLayerDecls)
	}

	declared := map[string]bool{}
	for _, d := range append(append([]metricDecl(nil), endToEndDecls...), perLayerDecls...) {
		if declared[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		declared[d.Name] = true
	}
	for _, d := range perLayerDecls {
		if d.On == 0 || d.On&^all != 0 {
			t.Errorf("per-layer metric %s is declared on workloads %b", d.Name, d.On)
		}
		if d.Moves != "" && !declared[d.Moves] {
			t.Errorf("per-layer metric %s should move %s, which is not declared", d.Name, d.Moves)
		}
	}
	out := t.TempDir()
	for i, w := range workloadDecls {
		t.Run(w.Name, func(t *testing.T) {
			var runs [2]*result
			for i, traced := range []bool{false, true} {
				res, err := runWorkload(runConfig{workload: w.Name, seed: 1, scale: 0.01, traced: traced, outDir: out})
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 {
					t.Errorf("traced=%v: %d of %d ops failed: %v", traced, res.Failed, res.Attempted, res.Failures)
				}
				for name := range res.Metrics {
					if !declared[name] {
						t.Errorf("traced=%v emits undeclared metric %s", traced, name)
					}
				}
				runs[i] = res
			}
			if runs[0].Digest != runs[1].Digest || !reflect.DeepEqual(runs[0].Counts, runs[1].Counts) {
				t.Errorf("same seed, different outputs: %v %s vs %v %s", runs[0].Counts, runs[0].Digest, runs[1].Counts, runs[1].Digest)
			}
			for _, d := range endToEndDecls {
				if v, ok := runs[0].Metrics[d.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want a positive value", d.Name, v)
				}
			}
			// The traced pair measures a per-layer metric exactly where it
			// is declared; the driver's line carries all of them, 0 elsewhere.
			on := workloads(1) << i // bits follow declaration order
			measured := mergeTraced(runs[0], runs[1]).Metrics
			line := lineFor(runs[0], runs[1])
			if len(line.Metrics) != len(perLayerDecls) {
				t.Errorf("traced line has %d metrics, %d declared", len(line.Metrics), len(perLayerDecls))
			}
			for _, d := range perLayerDecls {
				v, ok := measured[d.Name]
				if want := d.On&on != 0; ok != want {
					t.Errorf("per-layer metric %s: measured %v, declared on this workload %v", d.Name, ok, want)
				}
				if got := line.Metrics[d.Name]; got.Unit != d.Unit || got.Value != v {
					t.Errorf("per-layer metric %s: line has %+v, want %v %s", d.Name, got, v, d.Unit)
				}
			}
			if _, err := os.Stat(out + "/trace-" + w.Name + ".json"); err != nil {
				t.Errorf("no trace file: %v", err)
			}
		})
	}
}
