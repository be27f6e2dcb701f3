package main

import (
	"path/filepath"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesCommand holds BENCHMARK.json to exactly the
// workloads and metrics the command emits, in the same order, with the
// same units and directions.
func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	if len(spec.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the command %d", len(spec.EndToEnd), len(e2eMetrics))
	}
	for i, m := range e2eMetrics {
		got := spec.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("end_to_end[%d] = %+v, command emits %+v", i, got, m)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("end_to_end[%d] bound %g outside (0, 0.25]", i, got.Bound)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the command %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		got := spec.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, command emits %+v", i, got, m)
		}
	}
}

// TestResultLineEmitsExactlyTheDefinedNames builds a report the way a
// run does and checks the final JSON line carries every defined metric
// and nothing else, traced and untraced.
func TestResultLineEmitsExactlyTheDefinedNames(t *testing.T) {
	res := &windowResult{elapsed: time.Second, attempted: 1,
		samples: []opSample{{kind: "xor_table", latency: time.Millisecond}}}
	layers := windowLayers(scrape{}, []string{"/v1/table"}, 1, time.Millisecond)
	layers["checkpoint.saves"] = metric{Unit: "count"}
	for k, v := range replayLayers(&tracer{}, map[string]gateWork{}, 400) {
		layers[k] = v
	}
	rep := &wlReport{Correct: true, Attempted: 1,
		Metrics: endToEnd([]time.Duration{time.Second}, res, 30, 1, refSpeedMops), Layers: layers}
	rf := runFile{Workloads: map[string]*wlReport{"micromag-cold": rep}}
	for _, c := range []struct {
		traced bool
		defs   []metricDef
	}{{false, e2eMetrics}, {true, layerMetrics}} {
		line, err := resultLine(rf, c.traced)
		if err != nil {
			t.Fatalf("traced=%v: %v", c.traced, err)
		}
		if len(line.Metrics) != len(c.defs) {
			t.Errorf("traced=%v: %d metrics, want %d", c.traced, len(line.Metrics), len(c.defs))
		}
		for _, d := range c.defs {
			if m, ok := line.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("traced=%v: metric %s missing or wrong unit (%+v)", c.traced, d.name, m)
			}
		}
	}
}
