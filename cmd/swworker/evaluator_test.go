package main

import (
	"context"
	"testing"

	"spinwave"
	"spinwave/internal/backendspec"
	"spinwave/internal/fleet"
	"spinwave/internal/obsplane"
)

func TestEvaluatorEvaluatesCases(t *testing.T) {
	eng := spinwave.NewEngine(spinwave.WithEngineWorkers(2))
	ev := newEvaluator(eng, &backendspec.Memo{}, "http://127.0.0.1:0")

	cases := [][]bool{{false, false}, {true, false}}
	fp, results, err := ev.Evaluate(context.Background(), fleet.JobSpec{Gate: "xor"}, cases)
	if err != nil {
		t.Fatal(err)
	}
	if fp == "" {
		t.Error("empty fingerprint")
	}
	if len(results) != len(cases) {
		t.Fatalf("%d results for %d cases", len(results), len(cases))
	}
	for i, r := range results {
		if len(r.Outputs) == 0 {
			t.Errorf("case %d has no readouts", i)
		}
		if r.Source == "" {
			t.Errorf("case %d has no source tier", i)
		}
		for b, in := range r.Inputs {
			if in != cases[i][b] {
				t.Errorf("case %d echoes inputs %v, want %v", i, r.Inputs, cases[i])
			}
		}
	}

	// Same spec, bad gate: the evaluator surfaces the resolution error.
	if _, _, err := ev.Evaluate(context.Background(), fleet.JobSpec{Gate: "bogus"}, cases); err == nil {
		t.Error("bogus gate evaluated without error")
	}
}

// TestEvaluatorMemoizesAliasedSpecs: two jobs whose specs name the same
// backend through different letter case and omitted defaults share one
// backend instance, built once for the process.
func TestEvaluatorMemoizesAliasedSpecs(t *testing.T) {
	eng := spinwave.NewEngine(spinwave.WithEngineWorkers(2))
	memo := &backendspec.Memo{}
	ev := newEvaluator(eng, memo, "http://127.0.0.1:0")
	cases := [][]bool{{true, false}}
	var fps []string
	for _, spec := range []fleet.JobSpec{
		{Gate: "xor"},
		{Gate: "XOR", Backend: "Behavioral", Spec: "PAPER", Material: "FeCoB", Mode: "DIRECT"},
	} {
		fp, _, err := ev.Evaluate(context.Background(), spec, cases)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		fps = append(fps, fp)
	}
	if n := memo.Len(); n != 1 {
		t.Errorf("memo holds %d backends after two aliased jobs, want 1", n)
	}
	if fps[0] != fps[1] {
		t.Errorf("aliased jobs answered under fingerprints %s and %s", fps[0], fps[1])
	}
}

func TestNodeHealthShape(t *testing.T) {
	eng := spinwave.NewEngine(spinwave.WithEngineWorkers(1))
	h := nodeHealth(eng, nil)
	if h["engine"] == nil {
		t.Error("node health missing engine stats")
	}
	if pid, ok := h["pid"].(int); !ok || pid <= 0 {
		t.Errorf("node health pid = %v", h["pid"])
	}
	if h["time"] == "" {
		t.Error("node health missing timestamp")
	}
	if _, ok := h["journal_shipper"]; ok {
		t.Error("shipperless worker reports journal_shipper health")
	}

	ship := obsplane.NewShipper(obsplane.ShipperConfig{BaseURL: "http://127.0.0.1:1", Node: "w1"})
	h = nodeHealth(eng, ship)
	stats, ok := h["journal_shipper"].(map[string]int64)
	if !ok {
		t.Fatalf("journal_shipper health = %#v", h["journal_shipper"])
	}
	for _, key := range []string{"shipped", "pending", "dropped", "flush_attempts", "flush_failures"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("shipper health missing %q: %v", key, stats)
		}
	}
}
