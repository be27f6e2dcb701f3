package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name   string
		base   []float64
		head   []float64
		better string
		bound  float64
		want   string
	}{
		{"20% faster latency", base, scale(base, 0.8), "lower", 0.1, "improved"},
		{"20% more throughput", base, scale(base, 1.2), "higher", 0.1, "improved"},
		{"15% slower latency", base, scale(base, 1.15), "lower", 0.1, "regressed"},
		{"15% less throughput", base, scale(base, 0.85), "higher", 0.1, "regressed"},
		{"same", base, base, "lower", 0.1, "unchanged"},
		{"5% slower within bound", base, scale(base, 1.05), "lower", 0.1, "unchanged"},
		// Base quartiles 80..120: spread 40% against a 10% bound.
		{"noisy base", []float64{60, 80, 120, 100, 140, 80, 120, 100, 90, 110},
			[]float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}, "lower", 0.1, "unresolved"},
		// Noisy, but every head run beats every base run.
		{"noisy base, head always better", []float64{60, 80, 120, 100, 140, 80, 120, 100, 90, 110},
			[]float64{10, 11, 12, 10, 11, 12, 10, 11, 12, 10}, "lower", 0.1, "improved"},
	}
	for _, c := range cases {
		if got := judge(c.base, c.head, c.better, c.bound); got.verdict != c.want {
			t.Errorf("%s: verdict %s (wins %d/%d, base %g [%g,%g], head %g), want %s", c.name, got.verdict,
				got.wins, got.pairs, got.baseMed, got.baseQ1, got.baseQ3, got.headMed, c.want)
		}
	}
}

// TestJudgeNeedsNineTenthsOfPairs: a median gain that wins only 8 of 10
// pairs is not an improvement.
func TestJudgeNeedsNineTenthsOfPairs(t *testing.T) {
	base := []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}
	head := []float64{90, 90, 90, 90, 90, 90, 90, 90, 100, 100}
	j := judge(base, head, "lower", 0.1)
	if j.wins != 8 || j.verdict != "unchanged" {
		t.Fatalf("wins %d verdict %s, want 8 and unchanged", j.wins, j.verdict)
	}
}

func TestCompareReadsRunFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, lat float64) string {
		p := filepath.Join(dir, name)
		rf := runFile{Workloads: map[string]*wlReport{"serve-warm": {
			Metrics: map[string]metric{"latency_norm_ms": {Value: lat, Unit: "ms"}},
			Layers:  map[string]metric{"swserve.http_ms": {Value: lat / 2, Unit: "ms"}},
		}}}
		if err := writeJSON(p, rf); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var base, head []string
	for i := 0; i < 10; i++ {
		base = append(base, write("b"+string(rune('0'+i))+".json", 2+float64(i%3)*0.01))
		head = append(head, write("h"+string(rune('0'+i))+".json", 3+float64(i%3)*0.01))
	}
	var out bytes.Buffer
	code := runCompare([]string{"-spec", filepath.Join("..", "..", "BENCHMARK.json"),
		"-base", strings.Join(base, ","), "-head", strings.Join(head, ",")}, &out)
	if code != 0 {
		t.Fatalf("compare exited %d", code)
	}
	if !strings.Contains(out.String(), "latency_norm_ms") || !strings.Contains(out.String(), "regressed") {
		t.Fatalf("50%% slower latency not reported as regressed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "swserve.http_ms") {
		t.Fatalf("layer medians missing:\n%s", out.String())
	}
}
