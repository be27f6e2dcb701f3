package main

import (
	"math"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true}, // exactly 10 beyond
		{999, 99, false},
		{100, 90, true},
		{99, 90, false},
		{10000, 99.9, true},
		{9999, 99.9, false},
		{12, 90, false}, // a micromag-cold window: median only
	}
	for _, c := range cases {
		if got := percentileReportable(c.n, c.p); got != c.want {
			t.Errorf("percentileReportable(%d, %g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestTailReportsHighestSupportedPercentile(t *testing.T) {
	lat := make([]float64, 150)
	for i := range lat {
		lat[i] = float64(i)
	}
	out := map[string]metric{}
	tail(out, "x_", lat)
	if _, ok := out["x_p90_ms"]; !ok || len(out) != 1 {
		t.Fatalf("150 samples support p90 only, got %v", out)
	}
	out = map[string]metric{}
	tail(out, "x_", lat[:50])
	if len(out) != 0 {
		t.Fatalf("50 samples support no tail percentile, got %v", out)
	}
}

// TestQuartilesMatchPython pins the exclusive method of Python's
// statistics.quantiles(xs, n=4), which judges BENCHMARK.json spreads.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{1, 2}, 0.75, 2.25}, // Python extrapolates below n=3
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedianInterpolates(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %g, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing must be NaN")
	}
}
