package main

import (
	"math"
	"strings"
	"testing"
)

// passing is a run every gate passes: each mode's ratios sit well above
// its bound and the surrogate is admitted far above the floor.
func passing() result {
	var r result
	for i, md := range modes {
		r.ratios[i] = []float64{md.bound * 1.2, md.bound * 1.3, md.bound * 1.1}
	}
	r.admitted = true
	r.speedup = minSurrogateSpeedup * 10
	return r
}

// TestVerdict pins the gate's decision on hand-made figures: no solver
// runs. Each case names the defect in verdict or median it catches.
func TestVerdict(t *testing.T) {
	b := modes[0].bound
	const eps = 1e-9
	cases := []struct {
		name   string
		ratios []float64 // fused-1 pair ratios; the other modes pass
		edit   func(*result)
		fail   string // substring of the failure; "" for a pass
	}{
		// A bound is a floor the median may touch: `<=` for `<` fails it.
		{name: "median at bound", ratios: []float64{b - 1, b, b + 1}},
		{name: "median just above", ratios: []float64{b - 1, b + eps, b + 1}},
		{name: "median just below", ratios: []float64{b - 1, b - eps, b + 1}, fail: "fused-1 median"},
		// Even count: the mean of the two middle pairs decides, not
		// either one alone.
		{name: "even count, mean below", ratios: []float64{b - 1, b - 2*eps, b + eps, b + 1}, fail: "fused-1 median"},
		{name: "even count, mean above", ratios: []float64{b - 1, b - eps, b + 2*eps, b + 1}},
		// Odd count: the middle pair alone decides, not a mean of two.
		{name: "odd count, middle above", ratios: []float64{b - 1, b - 1, b + eps, b + 1, b + 1}},
		// Unsorted, with one wild pair: a mean or an unsorted middle
		// would flip it.
		{name: "low outlier", ratios: []float64{b + 1, b + 1, b / 100, b + 1, b - 1}},
		{name: "high outlier", ratios: []float64{b - 1, b - 1, 100 * b, b - 1, b + 1}, fail: "fused-1 median"},
		{name: "no pairs", ratios: []float64{}, fail: "fused-1 median"},
		{name: "second mode below", edit: func(r *result) {
			r.ratios[1] = []float64{modes[1].bound - eps}
		}, fail: "fused-8 median"},
		{name: "surrogate rejected", edit: func(r *result) { r.admitted = false }, fail: "admission"},
		{name: "surrogate at floor", edit: func(r *result) { r.speedup = minSurrogateSpeedup }},
		{name: "surrogate below floor", edit: func(r *result) { r.speedup = minSurrogateSpeedup * (1 - eps) }, fail: "floor"},
		{name: "surrogate speedup NaN", edit: func(r *result) { r.speedup = math.NaN() }, fail: "floor"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := passing()
			if c.ratios != nil {
				r.ratios[0] = c.ratios
			}
			if c.edit != nil {
				c.edit(&r)
			}
			err := r.verdict()
			switch {
			case c.fail == "" && err != nil:
				t.Fatalf("verdict = %v, want pass", err)
			case c.fail != "" && err == nil:
				t.Fatalf("verdict passed, want a failure naming %q", c.fail)
			case c.fail != "" && !strings.Contains(err.Error(), c.fail):
				t.Fatalf("verdict = %v, want it to name %q", err, c.fail)
			}
		})
	}
}

// TestVerdictReportsEveryFailure: a run failing every gate names each.
func TestVerdictReportsEveryFailure(t *testing.T) {
	var r result // no pairs, not admitted, zero speedup
	err := r.verdict()
	if err == nil {
		t.Fatal("empty run passed")
	}
	for _, want := range []string{"fused-1 median", "fused-8 median", "admission", "floor"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("verdict %q does not name %q", err, want)
		}
	}
}
