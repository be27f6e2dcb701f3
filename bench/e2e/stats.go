package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a p99 from 200 samples rests on two values.
const minBeyond = 10

// percentileReportable reports whether percentile p (0–100) of n samples
// has at least minBeyond samples above it. The median is always
// reported; this rule gates the tail percentiles.
func percentileReportable(n int, p float64) bool {
	// The tolerance absorbs rounding in 100-p (99.9 is not exact).
	return float64(n)*(100-p)/100 >= minBeyond-1e-6
}

// sortedCopy returns xs sorted ascending without modifying xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0–100) of xs by linear
// interpolation between closest ranks; NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the 50th percentile of xs.
func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartiles of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// definition the run-to-run spread of BENCHMARK.json metrics is judged
// by. With fewer than two values both quartiles equal the value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	// A transliteration of CPython's exclusive method, including its
	// clamping (which extrapolates for very small n).
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
