// Command swbench is the stepper and surrogate performance gate on the
// reduced XOR gate mesh. It takes no flags:
//
//	go run ./cmd/swbench
//
// Stepper. For each gated mode — the fused core at 1 and at 8 stepping
// workers — it runs pairs of ≈100 ms slices: one slice of a bare
// llg.Solver and one of the llgref term-by-term oracle on its own bare
// solver, both over the gate's mesh, region, material and time step.
// Which side goes first alternates from pair to pair. Host contention
// that outlasts a pair slows both slices of it, so the per-pair ratio
// fused steps/s ÷ reference steps/s cancels it where a single-shot
// ratio cannot (EXPERIMENTS.md E-GATE). The gate fails if a mode's
// median ratio is below its committed bound.
//
// Surrogate. It builds the warm linear-superposition surrogate (one
// unit transient per port), requires its admission against the Tables
// I/II golden bands, and times warm evaluations over the truth table.
// The solver's per-case time is steps per case ÷ the median fused-1
// slice rate, so setup and lock-in are left out; the speedup over it
// must reach minSurrogateSpeedup.
//
// Every per-pair ratio is logged, so a failing run shows its spread.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"slices"
	"time"

	"spinwave"
	"spinwave/internal/backendspec"
	"spinwave/internal/llg"
	"spinwave/internal/llg/llgref"
	"spinwave/internal/material"
)

const (
	// pairs is the number of interleaved fused/reference slice pairs per
	// mode; odd, so the median is one measured pair.
	pairs = 21
	// sliceTime is the minimum length of one slice.
	sliceTime = 100 * time.Millisecond

	// minSurrogateSpeedup is the floor on the warm surrogate's per-case
	// speedup over the fused single-worker solver: the XOR speedup of the
	// retired single-shot baseline (1.43e6×) divided by the order of
	// magnitude it allowed. It catches a surrogate that started
	// re-running the solver or grew real per-case work.
	minSurrogateSpeedup = 1.43e5

	// surrogateTimingFloor is the minimum time spent timing warm
	// surrogate evaluations, so the per-case figure averages over many
	// thousands of sub-microsecond calls.
	surrogateTimingFloor = 200 * time.Millisecond
)

// mode is one gated stepper configuration. bound is 0.85 × the median,
// over ten calibration runs on a 2-vCPU host, of each run's median pair
// ratio (EXPERIMENTS.md E-GATE).
type mode struct {
	workers int
	bound   float64
}

var modes = [...]mode{{1, 3.17}, {8, 3.14}}

// result is one run's measured figures: the per-pair ratios of each
// mode, indexed like modes, and the surrogate's verdict and speedup.
type result struct {
	ratios   [len(modes)][]float64
	admitted bool
	speedup  float64
}

// verdict is the gate's decision: nil, or every reason the run fails.
// The comparisons are negated so that a NaN figure fails.
func (r result) verdict() error {
	var errs []error
	for i, md := range modes {
		if med := median(r.ratios[i]); !(med >= md.bound) {
			errs = append(errs, fmt.Errorf("fused-%d median pair ratio %.2f is below its bound %.2f", md.workers, med, md.bound))
		}
	}
	if !r.admitted {
		errs = append(errs, errors.New("surrogate failed golden-band admission"))
	}
	if !(r.speedup >= minSurrogateSpeedup) {
		errs = append(errs, fmt.Errorf("warm-surrogate speedup %.3gx is below the %.3gx floor over fused-1", r.speedup, minSurrogateSpeedup))
	}
	return errors.Join(errs...)
}

// median is the middle value of xs (the mean of the two middle values
// for an even count); NaN for none.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("swbench: ")
	r, err := measure()
	if err != nil {
		log.Fatal(err)
	}
	if err := r.verdict(); err != nil {
		log.Fatalf("FAIL: %v", err)
	}
	log.Print("PASS")
}

// measure runs the paired stepper slices of every mode and the
// surrogate section on the reduced XOR gate mesh.
func measure() (result, error) {
	var r result
	k, err := backendspec.Resolve(backendspec.Request{Gate: "xor", Backend: backendspec.Micromagnetic})
	if err != nil {
		return r, err
	}
	mat, err := material.ByName(k.Material)
	if err != nil {
		return r, err
	}
	m, err := k.Micromagnetic()
	if err != nil {
		return r, err
	}
	stepsPerCase := int(m.Duration() / m.Dt())
	log.Printf("%s: %d cells, %d steps/case, %d pairs of %v slices per mode",
		k.Gate, m.Region.Count(), stepsPerCase, pairs, sliceTime)

	var fused1Rate float64
	for i, md := range modes {
		ratios, rates, err := pairRatios(m, mat, md.workers)
		if err != nil {
			return r, fmt.Errorf("fused-%d: %w", md.workers, err)
		}
		r.ratios[i] = ratios
		if md.workers == 1 {
			fused1Rate = median(rates)
		}
		log.Printf("fused-%d: median %.2f (bound %.2f), pair ratios %.2f",
			md.workers, median(ratios), md.bound, ratios)
	}

	model, err := spinwave.BuildSurrogate(context.Background(), m)
	if err != nil {
		return r, fmt.Errorf("surrogate: %w", err)
	}
	r.admitted = model.Verify() == nil
	perCase, err := surrogatePerCase(model, k.Kind())
	if err != nil {
		return r, fmt.Errorf("surrogate: %w", err)
	}
	r.speedup = float64(stepsPerCase) / fused1Rate / perCase
	log.Printf("surrogate: built in %.1fs, admitted=%v, warm eval %.2g us/case, %.3gx fused-1 (floor %.3gx)",
		model.BuildSeconds(), r.admitted, perCase*1e6, r.speedup, minSurrogateSpeedup)
	return r, nil
}

// pairRatios steps a fused solver at the given worker count against the
// llgref oracle on a second solver, in pairs of slices whose order
// alternates. It returns each pair's fused ÷ reference steps/s and each
// fused slice's steps/s.
func pairRatios(m *spinwave.Micromagnetic, mat spinwave.Material, workers int) (ratios, fusedRates []float64, err error) {
	fused, err := llg.New(m.Mesh, m.Region, mat, m.Dt())
	if err != nil {
		return nil, nil, err
	}
	fused.SetWorkers(workers)
	defer fused.Close()
	ref, err := llg.New(m.Mesh, m.Region, mat, m.Dt())
	if err != nil {
		return nil, nil, err
	}
	oracle := llgref.New(ref, nil)
	for p := 0; p < pairs; p++ {
		var f, o float64
		if p%2 == 0 {
			f, o = sliceRate(fused.Step), sliceRate(oracle.Step)
		} else {
			o, f = sliceRate(oracle.Step), sliceRate(fused.Step)
		}
		ratios = append(ratios, f/o)
		fusedRates = append(fusedRates, f)
	}
	return ratios, fusedRates, errors.Join(fused.CheckFinite(), ref.CheckFinite())
}

// sliceRate takes steps until sliceTime has passed and returns steps/s.
func sliceRate(step func()) float64 {
	start := time.Now()
	for n := 1; ; n++ {
		step()
		if el := time.Since(start); el >= sliceTime {
			return float64(n) / el.Seconds()
		}
	}
}

// surrogatePerCase times warm evaluations over the gate's full truth
// table and returns seconds per case.
func surrogatePerCase(model *spinwave.SurrogateModel, kind spinwave.GateKind) (float64, error) {
	n := kind.NumInputs()
	cases := make([][]bool, 1<<n)
	for v := range cases {
		cases[v] = make([]bool, n)
		for i := range cases[v] {
			cases[v][i] = v&(1<<(n-1-i)) != 0
		}
	}
	evals := 0
	start := time.Now()
	for time.Since(start) < surrogateTimingFloor {
		for _, in := range cases {
			if _, err := model.Eval(in); err != nil {
				return 0, err
			}
			evals++
		}
	}
	return time.Since(start).Seconds() / float64(evals), nil
}
