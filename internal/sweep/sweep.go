// Package sweep implements the paper's §IV-D robustness studies:
// geometric variability (waveguide width variation, edge roughness — the
// trapezoidal cross-section of ref [36] appears in a 2-D film model as an
// effective width change) and thermal noise, evaluated as parameter
// sweeps over gate truth tables.
//
// Sweeps are expressed against a TableRunner so the same harness drives
// the fast behavioral backend (for smoke tests), the micromagnetic
// backend (for the real experiments, see cmd/swsim), or a fake (for unit
// tests). The points run one after another; a runner that evaluates its
// table through the engine gets the case-level concurrency there.
package sweep

import (
	"fmt"
	"math"

	"spinwave/internal/core"
	"spinwave/internal/detect"
	"spinwave/internal/dsp"
	"spinwave/internal/grid"
	"spinwave/internal/layout"
	"spinwave/internal/obs"
)

// TableRunner evaluates a gate truth table for a given spec.
type TableRunner func(spec layout.Spec) (*core.TruthTable, error)

// runPoints evaluates one sweep point per parameter, in parameter
// order, and stops at the first error.
func runPoints(params []float64, eval func(i int, param float64) (*core.TruthTable, error), describe func(param float64) string) ([]Result, error) {
	initMetrics()
	out := make([]Result, len(params))
	for i, param := range params {
		span := obs.StartSpan("sweep.point")
		tt, err := eval(i, param)
		span.End()
		if err != nil {
			mPointsErr.Inc()
			return nil, fmt.Errorf("sweep: %s: %w", describe(param), err)
		}
		mPointsOK.Inc()
		out[i] = point(param, tt)
	}
	return out, nil
}

// Result is one sweep point.
type Result struct {
	// Param is the swept value (width scale, temperature, roughness ...).
	Param float64
	// Correct reports whether every truth-table case decoded correctly.
	Correct bool
	// FanOutMismatch is the worst |O1−O2| normalized amplitude gap.
	FanOutMismatch float64
	// Margin is the worst-case detection margin: distance of the phase
	// from the π/2 decision boundary (phase detection) or of the
	// normalized amplitude from the 0.5 threshold (threshold detection).
	Margin float64
}

// Width sweeps the waveguide width by the given scale factors.
func Width(spec layout.Spec, scales []float64, run TableRunner) ([]Result, error) {
	if len(scales) == 0 {
		return nil, fmt.Errorf("sweep: no width scales")
	}
	for _, s := range scales {
		if s <= 0 {
			return nil, fmt.Errorf("sweep: width scale %g must be positive", s)
		}
	}
	return runPoints(scales,
		func(_ int, s float64) (*core.TruthTable, error) {
			sp := spec
			sp.Width = spec.Width * s
			return run(sp)
		},
		func(s float64) string { return fmt.Sprintf("width scale %g", s) })
}

// Thermal sweeps the simulation temperature.
func Thermal(temps []float64, run func(temperature float64) (*core.TruthTable, error)) ([]Result, error) {
	if len(temps) == 0 {
		return nil, fmt.Errorf("sweep: no temperatures")
	}
	for _, t := range temps {
		if t < 0 {
			return nil, fmt.Errorf("sweep: temperature %g must be non-negative", t)
		}
	}
	return runPoints(temps,
		func(_ int, t float64) (*core.TruthTable, error) { return run(t) },
		func(t float64) string { return fmt.Sprintf("T=%g K", t) })
}

// Roughness sweeps the edge-roughness probability using a runner that
// receives a region mutator for core.WithRegionMutator. Each point gets
// a distinct deterministic seed (seed + point index).
func Roughness(probs []float64, seed int64, run func(mutator func(grid.Mesh, grid.Region) grid.Region) (*core.TruthTable, error)) ([]Result, error) {
	if len(probs) == 0 {
		return nil, fmt.Errorf("sweep: no roughness probabilities")
	}
	for _, p := range probs {
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("sweep: roughness probability %g outside [0,1]", p)
		}
	}
	return runPoints(probs,
		func(i int, p float64) (*core.TruthTable, error) {
			return run(EdgeRoughness(p, seed+int64(i)))
		},
		func(p float64) string { return fmt.Sprintf("roughness %g", p) })
}

// point derives the sweep metrics from a truth table.
func point(param float64, tt *core.TruthTable) Result {
	return Result{
		Param:          param,
		Correct:        tt.AllCorrect(),
		FanOutMismatch: tt.FanOutMatched(),
		Margin:         Margin(tt),
	}
}

// Margin computes the worst-case detection margin of a truth table:
// for phase detection the distance of |Δφ| from π/2 (reference = the
// first case's phase per output), for threshold detection the distance
// of the normalized amplitude from 0.5.
func Margin(tt *core.TruthTable) float64 {
	worst := math.Inf(1)
	if len(tt.Cases) == 0 {
		return 0
	}
	refPhase := map[string]float64{}
	for _, o := range tt.Cases[0].Outputs {
		refPhase[o.Name] = o.Phase
	}
	for ci, c := range tt.Cases {
		for _, o := range c.Outputs {
			var m float64
			if tt.Detection == "threshold" {
				m = math.Abs(o.Normalized - 0.5)
			} else {
				if ci == 0 {
					continue // the reference case has no meaningful margin
				}
				d := math.Abs(dsp.PhaseDiff(o.Phase, refPhase[o.Name]))
				m = math.Abs(d - math.Pi/2)
			}
			if m < worst {
				worst = m
			}
		}
	}
	if math.IsInf(worst, 1) {
		return 0
	}
	return worst
}

// EdgeRoughness returns a region mutator that roughens waveguide edges:
// each material cell adjacent to vacuum is removed with probability p,
// and each vacuum cell adjacent to material is added with probability p,
// using a deterministic per-cell hash so results are reproducible. This
// models the fabrication edge roughness studied in refs [36,43].
func EdgeRoughness(p float64, seed int64) func(grid.Mesh, grid.Region) grid.Region {
	return func(mesh grid.Mesh, region grid.Region) grid.Region {
		if p == 0 {
			return region
		}
		out := region.Clone()
		for j := 0; j < mesh.Ny; j++ {
			for i := 0; i < mesh.Nx; i++ {
				idx := mesh.Idx(i, j)
				boundary := false
				for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
					ni, nj := i+d[0], j+d[1]
					if ni < 0 || ni >= mesh.Nx || nj < 0 || nj >= mesh.Ny {
						continue
					}
					if region[mesh.Idx(ni, nj)] != region[idx] {
						boundary = true
						break
					}
				}
				if !boundary {
					continue
				}
				if hashUniform(uint64(seed), uint64(idx)) < p {
					out[idx] = !region[idx]
				}
			}
		}
		return out
	}
}

// hashUniform maps (seed, cell) to a uniform value in [0, 1).
func hashUniform(seed, cell uint64) float64 {
	x := seed ^ (cell+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// DimensionError sweeps a trunk-length (d2) fabrication error on the
// Majority gate, expressed as a fraction of λ. The paper's §III-A design
// rule requires the interfering path lengths to be accurate; this sweep
// measures how much error the phase detection tolerates. Each point runs
// the full truth table with the error injected on top of the calibrated
// I3 phase (an error of ε·λ is exactly a −2π·ε drive-phase offset).
func DimensionError(errorsLambda []float64,
	run func(phaseError float64) (*core.TruthTable, error)) ([]Result, error) {
	if len(errorsLambda) == 0 {
		return nil, fmt.Errorf("sweep: no dimension errors")
	}
	for _, e := range errorsLambda {
		if math.Abs(e) > 0.5 {
			return nil, fmt.Errorf("sweep: dimension error %g·λ outside ±0.5λ", e)
		}
	}
	return runPoints(errorsLambda,
		func(_ int, e float64) (*core.TruthTable, error) { return run(-2 * math.Pi * e) },
		func(e float64) string { return fmt.Sprintf("dimension error %g·λ", e) })
}

// CoherentReadout evaluates one thermal-noise case with coherent
// background subtraction: it runs the case and a drive-muted background
// with the identical (deterministic, seeded) noise realization and
// subtracts the complex lock-in outputs, recovering the spin-wave signal
// even when the raw noise floor exceeds it. This is the averaging-free
// equivalent of the multi-shot averaging a lab lock-in would do.
func CoherentReadout(m *core.Micromagnetic, inputs []bool) (map[string]detect.Readout, error) {
	driven, err := m.Run(inputs)
	if err != nil {
		return nil, err
	}
	background, err := m.RunBackground()
	if err != nil {
		return nil, err
	}
	out := make(map[string]detect.Readout, len(driven))
	for name, d := range driven {
		b, ok := background[name]
		if !ok {
			return nil, fmt.Errorf("sweep: background missing output %s", name)
		}
		re := d.Amplitude*math.Cos(d.Phase) - b.Amplitude*math.Cos(b.Phase)
		im := d.Amplitude*math.Sin(d.Phase) - b.Amplitude*math.Sin(b.Phase)
		out[name] = detect.Readout{
			Probe:     name,
			Amplitude: math.Hypot(re, im),
			Phase:     math.Atan2(im, re),
		}
	}
	return out, nil
}

// AllCorrect reports whether every sweep point kept the gate functional —
// the paper's §IV-D claim is that moderate variability and thermal noise
// do "not disturb the gate functionality".
func AllCorrect(results []Result) bool {
	for _, r := range results {
		if !r.Correct {
			return false
		}
	}
	return true
}
