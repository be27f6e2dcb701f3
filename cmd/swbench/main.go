// Command swbench benchmarks the LLG stepping cores and emits
// BENCH_pr6.json: wall-clock timings of the reference (term-by-term)
// stepper versus the fused tiled core at 1/2/4/8 workers on the paper's
// XOR and MAJ3 micromagnetic truth tables, a bit-identity check of the
// single-worker and 8-worker magnetization trajectories, and — per gate
// — the warm linear-superposition surrogate: build cost (one unit
// transient per port), admission verdict against the golden bands, and
// warm per-case evaluation time versus the fused single-worker solver.
//
//	swbench                      full benchmark, writes BENCH_pr6.json
//	swbench -quick               CI smoke variant: XOR only, one case
//	swbench -out bench.json      choose the output path
//	swbench -surrogate=false     skip the surrogate build/timing section
//	swbench -compare BENCH_pr6.json   regression-gate vs a baseline
//
// The process exits non-zero if the parallel stepper's trajectory
// diverges from serial by even one bit, or — with -compare — if the
// fused-8 throughput regressed more than 15% against the baseline
// file, if a benchmarked surrogate failed admission, or if the warm
// surrogate is less than 50x faster per case than the fused
// single-worker solver. Every gated figure is machine-independent:
// fused-8 steps/s is normalized by the same run's reference-stepper
// steps/s and the surrogate speedup is the ratio of two per-case times
// from the same run, so a slower CI host does not trip the gates but a
// real slowdown relative to the run's own exact solver does.
//
// The fused modes time full backend transients (setup, stepping,
// lock-in). The reference mode times the test oracle
// internal/llg/llgref, which production no longer reaches: it steps a
// bare llg.Solver built over the backend's own mesh, region, material
// and time step for the same steps-per-case × cases step count.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"spinwave"
	"spinwave/internal/backendspec"
	"spinwave/internal/llg"
	"spinwave/internal/llg/llgref"
)

// modeResult is one (stepper, workers) timing row.
type modeResult struct {
	// Name is "reference" for the term-by-term baseline or "fused" for
	// the tiled core.
	Name string `json:"name"`
	// Workers is the stepping worker count (1 = serial fused).
	Workers int `json:"workers"`
	// Seconds is the total wall-clock time for all cases.
	Seconds float64 `json:"seconds"`
	// StepsPerSec is integrator throughput across the whole table.
	StepsPerSec float64 `json:"steps_per_sec"`
	// Speedup is Seconds of the reference mode divided by this mode's.
	Speedup float64 `json:"speedup_vs_reference"`
}

// surrogateResult is the warm linear-superposition surrogate section of
// one gate's benchmark: how much the per-port build cost, whether the
// superposed truth table passed the golden-band admission gate, and how
// the warm per-case evaluation time compares to the fused single-worker
// solver from the same run.
type surrogateResult struct {
	// BuildSeconds is the one-off cost of the per-port unit transients.
	BuildSeconds float64 `json:"build_seconds"`
	// Admitted reports whether Verify accepted every truth-table row
	// against the Tables I/II golden bands.
	Admitted bool `json:"admitted"`
	// Evals is the number of warm evaluations timed.
	Evals int `json:"evals"`
	// SecondsPerCase is the warm surrogate's per-case evaluation time.
	SecondsPerCase float64 `json:"seconds_per_case"`
	// MicromagSecondsPerCase is the fused single-worker solver's
	// per-case time from the same run — the denominator-free half of the
	// normalized speedup ratio.
	MicromagSecondsPerCase float64 `json:"micromag_seconds_per_case"`
	// Speedup is MicromagSecondsPerCase / SecondsPerCase.
	Speedup float64 `json:"speedup_vs_fused1"`
}

// gateResult aggregates one gate's benchmark.
type gateResult struct {
	Gate  string `json:"gate"`
	Cases int    `json:"cases"`
	// Cells is the number of material cells in the rasterized gate.
	Cells int `json:"cells"`
	// StepsPerCase is the fixed-step count of one transient.
	StepsPerCase int          `json:"steps_per_case"`
	Modes        []modeResult `json:"modes"`
	// TrajectoriesBitIdentical reports whether the final magnetization
	// of a 1-worker and an 8-worker run matched exactly, cell by cell.
	TrajectoriesBitIdentical bool `json:"trajectories_bit_identical"`
	// Surrogate is the warm-surrogate comparison; nil with -surrogate=false.
	Surrogate *surrogateResult `json:"surrogate,omitempty"`
}

// benchReport is the BENCH_pr3.json document.
type benchReport struct {
	Tool       string       `json:"tool"`
	Quick      bool         `json:"quick"`
	GoMaxProcs int          `json:"gomaxprocs"`
	NumCPU     int          `json:"num_cpu"`
	Gates      []gateResult `json:"gates"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("swbench: ")
	out := flag.String("out", "BENCH_pr6.json", "output JSON path")
	quick := flag.Bool("quick", false, "CI smoke mode: XOR only, a single case per mode")
	surrogateOn := flag.Bool("surrogate", true, "also build and time the warm linear-superposition surrogate per gate")
	compare := flag.String("compare", "", "baseline BENCH json to regression-gate against (15% on normalized fused-8 throughput; 50x floor on warm-surrogate speedup)")
	flag.Parse()

	report := benchReport{
		Tool:       "swbench",
		Quick:      *quick,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}

	gates := []string{"xor"}
	if !*quick {
		gates = append(gates, "maj3")
	}
	ok := true
	for _, gate := range gates {
		k, err := backendspec.Resolve(backendspec.Request{Gate: gate, Backend: backendspec.Micromagnetic})
		if err != nil {
			log.Fatal(err)
		}
		g, err := benchGate(k, *quick, *surrogateOn)
		if err != nil {
			log.Fatal(err)
		}
		if !g.TrajectoriesBitIdentical {
			ok = false
		}
		report.Gates = append(report.Gates, *g)
	}

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", *out)
	if !ok {
		log.Fatal("FAIL: parallel trajectory diverged from serial")
	}
	if *compare != "" {
		if err := compareBaseline(report, *compare); err != nil {
			log.Fatal(err)
		}
	}
}

// regressionTolerance is the allowed fractional drop of the normalized
// fused-8 throughput against the -compare baseline.
const regressionTolerance = 0.15

// minSurrogateSpeedup is the -compare floor on the warm surrogate's
// per-case speedup over the fused single-worker solver. The ratio is
// taken within one run, so the floor is machine-independent; 50x is
// orders of magnitude below the measured speedup and exists to catch a
// surrogate that silently started re-running the solver.
const minSurrogateSpeedup = 50.0

// surrogateRegressionFactor is the allowed drop of the warm-surrogate
// speedup against the -compare baseline's. Sub-microsecond evaluations
// jitter far more than solver throughput run to run, so the relative
// gate is an order of magnitude rather than regressionTolerance — it
// still catches a superposition loop that grew real per-case work while
// staying above the absolute 50x floor.
const surrogateRegressionFactor = 10.0

// compareBaseline gates the report against a baseline BENCH file. For
// every gate present in both, the fused-8 steps/s normalized by the
// same run's reference steps/s must not fall more than
// regressionTolerance below the baseline's ratio. Gates that carry a
// warm-surrogate section are additionally gated on admission and on the
// minSurrogateSpeedup floor (plus an order-of-magnitude guard against
// the baseline's surrogate speedup when the baseline has one; older
// baselines without surrogate data skip only that relative check).
func compareBaseline(report benchReport, path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("compare baseline: %w", err)
	}
	var base benchReport
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("compare baseline %s: %w", path, err)
	}
	compared := 0
	for _, g := range report.Gates {
		var bg *gateResult
		for i := range base.Gates {
			if base.Gates[i].Gate == g.Gate {
				bg = &base.Gates[i]
			}
		}
		if sr := g.Surrogate; sr != nil {
			compared++
			log.Printf("%s: warm surrogate %.2g us/case, %.0fx fused-1 micromag (build %.1fs, admitted=%v)",
				g.Gate, sr.SecondsPerCase*1e6, sr.Speedup, sr.BuildSeconds, sr.Admitted)
			if !sr.Admitted {
				return fmt.Errorf("FAIL: %s surrogate failed golden-band admission", g.Gate)
			}
			if sr.Speedup < minSurrogateSpeedup {
				return fmt.Errorf("FAIL: %s warm-surrogate speedup %.1fx is below the %.0fx floor over fused-1 micromag",
					g.Gate, sr.Speedup, minSurrogateSpeedup)
			}
			if bg != nil && bg.Surrogate != nil && sr.Speedup < bg.Surrogate.Speedup/surrogateRegressionFactor {
				return fmt.Errorf("FAIL: %s warm-surrogate speedup %.0fx fell more than %.0fx below baseline %.0fx (%s)",
					g.Gate, sr.Speedup, surrogateRegressionFactor, bg.Surrogate.Speedup, path)
			}
		}
		if bg == nil {
			continue
		}
		cur, okCur := normalizedFused8(g)
		ref, okRef := normalizedFused8(*bg)
		if !okCur || !okRef {
			continue
		}
		compared++
		log.Printf("%s: normalized fused-8 throughput %.2fx reference (baseline %.2fx)", g.Gate, cur, ref)
		if cur < ref*(1-regressionTolerance) {
			return fmt.Errorf("FAIL: %s fused-8 normalized throughput %.2fx regressed more than %.0f%% below baseline %.2fx (%s)",
				g.Gate, cur, regressionTolerance*100, ref, path)
		}
	}
	if compared == 0 {
		return fmt.Errorf("compare baseline %s: no comparable figures (need reference and fused-8 modes in both, or a surrogate section)", path)
	}
	log.Printf("compare: %d figure(s) passed the gates against %s", compared, path)
	return nil
}

// normalizedFused8 is a gate's fused-8 steps/s divided by the same
// run's reference-stepper steps/s — the machine-independent throughput
// figure the -compare gate tracks.
func normalizedFused8(g gateResult) (float64, bool) {
	var ref, fused8 float64
	for _, m := range g.Modes {
		switch {
		case m.Name == "reference" && m.Workers == 1:
			ref = m.StepsPerSec
		case m.Name == "fused" && m.Workers == 8:
			fused8 = m.StepsPerSec
		}
	}
	if ref <= 0 || fused8 <= 0 {
		return 0, false
	}
	return fused8 / ref, true
}

// referenceSteps takes n term-by-term oracle steps on a bare solver
// built over the backend's mesh, region, material and time step.
func referenceSteps(m *spinwave.Micromagnetic, n int) error {
	s, err := llg.New(m.Mesh, m.Region, spinwave.FeCoB(), m.Dt())
	if err != nil {
		return err
	}
	oracle := llgref.New(s, nil)
	for i := 0; i < n; i++ {
		oracle.Step()
	}
	return s.CheckFinite()
}

// benchCases returns the input combinations timed per mode: the full
// truth table, or a single asymmetric case in quick mode.
func benchCases(kind spinwave.GateKind, quick bool) [][]bool {
	n := kind.NumInputs()
	if quick {
		in := make([]bool, n)
		in[0] = true
		return [][]bool{in}
	}
	cases := make([][]bool, 0, 1<<n)
	for v := 0; v < 1<<n; v++ {
		in := make([]bool, n)
		for i := 0; i < n; i++ {
			in[i] = v&(1<<(n-1-i)) != 0
		}
		cases = append(cases, in)
	}
	return cases
}

func benchGate(k backendspec.Key, quick, surrogateOn bool) (*gateResult, error) {
	kind := k.Kind()
	cases := benchCases(kind, quick)
	probe, err := k.Micromagnetic(spinwave.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	g := &gateResult{
		Gate:         kind.String(),
		Cases:        len(cases),
		Cells:        probe.Region.Count(),
		StepsPerCase: int(probe.Duration() / probe.Dt()),
	}
	log.Printf("%s: %d cases, %d cells, %d steps/case", g.Gate, g.Cases, g.Cells, g.StepsPerCase)

	type mode struct {
		name      string
		workers   int
		reference bool
	}
	modes := []mode{
		{"reference", 1, true},
		{"fused", 1, false},
		{"fused", 2, false},
		{"fused", 4, false},
		{"fused", 8, false},
	}
	if quick {
		modes = []mode{{"reference", 1, true}, {"fused", 1, false}, {"fused", 8, false}}
	}
	var refSeconds, fused1Seconds float64
	for _, md := range modes {
		var secs float64
		if md.reference {
			start := time.Now()
			if err := referenceSteps(probe, g.StepsPerCase*len(cases)); err != nil {
				return nil, fmt.Errorf("%s reference: %w", g.Gate, err)
			}
			secs = time.Since(start).Seconds()
			refSeconds = secs
		} else {
			m, err := k.Micromagnetic(spinwave.WithWorkers(md.workers))
			if err != nil {
				return nil, err
			}
			start := time.Now()
			for _, in := range cases {
				if _, err := m.Run(in); err != nil {
					return nil, fmt.Errorf("%s %s w=%d: %w", g.Gate, md.name, md.workers, err)
				}
			}
			secs = time.Since(start).Seconds()
		}
		if md.name == "fused" && md.workers == 1 {
			fused1Seconds = secs
		}
		r := modeResult{
			Name:        md.name,
			Workers:     md.workers,
			Seconds:     secs,
			StepsPerSec: float64(g.StepsPerCase*len(cases)) / secs,
		}
		if refSeconds > 0 {
			r.Speedup = refSeconds / secs
		}
		g.Modes = append(g.Modes, r)
		log.Printf("%s: %-9s workers=%d  %8.2fs  %.0f steps/s  speedup %.2fx",
			g.Gate, md.name, md.workers, secs, r.StepsPerSec, r.Speedup)
	}

	// Divergence gate: the final magnetization of a full transient must
	// be bit-identical between 1 and 8 stepping workers.
	identical, err := trajectoriesIdentical(k, cases[0])
	if err != nil {
		return nil, err
	}
	g.TrajectoriesBitIdentical = identical
	if identical {
		log.Printf("%s: 1-worker vs 8-worker trajectories bit-identical", g.Gate)
	} else {
		log.Printf("%s: DIVERGENCE between 1-worker and 8-worker trajectories", g.Gate)
	}

	if surrogateOn {
		sr, err := benchSurrogate(k, fused1Seconds/float64(len(cases)))
		if err != nil {
			return nil, fmt.Errorf("%s surrogate: %w", g.Gate, err)
		}
		g.Surrogate = sr
		log.Printf("%s: surrogate built in %.1fs, admitted=%v, warm eval %.2g us/case — %.0fx fused-1",
			g.Gate, sr.BuildSeconds, sr.Admitted, sr.SecondsPerCase*1e6, sr.Speedup)
	}
	return g, nil
}

// surrogateTimingFloor is the minimum wall-clock spent timing warm
// surrogate evaluations, so the per-case figure averages over many
// thousands of O(microsecond) calls instead of one noisy sample.
const surrogateTimingFloor = 200 * time.Millisecond

// benchSurrogate builds the linear-superposition surrogate from a fused
// single-worker micromagnetic backend (one unit transient per port),
// records its golden-band admission verdict, and times warm evaluations
// over the gate's full truth table. fused1PerCase is the exact solver's
// per-case time from the same run; the reported speedup is the ratio of
// the two per-case times, so it is machine-independent.
func benchSurrogate(k backendspec.Key, fused1PerCase float64) (*surrogateResult, error) {
	m, err := k.Micromagnetic(spinwave.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	model, err := spinwave.BuildSurrogate(context.Background(), m)
	if err != nil {
		return nil, err
	}
	sr := &surrogateResult{
		BuildSeconds:           model.BuildSeconds(),
		Admitted:               model.Verify() == nil,
		MicromagSecondsPerCase: fused1PerCase,
	}
	// Warm timing always sweeps the full truth table (quick mode trims
	// the solver modes, not this microsecond-scale loop).
	cases := benchCases(k.Kind(), false)
	start := time.Now()
	for time.Since(start) < surrogateTimingFloor {
		for _, in := range cases {
			if _, err := model.Eval(in); err != nil {
				return nil, err
			}
			sr.Evals++
		}
	}
	elapsed := time.Since(start).Seconds()
	if sr.Evals > 0 {
		sr.SecondsPerCase = elapsed / float64(sr.Evals)
	}
	if sr.SecondsPerCase > 0 && fused1PerCase > 0 {
		sr.Speedup = fused1PerCase / sr.SecondsPerCase
	}
	return sr, nil
}

// trajectoriesIdentical runs one full transient at 1 and 8 workers and
// compares every cell of the final magnetization exactly.
func trajectoriesIdentical(k backendspec.Key, inputs []bool) (bool, error) {
	m1, err := k.Micromagnetic(spinwave.WithWorkers(1))
	if err != nil {
		return false, err
	}
	f1, _, _, err := m1.Snapshot(inputs)
	if err != nil {
		return false, err
	}
	m8, err := k.Micromagnetic(spinwave.WithWorkers(8))
	if err != nil {
		return false, err
	}
	f8, _, _, err := m8.Snapshot(inputs)
	if err != nil {
		return false, err
	}
	if len(f1) != len(f8) {
		return false, fmt.Errorf("snapshot sizes differ: %d vs %d", len(f1), len(f8))
	}
	for c := range f1 {
		if f1[c] != f8[c] {
			return false, nil
		}
	}
	return true, nil
}
