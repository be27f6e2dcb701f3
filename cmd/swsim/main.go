// Command swsim runs individual spin-wave gate simulations and the
// §IV-D robustness sweeps.
//
//	swsim -gate xor -inputs 10                    one micromagnetic case
//	swsim -gate maj3 -inputs 011 -ascii           case + wave-pattern art
//	swsim -sweep width                            width variability sweep
//	swsim -sweep roughness                        edge roughness sweep
//	swsim -sweep thermal                          temperature sweep
//	swsim -demo interference                      Figure 2 demo
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strings"
	"time"

	"spinwave"
	"spinwave/internal/backendspec"
	"spinwave/internal/core"
	"spinwave/internal/detect"
	"spinwave/internal/grid"
	"spinwave/internal/layout"
	"spinwave/internal/report"
	"spinwave/internal/sweep"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("swsim: ")
	os.Exit(run())
}

// run holds the real main body so deferred cleanup (journal sinks,
// trace export, stats summaries) executes before the process exits with
// the code it returns — os.Exit directly in a body with defers would
// skip them.
func run() int {
	gate := flag.String("gate", "xor", "gate: "+strings.Join(backendspec.Gates, ", "))
	inputs := flag.String("inputs", "", "input bits, I1 first (e.g. 10 or 011); empty = full truth table")
	full := flag.Bool("full", false, "use the paper's full dimensions (slow)")
	temp := flag.Float64("temp", 0, "temperature in kelvin (adds thermal field)")
	seed := flag.Int64("seed", 1, "thermal/roughness seed")
	rough := flag.Float64("rough", 0, "edge roughness probability in [0,1]")
	asciiArt := flag.Bool("ascii", false, "print the wave pattern after the run")
	sweepKind := flag.String("sweep", "", "run a sweep instead: width, roughness, thermal")
	demo := flag.String("demo", "", "run a demo: interference")
	stats := flag.Bool("stats", false, "print a timing/metrics summary to stderr when done")
	workers := flag.Int("workers", 0, "LLG stepping workers per transient (0/1 = serial; trajectories are bit-identical)")
	surrogateMode := flag.Bool("surrogate", false, "build the linear-superposition surrogate from the configured backend, run the admission gate, and print its truth table (exit 1 on rejection)")
	ckDir := flag.String("checkpoint", "", "checkpoint directory: periodically snapshot the transient (OVF + manifest pairs) for exact resume")
	ckEvery := flag.Int("checkpoint-every", 0, "checkpoint cadence in committed solver steps (0 = default 2000)")
	resume := flag.Bool("resume", false, "resume from the newest valid checkpoint in -checkpoint instead of starting at t = 0")
	readoutJSON := flag.String("readout-json", "", "write the single-case readouts as full-precision JSON to this file (the stdout table rounds)")
	flag.Parse()

	if *stats {
		spinwave.EnableSpanMetrics()
		defer func() { fmt.Fprint(os.Stderr, "\n"+spinwave.SnapshotMetrics().Summary()) }()
	}
	defer setupFlight(*stats)()

	if *demo == "interference" {
		demoInterference()
		return 0
	}
	if *sweepKind != "" {
		runSweep(*sweepKind, *seed)
		return healthExit()
	}

	spec := ""
	if *full {
		spec = "paper-micromag"
	}
	k, err := backendspec.Resolve(backendspec.Request{Gate: *gate, Backend: backendspec.Micromagnetic, Spec: spec})
	if err != nil {
		log.Fatal(err)
	}
	kind := k.Kind()
	// The perturbations change the device the key names, but not its I3
	// trim: a fabricated device's trim is fixed.
	opts := []core.MicromagOption{core.WithWorkers(*workers), core.WithDtScale(*flagDtScale)}
	if *temp > 0 {
		opts = append(opts, core.WithTemperature(*temp, *seed))
	}
	if *rough > 0 {
		opts = append(opts, core.WithRegionMutator(sweep.EdgeRoughness(*rough, *seed)))
	}
	if *flagProbe {
		opts = append(opts, core.WithProbes(spinwave.ProbeConfig{Enabled: true}))
	}
	if *flagHealth {
		// Abort on the first critical alert: a blown-up transient will
		// never produce a usable readout, so fail fast instead of stepping
		// NaNs to the end of the run.
		opts = append(opts, core.WithHealth(spinwave.HealthConfig{Enabled: true, AbortOnCritical: true}))
	}
	if *ckDir != "" {
		opts = append(opts, core.WithCheckpoint(spinwave.CheckpointConfig{
			Dir: *ckDir, EverySteps: *ckEvery, Resume: *resume,
		}))
	}
	m, err := k.Micromagnetic(opts...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gate %s: drive %.2f GHz, time step %.3g ps, %.2f ns per case\n",
		kind, m.Freq/1e9, m.Dt()*1e12, m.Duration()*1e9)
	if kind != spinwave.XOR {
		fmt.Printf("I3 phase trim: %.3f rad\n", k.I3Trim())
	}

	if *surrogateMode {
		return runSurrogate(m)
	}
	caseStart := time.Now()
	if *inputs == "" {
		runTruthTable(kind, m)
		indexSimRun(k.Gate, "", 1<<kind.NumInputs(), time.Since(caseStart))
	} else {
		runSingleCase(kind, m, *inputs, *temp > 0, *readoutJSON)
		indexSimRun(k.Gate, *inputs, 1, time.Since(caseStart))
	}
	reportProbes()
	if *asciiArt {
		in, err := parseInputs(kind, orDefault(*inputs, kind))
		if err != nil {
			log.Fatal(err)
		}
		art, err := spinwave.RenderSnapshotASCII(m, in, "mx", 120)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(art)
	}
	return healthExit()
}

func orDefault(inputs string, kind spinwave.GateKind) string {
	if inputs != "" {
		return inputs
	}
	return strings.Repeat("0", kind.NumInputs())
}

func parseInputs(kind spinwave.GateKind, s string) ([]bool, error) {
	if len(s) != kind.NumInputs() {
		return nil, fmt.Errorf("gate %s needs %d input bits, got %q", kind, kind.NumInputs(), s)
	}
	in := make([]bool, len(s))
	for i, c := range s {
		switch c {
		case '0':
		case '1':
			in[i] = true
		default:
			return nil, fmt.Errorf("input bits must be 0/1, got %q", s)
		}
	}
	return in, nil
}

// runSurrogate builds the linear-superposition surrogate from the
// micromagnetic backend (one unit transient per input port), runs it
// through the engine's admission gate — the verdict lands in the
// journal as a surrogate.admission event — and prints the surrogate's
// superposed truth table. Exits non-zero when the gate rejects the
// model, so CI smoke jobs fail loudly on a surrogate that drifted out
// of the golden bands.
func runSurrogate(m *spinwave.Micromagnetic) int {
	model, err := spinwave.BuildSurrogate(context.Background(), m)
	if err != nil {
		log.Print(err)
		return 1
	}
	fmt.Printf("surrogate: %d port transients in %.1f s\n", model.Ports(), model.BuildSeconds())
	eng := spinwave.NewEngine()
	if err := eng.AdmitSurrogate(model); err != nil {
		log.Print(err)
		return 1
	}
	fmt.Printf("surrogate admitted (base fingerprint %s)\n", model.BaseFingerprint())
	tt, err := model.Table()
	if err != nil {
		log.Print(err)
		return 1
	}
	fmt.Print(spinwave.FormatTruthTable(tt))
	fmt.Printf("fan-out mismatch |O1-O2|: %.4f, all correct: %v\n", tt.FanOutMatched(), tt.AllCorrect())
	return healthExit()
}

func runTruthTable(kind spinwave.GateKind, m *spinwave.Micromagnetic) {
	var tt *spinwave.TruthTable
	var err error
	if kind == spinwave.XOR {
		tt, err = spinwave.XORTruthTable(m, false)
	} else {
		tt, err = spinwave.MajorityTruthTable(m)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(spinwave.FormatTruthTable(tt))
	fmt.Printf("fan-out mismatch |O1-O2|: %.4f, all correct: %v\n", tt.FanOutMatched(), tt.AllCorrect())
}

func runSingleCase(kind spinwave.GateKind, m *spinwave.Micromagnetic, bits string, thermal bool, jsonOut string) {
	in, err := parseInputs(kind, bits)
	if err != nil {
		log.Fatal(err)
	}
	var out map[string]detect.Readout
	if thermal {
		out, err = sweep.CoherentReadout(m, in)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("(coherent background-subtracted thermal readout)")
	} else {
		out, err = m.Run(in)
		if err != nil {
			log.Fatal(err)
		}
	}
	if jsonOut != "" {
		// Full-precision readouts for bit-exact comparison: Go's JSON
		// encoder emits shortest-round-trip float64, so the golden and
		// the resumed run must match byte for byte.
		if err := writeReadoutJSON(jsonOut, out); err != nil {
			log.Fatal(err)
		}
	}
	t := report.NewTable(fmt.Sprintf("%s inputs %s", kind, report.Bits(in)),
		"output", "amplitude", "phase (rad)")
	for _, name := range []string{"O1", "O2"} {
		if r, ok := out[name]; ok {
			t.AddRow(name, fmt.Sprintf("%.4g", r.Amplitude), fmt.Sprintf("%.3f", r.Phase))
		}
	}
	fmt.Print(t.String())
}

// writeReadoutJSON commits the readout map as indented JSON. Map keys
// marshal sorted, so two runs with identical readouts produce identical
// bytes.
func writeReadoutJSON(path string, out map[string]detect.Readout) error {
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func demoInterference() {
	fmt.Println("Two-wave interference (Figure 2):")
	for _, c := range []struct{ p1, p2 float64 }{{0, 0}, {0, math.Pi}} {
		amp, phase := spinwave.Interfere(1, c.p1, 1, c.p2)
		fmt.Printf("  phases (%.2f, %.2f) -> amplitude %.2f, phase %.2f\n", c.p1, c.p2, amp, phase)
	}
}

func runSweep(kind string, seed int64) {
	switch kind {
	case "width":
		res, err := sweep.Width(spinwave.ReducedSpec(), []float64{0.8, 0.9, 1.0, 1.1}, func(s layout.Spec) (*core.TruthTable, error) {
			m, err := core.NewMicromagnetic(core.XOR, core.WithSpec(s))
			if err != nil {
				return nil, err
			}
			return core.XORTruthTable(m, false)
		})
		if err != nil {
			log.Fatal(err)
		}
		printSweep("XOR width variability (scale on 24.75 nm)", "width scale", res)
	case "roughness":
		res, err := sweep.Roughness([]float64{0, 0.1, 0.2}, seed, func(mut func(grid.Mesh, grid.Region) grid.Region) (*core.TruthTable, error) {
			m, err := core.NewMicromagnetic(core.XOR, core.WithRegionMutator(mut))
			if err != nil {
				return nil, err
			}
			return core.XORTruthTable(m, false)
		})
		if err != nil {
			log.Fatal(err)
		}
		printSweep("XOR edge roughness", "flip probability", res)
	case "dimension":
		// §III-A sensitivity: trunk-length (d2) error in fractions of λ,
		// on top of the reduced MAJ3's committed trim.
		k, err := backendspec.Resolve(backendspec.Request{Gate: "maj3", Backend: backendspec.Micromagnetic})
		if err != nil {
			log.Fatal(err)
		}
		res, err := sweep.DimensionError([]float64{0, 0.05, 0.1, 0.15, 0.2}, func(phaseError float64) (*core.TruthTable, error) {
			m, err := k.Micromagnetic(core.WithI3PhaseTrim(k.I3Trim() + phaseError))
			if err != nil {
				return nil, err
			}
			return core.MajorityTruthTable(m)
		})
		if err != nil {
			log.Fatal(err)
		}
		printSweep("MAJ3 trunk-length error sensitivity", "error (λ)", res)
	case "thermal":
		res, err := sweep.Thermal([]float64{0, 100, 300}, func(T float64) (*core.TruthTable, error) {
			m, err := core.NewMicromagnetic(core.XOR, core.WithTemperature(T, seed),
				core.WithDriveField(20e-3), core.WithMeasurePeriods(12))
			if err != nil {
				return nil, err
			}
			return thermalTruthTable(m)
		})
		if err != nil {
			log.Fatal(err)
		}
		printSweep("XOR thermal sweep (coherent readout)", "T (K)", res)
	default:
		log.Fatalf("unknown sweep %q", kind)
	}
}

// thermalTruthTable evaluates the XOR truth table using the coherent
// background-subtracted readout suitable for noisy runs.
func thermalTruthTable(m *core.Micromagnetic) (*core.TruthTable, error) {
	ref, err := sweep.CoherentReadout(m, []bool{false, false})
	if err != nil {
		return nil, err
	}
	tt := &core.TruthTable{Gate: "xor-fo2", Backend: "micromagnetic+coherent", Detection: "threshold"}
	for _, in := range core.EnumerateInputs(2) {
		res, err := sweep.CoherentReadout(m, in)
		if err != nil {
			return nil, err
		}
		want := in[0] != in[1]
		cr := core.CaseResult{Inputs: in, Expected: want, Correct: true}
		for _, name := range []string{"O1", "O2"} {
			r := res[name]
			norm := 0.0
			if ref[name].Amplitude > 0 {
				norm = r.Amplitude / ref[name].Amplitude
			}
			logic := norm <= 0.5
			cr.Outputs = append(cr.Outputs, core.OutputResult{
				Name: name, Amplitude: r.Amplitude, Normalized: norm, Phase: r.Phase, Logic: logic,
			})
			if logic != want {
				cr.Correct = false
			}
		}
		tt.Cases = append(tt.Cases, cr)
	}
	return tt, nil
}

func printSweep(title, param string, res []sweep.Result) {
	t := report.NewTable(title, param, "correct", "fan-out mismatch", "margin")
	for _, r := range res {
		t.AddRow(fmt.Sprintf("%g", r.Param), fmt.Sprintf("%v", r.Correct),
			fmt.Sprintf("%.4f", r.FanOutMismatch), fmt.Sprintf("%.3f", r.Margin))
	}
	fmt.Print(t.String())
}
