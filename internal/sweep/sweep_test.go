package sweep

import (
	"context"
	"errors"
	"math"
	"testing"

	"spinwave/internal/core"
	"spinwave/internal/detect"
	"spinwave/internal/engine"
	"spinwave/internal/grid"
	"spinwave/internal/layout"
	"spinwave/internal/material"
)

func behavioralXORRunner(t *testing.T) TableRunner {
	t.Helper()
	return func(spec layout.Spec) (*core.TruthTable, error) {
		b, err := core.NewBehavioral(core.XOR, spec, material.FeCoB())
		if err != nil {
			return nil, err
		}
		return core.XORTruthTable(b, false)
	}
}

func TestWidthSweepBehavioral(t *testing.T) {
	res, err := Width(layout.PaperSpec(), []float64{0.8, 0.9, 1.0}, behavioralXORRunner(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("results = %d", len(res))
	}
	if !AllCorrect(res) {
		t.Error("behavioral XOR failed under width scaling")
	}
	for _, r := range res {
		if r.Margin <= 0 {
			t.Errorf("scale %g: margin %g", r.Param, r.Margin)
		}
	}
}

func TestWidthSweepValidation(t *testing.T) {
	if _, err := Width(layout.PaperSpec(), nil, behavioralXORRunner(t)); err == nil {
		t.Error("empty scales accepted")
	}
	if _, err := Width(layout.PaperSpec(), []float64{-1}, behavioralXORRunner(t)); err == nil {
		t.Error("negative scale accepted")
	}
	// Width above λ must propagate the layout validation error.
	if _, err := Width(layout.PaperSpec(), []float64{2}, behavioralXORRunner(t)); err == nil {
		t.Error("over-wide scale accepted")
	}
}

func TestThermalSweepValidation(t *testing.T) {
	runner := func(T float64) (*core.TruthTable, error) {
		b, err := core.NewBehavioral(core.XOR, layout.PaperSpec(), material.FeCoB())
		if err != nil {
			return nil, err
		}
		return core.XORTruthTable(b, false)
	}
	if _, err := Thermal(nil, runner); err == nil {
		t.Error("empty temperature list accepted")
	}
	if _, err := Thermal([]float64{-5}, runner); err == nil {
		t.Error("negative temperature accepted")
	}
	res, err := Thermal([]float64{0, 300}, runner)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || !AllCorrect(res) {
		t.Errorf("thermal sweep results wrong: %+v", res)
	}
}

func TestMarginThresholdAndPhase(t *testing.T) {
	tt := &core.TruthTable{
		Detection: "threshold",
		Cases: []core.CaseResult{
			{Outputs: []core.OutputResult{{Name: "O1", Normalized: 1.0}}},
			{Outputs: []core.OutputResult{{Name: "O1", Normalized: 0.1}}},
		},
	}
	if got := Margin(tt); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("threshold margin = %g, want 0.4", got)
	}
	phase := &core.TruthTable{
		Detection: "phase",
		Cases: []core.CaseResult{
			{Outputs: []core.OutputResult{{Name: "O1", Phase: 0.2}}},
			{Outputs: []core.OutputResult{{Name: "O1", Phase: 0.2 + math.Pi}}},
			{Outputs: []core.OutputResult{{Name: "O1", Phase: 0.2 + 1.0}}},
		},
	}
	// Margins: |π−π/2| = π/2 and |1−π/2| ≈ 0.5708; worst ≈ 0.5708.
	if got := Margin(phase); math.Abs(got-(math.Pi/2-1)) > 1e-9 {
		t.Errorf("phase margin = %g", got)
	}
	if got := Margin(&core.TruthTable{}); got != 0 {
		t.Errorf("empty margin = %g", got)
	}
}

func TestEdgeRoughnessMutator(t *testing.T) {
	mesh := grid.MustMesh(20, 10, 5e-9, 5e-9, 1e-9)
	region := grid.RectRegion(mesh, 10e-9, 10e-9, 90e-9, 40e-9)
	base := region.Count()

	// p = 0: identity.
	same := EdgeRoughness(0, 1)(mesh, region)
	if same.Count() != base {
		t.Error("p=0 changed the region")
	}
	// p = 0.5: changes some boundary cells, deterministically per seed.
	r1 := EdgeRoughness(0.5, 1)(mesh, region)
	r2 := EdgeRoughness(0.5, 1)(mesh, region)
	r3 := EdgeRoughness(0.5, 2)(mesh, region)
	if r1.Count() == base {
		t.Error("p=0.5 changed nothing")
	}
	diff12, diff13 := 0, 0
	for i := range r1 {
		if r1[i] != r2[i] {
			diff12++
		}
		if r1[i] != r3[i] {
			diff13++
		}
	}
	if diff12 != 0 {
		t.Error("same seed produced different roughness")
	}
	if diff13 == 0 {
		t.Error("different seeds produced identical roughness")
	}
	// Interior cells untouched.
	interior := mesh.Idx(10, 5)
	if !r1[interior] {
		t.Error("interior cell removed")
	}
	// Far vacuum untouched.
	if r1[mesh.Idx(0, 0)] {
		t.Error("far vacuum cell added")
	}
}

func TestRoughnessSweepWithFakeRunner(t *testing.T) {
	calls := 0
	run := func(mut func(grid.Mesh, grid.Region) grid.Region) (*core.TruthTable, error) {
		calls++
		// Exercise the mutator on a toy region to prove it is usable.
		mesh := grid.MustMesh(4, 4, 1e-9, 1e-9, 1e-9)
		_ = mut(mesh, grid.FullRegion(mesh))
		return &core.TruthTable{
			Detection: "threshold",
			Cases: []core.CaseResult{
				{Correct: true, Outputs: []core.OutputResult{{Name: "O1", Normalized: 1}}},
			},
		}, nil
	}
	res, err := Roughness([]float64{0, 0.1, 0.2}, 7, run)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 || len(res) != 3 {
		t.Errorf("calls=%d results=%d", calls, len(res))
	}
	if !AllCorrect(res) {
		t.Error("fake runner marked incorrect")
	}
	if _, err := Roughness([]float64{1.5}, 7, run); err == nil {
		t.Error("probability > 1 accepted")
	}
	if _, err := Roughness(nil, 7, run); err == nil {
		t.Error("empty probabilities accepted")
	}
}

// TestMicromagneticThermalXOR verifies the paper's §IV-D claim in-repo:
// at 300 K the XOR gate still decodes correctly (single-case smoke: one
// constructive and one destructive input pair).
func TestMicromagneticThermalXOR(t *testing.T) {
	if testing.Short() {
		t.Skip("micromagnetic integration test")
	}
	// SNR engineering: a 1 nm film at 300 K has a large thermal field per
	// cell, so the readout needs a stronger drive (still small-angle) and
	// a longer lock-in window than the noise-free runs.
	m, err := core.NewMicromagnetic(core.XOR, core.WithTemperature(300, 42),
		core.WithDriveField(20e-3), core.WithMeasurePeriods(12))
	if err != nil {
		t.Fatal(err)
	}
	// Raw lock-in output is noise-dominated at 300 K for this film, so
	// use the coherent background-subtracted readout.
	ref, err := CoherentReadout(m, []bool{false, false})
	if err != nil {
		t.Fatal(err)
	}
	diff, err := CoherentReadout(m, []bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []string{"O1", "O2"} {
		ratio := diff[o].Amplitude / ref[o].Amplitude
		if ratio > 0.5 {
			t.Errorf("thermal destructive/constructive at %s = %.3f, want < 0.5", o, ratio)
		}
	}
}

// TestMicromagneticRoughXOR: moderate edge roughness must not break the
// gate (§IV-D, refs [36,43]).
func TestMicromagneticRoughXOR(t *testing.T) {
	if testing.Short() {
		t.Skip("micromagnetic integration test")
	}
	m, err := core.NewMicromagnetic(core.XOR, core.WithRegionMutator(EdgeRoughness(0.15, 11)))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := m.Run([]bool{false, false})
	if err != nil {
		t.Fatal(err)
	}
	diff, err := m.Run([]bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []string{"O1", "O2"} {
		ratio := diff[o].Amplitude / ref[o].Amplitude
		if ratio > 0.5 {
			t.Errorf("rough destructive/constructive at %s = %.3f, want < 0.5", o, ratio)
		}
	}
}

func TestDimensionErrorBehavioral(t *testing.T) {
	// Behavioral runner: inject the phase error on I3's drive directly.
	run := func(phaseError float64) (*core.TruthTable, error) {
		b, err := core.NewBehavioral(core.MAJ3, layout.PaperSpec(), material.FeCoB())
		if err != nil {
			return nil, err
		}
		return core.MajorityTruthTable(&phaseErrBackend{inner: b, err: phaseError})
	}
	res, err := DimensionError([]float64{0, 0.05, 0.1, 0.2}, run)
	if err != nil {
		t.Fatal(err)
	}
	// Small errors keep the gate functional; the margin shrinks
	// monotonically with the error magnitude.
	for i, r := range res {
		if i <= 2 && !r.Correct {
			t.Errorf("error %g·λ broke the gate", r.Param)
		}
		if i > 0 && r.Margin > res[i-1].Margin+1e-9 {
			t.Errorf("margin did not shrink: %g·λ -> %g, prev %g", r.Param, r.Margin, res[i-1].Margin)
		}
	}
	if _, err := DimensionError(nil, run); err == nil {
		t.Error("empty error list accepted")
	}
	if _, err := DimensionError([]float64{0.9}, run); err == nil {
		t.Error("absurd error accepted")
	}
}

// phaseErrBackend wraps a MAJ3 backend, rotating the detected output
// phase whenever I3 differs from the majority path — a cheap behavioral
// stand-in for a trunk-length error, implemented by offsetting the I3
// drive phasor.
type phaseErrBackend struct {
	inner *core.Behavioral
	err   float64
}

func (p *phaseErrBackend) Name() string        { return "behavioral+dimension-error" }
func (p *phaseErrBackend) Kind() core.GateKind { return core.MAJ3 }

func (p *phaseErrBackend) Run(inputs []bool) (map[string]detect.Readout, error) {
	drives := map[string]complex128{
		"I1": phasorDrive(inputs[0], 0),
		"I2": phasorDrive(inputs[1], 0),
		"I3": phasorDrive(inputs[2], p.err),
	}
	out, err := p.inner.Net.Evaluate(drives)
	if err != nil {
		return nil, err
	}
	res := map[string]detect.Readout{}
	for name, v := range out {
		res[name] = detect.Readout{
			Probe:     name,
			Amplitude: math.Hypot(real(v), imag(v)),
			Phase:     math.Atan2(imag(v), real(v)),
		}
	}
	return res, nil
}

func phasorDrive(level bool, phaseOffset float64) complex128 {
	phi := phaseOffset
	if level {
		phi += math.Pi
	}
	return complex(math.Cos(phi), math.Sin(phi))
}

func behavioralXORContextRunner() TableRunnerContext {
	return func(ctx context.Context, spec layout.Spec) (*core.TruthTable, error) {
		b, err := core.NewBehavioral(core.XOR, spec, material.FeCoB())
		if err != nil {
			return nil, err
		}
		return core.XORTruthTableContext(ctx, b, false)
	}
}

func TestWidthSweepEngineMatchesSerial(t *testing.T) {
	scales := []float64{0.7, 0.8, 0.9, 1.0}
	serial, err := WidthContext(context.Background(), nil, layout.PaperSpec(), scales, behavioralXORContextRunner())
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.WithWorkers(4))
	conc, err := WidthContext(context.Background(), eng, layout.PaperSpec(), scales, behavioralXORContextRunner())
	if err != nil {
		t.Fatal(err)
	}
	if len(conc) != len(serial) {
		t.Fatalf("engine sweep returned %d points, serial %d", len(conc), len(serial))
	}
	for i := range conc {
		if conc[i].Param != serial[i].Param || conc[i].Margin != serial[i].Margin ||
			conc[i].Correct != serial[i].Correct {
			t.Fatalf("point %d differs: engine %+v, serial %+v", i, conc[i], serial[i])
		}
	}
}

func TestWidthSweepContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := engine.New(engine.WithWorkers(2))
	_, err := WidthContext(ctx, eng, layout.PaperSpec(), []float64{0.9, 1.0}, behavioralXORContextRunner())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
}
