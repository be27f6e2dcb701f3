package spinwave

import (
	"context"
	"fmt"
	"io"
	"math"

	"spinwave/internal/circuit"
	"spinwave/internal/core"
	"spinwave/internal/dispersion"
	"spinwave/internal/energy"
	"spinwave/internal/ladder"
	"spinwave/internal/layout"
	"spinwave/internal/llg"
	"spinwave/internal/material"
	"spinwave/internal/measure"
	"spinwave/internal/mumax"
	"spinwave/internal/render"
	"spinwave/internal/report"
	"spinwave/internal/units"
)

// Re-exported core types. See the internal packages for full
// documentation of each.
type (
	// Spec parameterizes the triangle gate geometry (paper Figure 3/4).
	Spec = layout.Spec
	// Layout is a gate geometry plus its signal-flow graph.
	Layout = layout.Layout
	// Material holds ferromagnetic film parameters.
	Material = material.Params
	// GateKind identifies a gate structure (MAJ3, MAJ3Single, XOR).
	GateKind = core.GateKind
	// Backend evaluates a gate (behavioral or micromagnetic).
	Backend = core.Backend
	// TruthTable is a full input-space evaluation (paper Tables I/II).
	TruthTable = core.TruthTable
	// CaseResult is one truth-table row.
	CaseResult = core.CaseResult
	// Micromagnetic is the full-simulation backend.
	Micromagnetic = core.Micromagnetic
	// Behavioral is the phasor-network backend.
	Behavioral = core.Behavioral
	// DerivedGate selects (N)AND/(N)OR on the MAJ3 structure (§III-A).
	DerivedGate = core.DerivedGate
	// Table is an aligned text table for reports.
	Table = report.Table
)

// Gate kinds.
const (
	// MAJ3 is the fan-out-of-2 3-input Majority gate (Figure 3).
	MAJ3 = core.MAJ3
	// MAJ3Single is the single-output Majority variant (§III-A).
	MAJ3Single = core.MAJ3Single
	// XOR is the fan-out-of-2 2-input XOR gate (Figure 4).
	XOR = core.XOR
	// MAJ5 is the fan-in-of-5 Majority extension (§III-A).
	MAJ5 = core.MAJ5
)

// Derived gates on the MAJ3 structure.
const (
	// AND pins I3 = 0.
	AND = core.AND
	// OR pins I3 = 1.
	OR = core.OR
	// NAND pins I3 = 0 with inverted detection.
	NAND = core.NAND
	// NOR pins I3 = 1 with inverted detection.
	NOR = core.NOR
)

// Integration schemes for WithScheme.
const (
	// SchemeRK4 is the classical 4th-order Runge–Kutta integrator.
	SchemeRK4 = llg.RK4
	// SchemeHeun is the 2nd-order Heun integrator (faster per step).
	SchemeHeun = llg.Heun
)

// PaperSpec returns the paper's §IV-A dimensions (λ=55 nm, w=50 nm,
// d1..d4 = 330/880/220/55 nm).
func PaperSpec() Spec { return layout.PaperSpec() }

// PaperMicromagSpec is PaperSpec with the single-mode width used by the
// in-repo micromagnetic solver (see DESIGN.md §2).
func PaperMicromagSpec() Spec { return layout.PaperMicromagSpec() }

// ReducedSpec returns a laptop-scale device with the same interference
// design rules (all paths integer multiples of λ).
func ReducedSpec() Spec { return layout.ReducedSpec() }

// FeCoB returns the paper's Fe60Co20B20 material parameters.
func FeCoB() Material { return material.FeCoB() }

// MaterialByName looks up a built-in material preset ("fecob", "yig",
// "permalloy").
func MaterialByName(name string) (Material, error) { return material.ByName(name) }

// Functional options for the backend constructors.
type (
	// BehavioralOption customizes NewBehavioral.
	BehavioralOption = core.BehavioralOption
	// MicromagOption customizes NewMicromagnetic.
	MicromagOption = core.MicromagOption
)

var (
	// WithJunctionLoss sets the behavioral per-junction amplitude
	// transmission factor (default 0.9).
	WithJunctionLoss = core.WithJunctionLoss
	// WithAttenuationLength overrides the behavioral 1/e attenuation
	// length instead of deriving it from the dispersion.
	WithAttenuationLength = core.WithAttenuationLength
	// WithSpec sets the micromagnetic gate geometry (default ReducedSpec).
	WithSpec = core.WithSpec
	// WithMaterial sets the micromagnetic film material (default FeCoB).
	WithMaterial = core.WithMaterial
	// WithScheme selects the LLG integrator (SchemeRK4 or SchemeHeun).
	WithScheme = core.WithScheme
	// WithWorkers runs each transient's LLG stepping kernels on a
	// persistent pool of that many goroutines, banded over mesh rows;
	// trajectories are bit-identical for any worker count.
	WithWorkers = core.WithWorkers
	// WithCellSize sets the square cell edge in meters (default λ/11).
	WithCellSize = core.WithCellSize
	// WithDriveField sets the antenna RF amplitude in Tesla.
	WithDriveField = core.WithDriveField
	// WithTemperature enables the stochastic thermal field.
	WithTemperature = core.WithTemperature
	// WithRegionMutator post-processes the rasterized region (§IV-D).
	WithRegionMutator = core.WithRegionMutator
	// WithI3PhaseTrim sets the I3 drive-phase trim in radians.
	WithI3PhaseTrim = core.WithI3PhaseTrim
	// WithMeasurePeriods sets the lock-in window in drive periods.
	WithMeasurePeriods = core.WithMeasurePeriods
	// WithProbes attaches the in-situ flight recorder to every run
	// (DESIGN.md §11); recorders are published via ProbesFor.
	WithProbes = core.WithProbes
	// WithHealth attaches the numerical health monitor to every run
	// (DESIGN.md §12); reports are published via HealthFor.
	WithHealth = core.WithHealth
	// WithDtScale multiplies the stability-bounded LLG time step
	// (default 1; the reduced tables read wrong from about 4, and far
	// larger values destabilize the integrator).
	WithDtScale = core.WithDtScale
)

// NewBehavioral builds the fast phasor backend for a gate.
func NewBehavioral(kind GateKind, spec Spec, mat Material, opts ...BehavioralOption) (*Behavioral, error) {
	return core.NewBehavioral(kind, spec, mat, opts...)
}

// NewMicromagnetic builds the full-simulation backend for a gate,
// configured by WithSpec/WithMaterial/WithScheme/... options.
func NewMicromagnetic(kind GateKind, opts ...MicromagOption) (*Micromagnetic, error) {
	return core.NewMicromagnetic(kind, opts...)
}

// NewLadderBehavioral builds the ladder-shape baseline backend [22,23].
func NewLadderBehavioral(spec Spec, mat Material) (Backend, error) {
	return ladder.NewBackend(spec, mat)
}

// MajorityTruthTable reproduces Table I on any MAJ3 backend. The cases
// run concurrently on the package default engine; use
// MajorityTruthTableContext for cancellation or a dedicated engine's
// MajorityTable for isolated tuning.
func MajorityTruthTable(b Backend) (*TruthTable, error) {
	return MajorityTruthTableContext(context.Background(), b)
}

// XORTruthTable reproduces Table II on an XOR backend via the default
// engine; inverted gives the XNOR gate.
func XORTruthTable(b Backend, inverted bool) (*TruthTable, error) {
	return XORTruthTableContext(context.Background(), b, inverted)
}

// DerivedTruthTable evaluates (N)AND/(N)OR on a MAJ3 backend (§III-A)
// via the default engine.
func DerivedTruthTable(b Backend, d DerivedGate) (*TruthTable, error) {
	return DerivedTruthTableContext(context.Background(), b, d)
}

// FormatTruthTable renders a truth table in the paper's Table I/II style:
// one row per input case with the normalized output magnetization and
// decoded logic per output.
func FormatTruthTable(tt *TruthTable) string {
	if tt == nil || len(tt.Cases) == 0 {
		return ""
	}
	nIn := len(tt.Cases[0].Inputs)
	caseHeader := "{"
	for i := nIn; i >= 1; i-- {
		caseHeader += fmt.Sprintf("I%d", i)
		if i > 1 {
			caseHeader += ","
		}
	}
	caseHeader += "}"
	headers := []string{caseHeader}
	for _, o := range tt.Cases[0].Outputs {
		headers = append(headers, o.Name+" norm", o.Name+" logic")
	}
	headers = append(headers, "expected", "correct")
	t := report.NewTable(fmt.Sprintf("%s truth table (%s backend, %s detection)", tt.Gate, tt.Backend, tt.Detection), headers...)
	for _, c := range tt.Cases {
		row := []string{report.Bits(c.Inputs)}
		for _, o := range c.Outputs {
			row = append(row, fmt.Sprintf("%.3f", o.Normalized), report.Bool01(o.Logic))
		}
		row = append(row, report.Bool01(c.Expected), fmt.Sprintf("%v", c.Correct))
		t.AddRow(row...)
	}
	return t.String()
}

// TableIII renders the paper's Table III performance comparison.
func TableIII() *Table {
	t := report.NewTable("Table III: performance comparison",
		"design", "technology", "function", "cells", "delay (ns)", "energy (aJ)")
	for _, e := range energy.ComparisonTable() {
		t.AddRow(e.Design, e.Tech, e.Function,
			fmt.Sprintf("%d", e.Cells),
			trimFloat(e.DelayNS), trimFloat(e.EnergyAJ))
	}
	return t
}

// TableIIIRatios renders the derived §IV-D comparison claims next to the
// figures the paper quotes.
func TableIIIRatios() *Table {
	t := report.NewTable("Derived comparison ratios (from Table III values)",
		"claim", "computed", "paper")
	for _, r := range energy.Ratios() {
		t.AddRow(r.Name, fmt.Sprintf("%.1f%s", r.Value, r.Unit), fmt.Sprintf("%g%s", r.PaperVal, r.Unit))
	}
	return t
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}

// Circuit-level re-exports: build larger circuits out of FO2 gates and
// roll up energy/delay/fan-out (see internal/circuit).
type (
	// Netlist is a combinational circuit of spin-wave components.
	Netlist = circuit.Netlist
	// Net is a named signal wire.
	Net = circuit.Net
	// Component is a circuit element with logic and cost.
	Component = circuit.Component
)

// NewNetlist creates an empty circuit with the given primary inputs.
func NewNetlist(name string, primaryInputs ...Net) *Netlist {
	return circuit.NewNetlist(name, primaryInputs...)
}

// Gate component constructors (triangle FO2 family and helpers).
var (
	// MAJ3Gate returns a triangle FO2 Majority circuit component.
	MAJ3Gate = circuit.MAJ3
	// MAJ3SingleGate returns the single-output Majority variant (§III-A).
	MAJ3SingleGate = circuit.MAJ3Single
	// XORGate returns a triangle FO2 XOR circuit component.
	XORGate = circuit.XOR
	// XNORGate returns a triangle FO2 XNOR circuit component.
	XNORGate = circuit.XNOR
	// ANDGate returns the derived AND component (MAJ3, I3=0).
	ANDGate = circuit.AND
	// ORGate returns the derived OR component (MAJ3, I3=1).
	ORGate = circuit.OR
	// RepeaterComponent returns a wave repeater [37].
	RepeaterComponent = func() Component { return circuit.Repeater{} }
	// SplitterComponent returns an n-way directional coupler [36].
	SplitterComponent = func(ways int) Component { return circuit.Splitter{Ways: ways} }
)

// DispersionModel returns the forward-volume dispersion model for a film.
// Mode "full" is the Kalinikos–Slavin expression; "local" matches the
// in-repo solver.
func DispersionModel(mat Material, thickness float64, mode string) (dispersion.Model, error) {
	var m dispersion.Mode
	switch mode {
	case "full":
		m = dispersion.Full
	case "local", "local-demag":
		m = dispersion.LocalDemag
	default:
		return dispersion.Model{}, fmt.Errorf("spinwave: unknown dispersion mode %q (want full or local)", mode)
	}
	return dispersion.New(mat, thickness, m)
}

// MeasuredDispersionPoint is one (f, k) sample extracted from a driven
// micromagnetic strip.
type MeasuredDispersionPoint = measure.DispersionPoint

// MeasureDispersion drives a waveguide strip at each frequency in the
// full solver and extracts the realized wave number and attenuation
// length — the solver-validation experiment of EXPERIMENTS.md.
func MeasureDispersion(mat Material, freqs []float64) ([]MeasuredDispersionPoint, error) {
	return measure.Dispersion(measure.StripConfig{Mat: mat}, freqs)
}

// DriveFrequency returns the drive frequency (Hz) that produces
// wavelength lambda in the in-repo solver for the given material and
// film thickness.
func DriveFrequency(mat Material, thickness, lambda float64) (float64, error) {
	m, err := dispersion.New(mat, thickness, dispersion.LocalDemag)
	if err != nil {
		return 0, err
	}
	return m.FrequencyForWavelength(lambda), nil
}

// RenderSnapshotPNG runs the micromagnetic backend for one input case and
// writes a Figure 5 style blue/white/red PNG of the chosen component
// ("mx", "my", "mz" or "in-plane") to w.
func RenderSnapshotPNG(w io.Writer, m *Micromagnetic, inputs []bool, component string, pixelSize int) error {
	comp, err := parseComponent(component)
	if err != nil {
		return err
	}
	field, mesh, region, err := m.Snapshot(inputs)
	if err != nil {
		return err
	}
	return render.WritePNG(w, mesh, region, field, comp, render.Options{PixelSize: pixelSize})
}

// RenderSnapshotASCII runs the micromagnetic backend for one input case
// and returns a terminal preview of the wave pattern.
func RenderSnapshotASCII(m *Micromagnetic, inputs []bool, component string, maxWidth int) (string, error) {
	comp, err := parseComponent(component)
	if err != nil {
		return "", err
	}
	field, mesh, region, err := m.Snapshot(inputs)
	if err != nil {
		return "", err
	}
	return render.ASCII(mesh, region, field, comp, maxWidth)
}

func parseComponent(component string) (render.Component, error) {
	switch component {
	case "mx", "":
		return render.MX, nil
	case "my":
		return render.MY, nil
	case "mz":
		return render.MZ, nil
	case "in-plane", "amplitude":
		return render.InPlane, nil
	default:
		return 0, fmt.Errorf("spinwave: %w: render component %q", ErrUnknownComponent, component)
	}
}

// MuMaxScript generates a MuMax3 .mx3 program for one gate case so the
// in-Go results can be cross-checked against the paper's simulator.
func MuMaxScript(kind GateKind, spec Spec, mat Material, inputs []bool) (string, error) {
	var l *Layout
	var err error
	switch kind {
	case core.MAJ3:
		l, err = layout.BuildMAJ3(spec, false)
	case core.MAJ3Single:
		l, err = layout.BuildMAJ3(spec, true)
	case core.XOR:
		l, err = layout.BuildXOR(spec)
	case core.MAJ5:
		l, err = layout.BuildMAJ5(spec)
	default:
		return "", fmt.Errorf("spinwave: %w: kind %v", ErrUnknownGate, kind)
	}
	if err != nil {
		return "", err
	}
	names := kind.InputNames()
	if len(inputs) != len(names) {
		return "", fmt.Errorf("spinwave: %w: %s needs %d inputs, got %d", ErrBadInputCount, kind, len(names), len(inputs))
	}
	in := map[string]bool{}
	for i, n := range names {
		in[n] = inputs[i]
	}
	freq, err := DriveFrequency(mat, units.NM(1), spec.Lambda)
	if err != nil {
		return "", err
	}
	return mumax.Script(mumax.ScriptConfig{
		Layout:   l,
		Mat:      mat,
		CellSize: spec.Lambda / 11,
		Freq:     freq,
		B0:       2e-3,
		Duration: 5e-9,
		Inputs:   in,
	})
}

// WaveProfile samples a·sin(kx + φ) over n points of one-or-more
// wavelengths — the Figure 1 illustration of spin-wave parameters
// (wavelength, wave number, phase, amplitude).
func WaveProfile(lambda, amplitude, phase float64, wavelengths float64, n int) ([]float64, []float64, error) {
	if lambda <= 0 || n < 2 || wavelengths <= 0 {
		return nil, nil, fmt.Errorf("spinwave: invalid wave profile parameters")
	}
	k := units.WaveNumber(lambda)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := wavelengths * lambda * float64(i) / float64(n-1)
		xs[i] = x
		ys[i] = amplitude * math.Sin(k*x+phase)
	}
	return xs, ys, nil
}

// Interfere returns the resulting amplitude of two equal-frequency waves
// with the given amplitudes and phases — the Figure 2 constructive/
// destructive interference demonstration in phasor form.
func Interfere(a1, phi1, a2, phi2 float64) (amplitude, phase float64) {
	re := a1*math.Cos(phi1) + a2*math.Cos(phi2)
	im := a1*math.Sin(phi1) + a2*math.Sin(phi2)
	return math.Hypot(re, im), math.Atan2(im, re)
}
