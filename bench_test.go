package spinwave

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see EXPERIMENTS.md for the paper-vs-measured record and
// cmd/swtables, cmd/swfig, cmd/swdisp for the printing front-ends).
//
// The micromagnetic benchmarks run the reduced-scale device (same design
// rules, CI-scale runtime); pass -full to cmd/swtables for paper-scale
// dimensions.

import (
	"io"
	"testing"

	"spinwave/internal/core"
	"spinwave/internal/energy"
	"spinwave/internal/layout"
	"spinwave/internal/llg"
)

// BenchmarkTableI_MajorityFO2_Behavioral regenerates Table I (8 cases,
// both outputs) with the phasor backend.
func BenchmarkTableI_MajorityFO2_Behavioral(b *testing.B) {
	be, err := NewBehavioral(MAJ3, PaperSpec(), FeCoB())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tt, err := MajorityTruthTable(be)
		if err != nil {
			b.Fatal(err)
		}
		if !tt.AllCorrect() {
			b.Fatal("table I incorrect")
		}
	}
}

// BenchmarkTableI_MajorityFO2_Micromagnetic regenerates Table I with the
// full solver on the reduced device (calibration + 9 transient runs).
func BenchmarkTableI_MajorityFO2_Micromagnetic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := NewMicromagnetic(MAJ3)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.CalibrateI3(); err != nil {
			b.Fatal(err)
		}
		tt, err := MajorityTruthTable(m)
		if err != nil {
			b.Fatal(err)
		}
		if !tt.AllCorrect() {
			b.Fatal("micromagnetic table I incorrect")
		}
	}
}

// BenchmarkTableII_XORFO2_Behavioral regenerates Table II (4 cases).
func BenchmarkTableII_XORFO2_Behavioral(b *testing.B) {
	be, err := NewBehavioral(XOR, PaperSpec(), FeCoB())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tt, err := XORTruthTable(be, false)
		if err != nil {
			b.Fatal(err)
		}
		if !tt.AllCorrect() {
			b.Fatal("table II incorrect")
		}
	}
}

// BenchmarkTableII_XORFO2_Micromagnetic regenerates Table II with the
// full solver on the reduced device (5 transient runs).
func BenchmarkTableII_XORFO2_Micromagnetic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := NewMicromagnetic(XOR)
		if err != nil {
			b.Fatal(err)
		}
		tt, err := XORTruthTable(m, false)
		if err != nil {
			b.Fatal(err)
		}
		if !tt.AllCorrect() {
			b.Fatal("micromagnetic table II incorrect")
		}
	}
}

// BenchmarkXORCaseProbeOverhead measures the in-situ probe tax on the
// fused 8-worker stepper (EXPERIMENTS.md E-OBS2): one XOR case with
// probes off, at the default cadence, and at stride 1. The budget is
// ≤3% at the default cadence.
func BenchmarkXORCaseProbeOverhead(b *testing.B) {
	for _, bc := range []struct {
		name   string
		probes ProbeConfig
	}{
		{"off", ProbeConfig{}},
		{"default", ProbeConfig{Enabled: true}},
		{"stride1", ProbeConfig{Enabled: true, Stride: 1}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m, err := NewMicromagnetic(XOR, WithWorkers(8), WithProbes(bc.probes))
			if err != nil {
				b.Fatal(err)
			}
			in := []bool{true, false}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Run(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableIII_Performance regenerates Table III and the derived
// §IV-D ratios.
func BenchmarkTableIII_Performance(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab := energy.ComparisonTable()
		ratios := energy.Ratios()
		if len(tab) != 8 || len(ratios) == 0 {
			b.Fatal("table III malformed")
		}
	}
}

// BenchmarkFigure1_WaveParameters regenerates the Figure 1 wave-parameter
// series (φ=0, k=1 and φ=π, k=3 profiles).
func BenchmarkFigure1_WaveParameters(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := WaveProfile(55e-9, 1, 0, 1, 256); err != nil {
			b.Fatal(err)
		}
		if _, _, err := WaveProfile(55e-9/3, 1, 3.14159265358979, 3, 256); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2_Interference regenerates the Figure 2 constructive/
// destructive interference demonstration in phasor form.
func BenchmarkFigure2_Interference(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, _ := Interfere(1, 0, 1, 0)
		d, _ := Interfere(1, 0, 1, 3.14159265358979)
		if c < 1.9 || d > 0.1 {
			b.Fatal("interference wrong")
		}
	}
}

// BenchmarkFigure3_4_GateLayouts regenerates the Figure 3 (MAJ3) and
// Figure 4 (XOR) geometries with the paper's dimensions and rasterizes
// them.
func BenchmarkFigure3_4_GateLayouts(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		maj, err := layout.BuildMAJ3(PaperSpec(), false)
		if err != nil {
			b.Fatal(err)
		}
		xor, err := layout.BuildXOR(PaperSpec())
		if err != nil {
			b.Fatal(err)
		}
		mesh, err := maj.Mesh(5e-9, 1e-9)
		if err != nil {
			b.Fatal(err)
		}
		if maj.Rasterize(mesh).Count() == 0 {
			b.Fatal("empty rasterization")
		}
		_ = xor
	}
}

// BenchmarkFigure5_Snapshots regenerates the Figure 5 panels: one
// micromagnetic snapshot per MAJ3 input pattern, rendered as PNG.
func BenchmarkFigure5_Snapshots(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := NewMicromagnetic(MAJ3)
		if err != nil {
			b.Fatal(err)
		}
		for _, in := range core.EnumerateInputs(3) {
			if err := RenderSnapshotPNG(io.Discard, m, in, "mx", 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDerivedGates_Behavioral covers the §III-A derived (N)AND and
// (N)OR gates.
func BenchmarkDerivedGates_Behavioral(b *testing.B) {
	be, err := NewBehavioral(MAJ3, PaperSpec(), FeCoB())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, d := range []DerivedGate{AND, OR, NAND, NOR} {
			tt, err := DerivedTruthTable(be, d)
			if err != nil {
				b.Fatal(err)
			}
			if !tt.AllCorrect() {
				b.Fatalf("derived %v incorrect", d)
			}
		}
	}
}

// BenchmarkLadderBaseline evaluates the ladder-shape baseline's truth
// table (the [22,23] comparator of Table III).
func BenchmarkLadderBaseline(b *testing.B) {
	be, err := NewLadderBehavioral(PaperSpec(), FeCoB())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tt, err := MajorityTruthTable(be)
		if err != nil {
			b.Fatal(err)
		}
		if !tt.AllCorrect() {
			b.Fatal("ladder incorrect")
		}
	}
}

// BenchmarkMuMaxScriptGeneration measures the MuMax3 export path.
func BenchmarkMuMaxScriptGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MuMaxScript(MAJ3, PaperSpec(), FeCoB(), []bool{false, true, true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_SchemeRK4vsHeun compares the integrator cost on one
// XOR case (design-choice ablation: RK4 default vs Heun).
func BenchmarkAblation_SchemeRK4vsHeun(b *testing.B) {
	for _, scheme := range []struct {
		name string
		s    llg.Scheme
	}{{"rk4", SchemeRK4}, {"heun", SchemeHeun}} {
		b.Run(scheme.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := NewMicromagnetic(XOR, WithScheme(scheme.s))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.Run([]bool{false, false}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
