package core

// §III-A output inversion: "if the desired output has to give logic
// inversion then d4 must be (n+1/2)λ". These tests verify the rule both
// behaviorally (exact half-turn phasor rotation) and in the full solver
// (detected phase flips by ≈π relative to the nλ build).

import (
	"math"
	"testing"

	"spinwave/internal/dsp"
	"spinwave/internal/layout"
	"spinwave/internal/material"
)

func TestHalfWaveOutputSpec(t *testing.T) {
	s := layout.PaperSpec()
	base := s.D4()
	s.OutputHalfWave = true
	if got := s.D4() - base; math.Abs(got-s.Lambda/2) > 1e-15 {
		t.Errorf("half-wave stub extension = %g, want λ/2", got)
	}
}

func TestBehavioralHalfWaveInvertsPhase(t *testing.T) {
	normal, err := NewBehavioral(MAJ3, layout.PaperSpec(), material.FeCoB())
	if err != nil {
		t.Fatal(err)
	}
	invSpec := layout.PaperSpec()
	invSpec.OutputHalfWave = true
	inverted, err := NewBehavioral(MAJ3, invSpec, material.FeCoB())
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range [][]bool{{false, false, false}, {true, true, false}} {
		a, err := normal.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		b, err := inverted.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range []string{"O1", "O2"} {
			d := math.Abs(dsp.PhaseDiff(b[o].Phase, a[o].Phase))
			if math.Abs(d-math.Pi) > 1e-9 {
				t.Errorf("case %v %s: phase shift %g, want π", in, o, d)
			}
			// The extra λ/2 of guide adds only its attenuation (≈0.8%).
			if math.Abs(a[o].Amplitude-b[o].Amplitude) > 0.02*a[o].Amplitude {
				t.Errorf("case %v %s: amplitude changed %g -> %g", in, o, a[o].Amplitude, b[o].Amplitude)
			}
		}
	}
}

// TestBehavioralHalfWaveGivesNMAJ: with inverted outputs, phase detection
// against the structure's own all-zeros case yields MAJ again (the
// reference flips too) — so the inverting detector must compare against
// the NON-inverting structure's reference, exactly like a downstream gate
// calibrated for the normal polarity would. Decoding the inverted
// structure with the normal reference yields NOT-MAJ for every case.
func TestBehavioralHalfWaveGivesNMAJ(t *testing.T) {
	normal, err := NewBehavioral(MAJ3, layout.PaperSpec(), material.FeCoB())
	if err != nil {
		t.Fatal(err)
	}
	invSpec := layout.PaperSpec()
	invSpec.OutputHalfWave = true
	inverted, err := NewBehavioral(MAJ3, invSpec, material.FeCoB())
	if err != nil {
		t.Fatal(err)
	}
	refOut, err := normal.Run([]bool{false, false, false})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range EnumerateInputs(3) {
		res, err := inverted.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		want := !MajorityExpected(in)
		for _, o := range []string{"O1", "O2"} {
			d := math.Abs(dsp.PhaseDiff(res[o].Phase, refOut[o].Phase))
			got := d > math.Pi/2
			if got != want {
				t.Errorf("NMAJ%v at %s = %v, want %v", in, o, got, want)
			}
		}
	}
}

func TestMicromagneticHalfWaveInvertsPhase(t *testing.T) {
	if testing.Short() {
		t.Skip("micromagnetic integration test")
	}
	normal, err := NewMicromagnetic(MAJ3)
	if err != nil {
		t.Fatal(err)
	}
	invSpec := layout.ReducedSpec()
	invSpec.OutputHalfWave = true
	inverted, err := NewMicromagnetic(MAJ3, WithSpec(invSpec))
	if err != nil {
		t.Fatal(err)
	}
	a, err := normal.Run([]bool{false, false, false})
	if err != nil {
		t.Fatal(err)
	}
	b, err := inverted.Run([]bool{false, false, false})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []string{"O1", "O2"} {
		d := math.Abs(dsp.PhaseDiff(b[o].Phase, a[o].Phase))
		// Rasterization quantizes the λ/2 extension; allow ±0.6 rad.
		if math.Abs(d-math.Pi) > 0.6 {
			t.Errorf("%s: inverted-output phase shift %.2f rad, want ≈π", o, d)
		}
	}
}
