package core

import (
	"math"
	"testing"

	"spinwave/internal/layout"
	"spinwave/internal/material"
)

func reducedMicromag(t *testing.T, kind GateKind) *Micromagnetic {
	t.Helper()
	m, err := NewMicromagnetic(kind)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMicromagneticValidation(t *testing.T) {
	if _, err := NewMicromagnetic(MAJ3, WithSpec(layout.Spec{})); err == nil {
		t.Error("invalid spec accepted")
	}
	if _, err := NewMicromagnetic(MAJ3, WithMaterial(material.Params{})); err == nil {
		t.Error("invalid material accepted")
	}
	// Permalloy has no PMA: forward-volume configuration impossible.
	if _, err := NewMicromagnetic(MAJ3, WithMaterial(material.Permalloy())); err == nil {
		t.Error("in-plane material accepted")
	}
}

func TestMicromagneticSetup(t *testing.T) {
	m := reducedMicromag(t, MAJ3)
	if m.Name() != "micromagnetic" || m.Kind() != MAJ3 {
		t.Error("identity wrong")
	}
	if m.Region.Count() == 0 {
		t.Error("empty region")
	}
	// Drive frequency must be in the design window and the duration must
	// cover ramp + travel + measurement.
	if g := m.Freq / 1e9; g < 8 || g > 25 {
		t.Errorf("drive frequency %g GHz implausible", g)
	}
	if m.Duration() < 0.5e-9 || m.Duration() > 20e-9 {
		t.Errorf("duration %g s implausible", m.Duration())
	}
	if m.Dt() <= 0 || m.Dt() > 1e-12 {
		t.Errorf("dt %g implausible", m.Dt())
	}
}

func TestMicromagneticRunValidation(t *testing.T) {
	m := reducedMicromag(t, XOR)
	if _, err := m.Run([]bool{true}); err == nil {
		t.Error("wrong input count accepted")
	}
	if _, err := m.RunSingle("I9"); err == nil {
		t.Error("unknown single input accepted")
	}
	if _, err := m.CalibrateI3(); err == nil {
		t.Error("XOR I3 calibration accepted")
	}
}

// TestMicromagneticXORTruthTable reproduces Table II on the reduced
// device: equal inputs ≈ 1 normalized magnetization, unequal ≈ 0, with
// O1 ≈ O2 (fan-out of 2).
func TestMicromagneticXORTruthTable(t *testing.T) {
	if testing.Short() {
		t.Skip("micromagnetic integration test")
	}
	m := reducedMicromag(t, XOR)
	tt, err := XORTruthTable(m, false)
	if err != nil {
		t.Fatal(err)
	}
	if !tt.AllCorrect() {
		for _, c := range tt.Cases {
			t.Logf("case %v: %+v", c.Inputs, c.Outputs)
		}
		t.Error("XOR truth table incorrect")
	}
	if d := tt.FanOutMatched(); d > 0.05 {
		t.Errorf("fan-out mismatch %g > 0.05", d)
	}
	for _, c := range tt.Cases {
		for _, o := range c.Outputs {
			if c.Inputs[0] == c.Inputs[1] && math.Abs(o.Normalized-1) > 0.1 {
				t.Errorf("equal case %v normalized %g, want ≈1", c.Inputs, o.Normalized)
			}
			if c.Inputs[0] != c.Inputs[1] && o.Normalized > 0.3 {
				t.Errorf("unequal case %v normalized %g, want ≈0", c.Inputs, o.Normalized)
			}
		}
	}
}

// TestMicromagneticMajorityTruthTable reproduces Table I on the reduced
// device after the I3 path calibration.
func TestMicromagneticMajorityTruthTable(t *testing.T) {
	if testing.Short() {
		t.Skip("micromagnetic integration test")
	}
	m := reducedMicromag(t, MAJ3)
	trim, err := m.CalibrateI3()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(trim) > math.Pi {
		t.Errorf("trim %g out of range", trim)
	}
	tt, err := MajorityTruthTable(m)
	if err != nil {
		t.Fatal(err)
	}
	if !tt.AllCorrect() {
		for _, c := range tt.Cases {
			t.Logf("case %v correct=%v: %+v", c.Inputs, c.Correct, c.Outputs)
		}
		t.Fatal("majority truth table incorrect")
	}
	// FO2 equivalence (paper Table I: O1 and O2 agree to ≤ 0.001; allow
	// a little more on the reduced device).
	if d := tt.FanOutMatched(); d > 0.02 {
		t.Errorf("fan-out mismatch %g > 0.02", d)
	}
	// Table I shape: unanimous ≈ 1, the I1=I2≠I3 rows well below 0.5.
	for _, c := range tt.Cases {
		unanimous := c.Inputs[0] == c.Inputs[1] && c.Inputs[1] == c.Inputs[2]
		twoOne := c.Inputs[0] == c.Inputs[1] && c.Inputs[2] != c.Inputs[0]
		for _, o := range c.Outputs {
			if unanimous && math.Abs(o.Normalized-1) > 0.1 {
				t.Errorf("unanimous %v normalized %g", c.Inputs, o.Normalized)
			}
			if twoOne && o.Normalized > 0.4 {
				t.Errorf("2-1 case %v normalized %g", c.Inputs, o.Normalized)
			}
		}
	}
}

// TestCalibrateI3RefreshesFingerprint pins the cached fingerprint: after
// CalibrateI3 changes the trim, the backend must key the cache exactly
// like a fresh backend built with that trim, not like its untrimmed self.
func TestCalibrateI3RefreshesFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("micromagnetic integration test")
	}
	m := reducedMicromag(t, MAJ3)
	before, _ := m.Fingerprint()
	trim, err := m.CalibrateI3()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewMicromagnetic(MAJ3, WithI3PhaseTrim(trim))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := m.Fingerprint()
	want, _ := fresh.Fingerprint()
	if !ok || got != want {
		t.Fatalf("calibrated fingerprint %q (ok=%v), fresh backend with trim %g: %q", got, ok, trim, want)
	}
	if trim != 0 && got == before {
		t.Fatal("fingerprint did not change with the trim")
	}
}

func TestMicromagneticSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("micromagnetic integration test")
	}
	m := reducedMicromag(t, XOR)
	field, mesh, region, err := m.Snapshot([]bool{false, false})
	if err != nil {
		t.Fatal(err)
	}
	if len(field) != mesh.NCells() || len(region) != mesh.NCells() {
		t.Fatal("snapshot shapes wrong")
	}
	// The driven structure must show in-plane precession somewhere.
	maxInPlane := 0.0
	for i, on := range region {
		if on {
			a := math.Hypot(field[i].X, field[i].Y)
			if a > maxInPlane {
				maxInPlane = a
			}
		}
	}
	if maxInPlane < 1e-5 {
		t.Errorf("snapshot shows no wave: max in-plane %g", maxInPlane)
	}
}

func TestMicromagConfigDefaults(t *testing.T) {
	cfg := micromagConfig{Spec: layout.ReducedSpec(), Mat: material.FeCoB()}.withDefaults()
	if cfg.CellSize != layout.ReducedSpec().Lambda/11 {
		t.Errorf("CellSize default = %g", cfg.CellSize)
	}
	if cfg.DriveField != 2e-3 || cfg.MeasurePeriods != 4 || cfg.DtScale != 1 {
		t.Errorf("drive defaults wrong: %+v", cfg)
	}
	// Explicit values survive.
	c2 := micromagConfig{Spec: layout.ReducedSpec(), Mat: material.FeCoB(), DriveField: 7e-3}.withDefaults()
	if c2.DriveField != 7e-3 {
		t.Errorf("explicit drive overridden: %g", c2.DriveField)
	}
}

// TestMicromagFingerprintPinned pins the default XOR and MAJ3 micromag
// fingerprints to their values from before the reference-stepper switch
// left the micromag config: the canonical string keeps its frozen "ref=false",
// so no disk store, checkpoint manifest or history record is re-keyed.
func TestMicromagFingerprintPinned(t *testing.T) {
	for _, tc := range []struct {
		kind GateKind
		want string
	}{
		{XOR, "98dbf3b4f066c6f07ff023d15fefddfa"},
		{MAJ3, "a272afd6903eab8d779a45da4abde73e"},
	} {
		m, err := NewMicromagnetic(tc.kind)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := m.Fingerprint(); !ok || got != tc.want {
			t.Errorf("%v fingerprint = %q (ok=%v), want %q", tc.kind, got, ok, tc.want)
		}
	}
}
