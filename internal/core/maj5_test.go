package core

import (
	"testing"

	"spinwave/internal/detect"
	"spinwave/internal/layout"
	"spinwave/internal/material"
)

func TestMAJ5KindHelpers(t *testing.T) {
	if MAJ5.NumInputs() != 5 {
		t.Errorf("NumInputs = %d", MAJ5.NumInputs())
	}
	names := MAJ5.InputNames()
	if len(names) != 5 || names[4] != "I5" {
		t.Errorf("InputNames = %v", names)
	}
	if MAJ5.String() != "maj5-fo2" {
		t.Errorf("String = %s", MAJ5.String())
	}
}

// TestBehavioralMAJ5TruthTable: the §III-A fan-in extension computes a
// 5-input majority with fan-out of 2 — all 32 cases by phase detection.
func TestBehavioralMAJ5TruthTable(t *testing.T) {
	b, err := NewBehavioral(MAJ5, layout.PaperSpec(), material.FeCoB())
	if err != nil {
		t.Fatal(err)
	}
	tt, err := MajorityTruthTable(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(tt.Cases) != 32 {
		t.Fatalf("cases = %d, want 32", len(tt.Cases))
	}
	if !tt.AllCorrect() {
		for _, c := range tt.Cases {
			if !c.Correct {
				t.Errorf("case %v: %+v", c.Inputs, c.Outputs)
			}
		}
	}
	if d := tt.FanOutMatched(); d > 1e-9 {
		t.Errorf("fan-out mismatch %g", d)
	}
}

func TestMAJ5LayoutPaths(t *testing.T) {
	l, err := layout.BuildMAJ5(layout.PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(l.Inputs()); got != 5 {
		t.Fatalf("inputs = %d", got)
	}
	for _, in := range []string{"I4", "I5"} {
		n, err := l.PathLengthInLambda(in, "X")
		if err != nil {
			t.Fatal(err)
		}
		if n != float64(layout.PaperSpec().D1N) {
			t.Errorf("%s arm = %gλ", in, n)
		}
	}
	// Steep merge angles are rejected.
	s := layout.PaperSpec()
	s.MergeDeg = 40
	if _, err := layout.BuildMAJ5(s); err == nil {
		t.Error("MAJ5 with 40° half-angle accepted (2θ > 60°)")
	}
}

// TestMicromagneticMAJ5Cases runs a representative subset of MAJ5 cases
// in the full solver: unanimity and one 3-2 split per polarity.
func TestMicromagneticMAJ5Cases(t *testing.T) {
	if testing.Short() {
		t.Skip("micromagnetic integration test")
	}
	m, err := NewMicromagnetic(MAJ5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CalibrateI3(); err != nil {
		t.Fatal(err)
	}
	ref, err := m.Run(make([]bool, 5))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		in   []bool
		want bool
	}{
		{[]bool{true, true, true, true, true}, true},
		// 3-2 splits with the data arms disagreeing.
		{[]bool{true, true, true, false, false}, true},
		{[]bool{false, false, false, true, true}, false},
	}
	for _, c := range cases {
		out, err := m.Run(c.in)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"O1", "O2"} {
			det := detect.PhaseDetector{RefPhase: ref[name].Phase}
			if got := det.Detect(out[name]); got != c.want {
				t.Errorf("MAJ5%v at %s = %v, want %v (Δφ from ref %.2f)",
					c.in, name, got, c.want, out[name].Phase-ref[name].Phase)
			}
		}
	}
}
