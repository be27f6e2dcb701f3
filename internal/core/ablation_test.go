package core

// Ablation experiments for the design choices DESIGN.md calls out: the
// single-mode waveguide width and the interference body are what make the
// XOR's destructive case actually destructive. Running the same gate
// with the paper's 50 nm width — which in the solver's exchange-only
// dispersion supports a second (antisymmetric) width mode — must degrade
// the contrast, which is why PaperMicromagSpec/ReducedSpec narrow the
// guide to 0.45·λ (DESIGN.md §2).

import (
	"testing"

	"spinwave/internal/layout"
)

// destructiveRatio runs the XOR {0,0} and {1,0} cases and returns
// destructive/constructive at O1.
func destructiveRatio(t *testing.T, spec layout.Spec) float64 {
	t.Helper()
	m, err := NewMicromagnetic(XOR, WithSpec(spec))
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
	return diff["O1"].Amplitude / ref["O1"].Amplitude
}

func TestAblationSingleModeWidth(t *testing.T) {
	if testing.Short() {
		t.Skip("micromagnetic integration test")
	}
	single := destructiveRatio(t, layout.ReducedSpec())

	multi := layout.ReducedSpec()
	multi.Width = layout.PaperSpec().Width // 50 nm: multimode in this solver
	multiRatio := destructiveRatio(t, multi)

	t.Logf("destructive/constructive: single-mode %.3f, multimode %.3f", single, multiRatio)
	if single > 0.15 {
		t.Errorf("single-mode contrast degraded: ratio %.3f", single)
	}
	if multiRatio < 2*single {
		t.Errorf("ablation did not show the effect: multimode %.3f vs single-mode %.3f",
			multiRatio, single)
	}
}

func TestMergeAngleRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("micromagnetic integration test")
	}
	// The merge half-angle is a free design parameter: the XOR must keep
	// its interference contrast from a shallow 20° merge up to a 45°
	// textbook Y-junction (the mode filtering comes from the single-mode
	// body, not from the angle).
	for _, deg := range []float64{20, 45} {
		spec := layout.ReducedSpec()
		spec.MergeDeg = deg
		ratio := destructiveRatio(t, spec)
		t.Logf("merge %v°: destructive/constructive = %.3f", deg, ratio)
		if ratio > 0.2 {
			t.Errorf("merge %v°: XOR contrast lost (ratio %.3f)", deg, ratio)
		}
	}
}

// TestAblationMAJBalance measures the body-path vs trunk-path amplitude
// balance that the Majority gate's 2-vs-1 cases depend on: the combined
// I1+I2 (body) wave must dominate the single I3 (trunk) wave at the
// outputs. This is the quantity the junction design controls (it failed
// at 4.3x the other way in an early 45°/no-body reconstruction).
func TestAblationMAJBalance(t *testing.T) {
	if testing.Short() {
		t.Skip("micromagnetic integration test")
	}
	m, err := NewMicromagnetic(MAJ3)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := m.RunSingle("I1")
	if err != nil {
		t.Fatal(err)
	}
	r3, err := m.RunSingle("I3")
	if err != nil {
		t.Fatal(err)
	}
	// Two coherent data inputs deliver 2·a(I1); majority needs
	// 2·a(I1) > a(I3) with margin.
	balance := 2 * r1["O1"].Amplitude / r3["O1"].Amplitude
	t.Logf("body/trunk balance 2·a(I1)/a(I3) = %.2f", balance)
	if balance < 1.2 {
		t.Errorf("body wave too weak for robust majority: balance %.2f", balance)
	}
}
