package llg_test

import (
	"math"
	"testing"

	"spinwave/internal/llg"
	"spinwave/internal/llg/llgref"
	"spinwave/internal/vec"
)

// maxDiff is the largest per-cell |Δm| between two magnetizations.
func maxDiff(a, b vec.Field) float64 {
	worst := 0.0
	for c := range a {
		if d := a[c].Sub(b[c]).Norm(); d > worst {
			worst = d
		}
	}
	return worst
}

// TestFusedMatchesReference compares the fused core against the
// term-by-term llgref oracle on a driven, damped run with every source
// kind. The two reorder floating-point operations (fused field assembly,
// register-held last slope), so agreement is to round-off, not
// bit-exact — but after 40 steps the trajectories must still be
// extremely close.
func TestFusedMatchesReference(t *testing.T) {
	fused := llg.ParallelTestSolver(t, 1)
	ref := llg.ParallelTestSolver(t, 1)
	oracle := llgref.New(ref, nil)
	for step := 0; step < 40; step++ {
		fused.Step()
		oracle.Step()
	}
	if worst := maxDiff(fused.M, ref.M); worst > 1e-10 {
		t.Errorf("fused vs reference max |Δm| = %g, want <= 1e-10", worst)
	}
	if math.Abs(fused.Time-ref.Time) > 1e-25 {
		t.Error("time diverged")
	}
}
