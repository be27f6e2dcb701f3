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
// bit-exact — but after 40 fixed steps, or an adaptive RK23 run, the
// trajectories must still be extremely close, and the adaptive
// controllers must take the same accept/reject decisions.
func TestFusedMatchesReference(t *testing.T) {
	for _, scheme := range []llg.Scheme{llg.RK4, llg.Heun} {
		fused := llg.ParallelTestSolver(t, 1, scheme)
		ref := llg.ParallelTestSolver(t, 1, scheme)
		oracle := llgref.New(ref, nil)
		for step := 0; step < 40; step++ {
			fused.Step()
			oracle.Step()
		}
		if worst := maxDiff(fused.M, ref.M); worst > 1e-10 {
			t.Errorf("%v: fused vs reference max |Δm| = %g, want <= 1e-10", scheme, worst)
		}
		if math.Abs(fused.Time-ref.Time) > 1e-25 {
			t.Errorf("%v: time diverged", scheme)
		}
	}

	t.Run("RK23", func(t *testing.T) {
		fused := llg.ParallelTestSolver(t, 1, llg.RK4)
		ref := llg.ParallelTestSolver(t, 1, llg.RK4)
		end := 30 * fused.Dt
		cfg := llg.AdaptiveConfig{}
		fa, fr, err := fused.RunAdaptiveUntil(end, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		ra, rr, err := llgref.New(ref, nil).RunAdaptiveUntil(end, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fa != ra || fr != rr {
			t.Fatalf("accepted/rejected: fused %d/%d, reference %d/%d", fa, fr, ra, rr)
		}
		if fr == 0 {
			t.Errorf("no rejected step: the run does not exercise the reject path")
		}
		if fused.Dt != ref.Dt || fused.Time != ref.Time {
			t.Errorf("final dt/time: fused %g/%g, reference %g/%g", fused.Dt, fused.Time, ref.Dt, ref.Time)
		}
		if worst := maxDiff(fused.M, ref.M); worst > 1e-10 {
			t.Errorf("fused vs reference max |Δm| = %g, want <= 1e-10", worst)
		}
		t.Logf("RK23: %d accepted, %d rejected, final dt %g", fa, fr, fused.Dt)
	})
}
