package llg

import (
	"math"
	"testing"

	"spinwave/internal/grid"
	"spinwave/internal/material"
	"spinwave/internal/units"
	"spinwave/internal/vec"
)

// singleSpin builds a 1-cell solver with only a uniform bias field along z
// (all local field terms disabled), so the dynamics are pure Larmor
// precession at f = γ·B/2π.
func singleSpin(t *testing.T, bz, alpha, dt float64) *Solver {
	t.Helper()
	mesh := grid.MustMesh(1, 1, 1e-9, 1e-9, 1e-9)
	mat := material.FeCoB()
	mat.Alpha = alpha
	s, err := New(mesh, grid.FullRegion(mesh), mat, dt)
	if err != nil {
		t.Fatal(err)
	}
	s.Eval.DisableExchange = true
	s.Eval.DisableAnisotropy = true
	s.Eval.DisableDemag = true
	s.Eval.Coeffs.BBias = vec.V(0, 0, bz)
	return s
}

func TestNewValidation(t *testing.T) {
	mesh := grid.MustMesh(2, 2, 1e-9, 1e-9, 1e-9)
	if _, err := New(mesh, grid.FullRegion(mesh), material.FeCoB(), 0); err == nil {
		t.Error("zero dt accepted")
	}
	if _, err := New(mesh, make(grid.Region, 1), material.FeCoB(), 1e-13); err == nil {
		t.Error("bad region accepted")
	}
}

func TestLarmorFrequency(t *testing.T) {
	// B = 0.5 T → f = γB/2π ≈ 14.0 GHz. Count zero crossings of mx over
	// 2 ns and compare.
	bz := 0.5
	dt := 50e-15
	s := singleSpin(t, bz, 0, dt)
	s.TiltM(0.1)

	var prev float64
	crossings := 0
	first := true
	s.Run(2e-9, func(step int) bool {
		mx := s.M[0].X
		if !first && prev < 0 && mx >= 0 {
			crossings++
		}
		prev = mx
		first = false
		return true
	})
	fWant := s.Gamma * bz / (2 * math.Pi)
	fGot := float64(crossings) / 2e-9
	if math.Abs(fGot-fWant) > 0.02*fWant {
		t.Errorf("Larmor f = %.4g Hz, want %.4g", fGot, fWant)
	}
}

func TestZeroDampingConservesMz(t *testing.T) {
	s := singleSpin(t, 0.3, 0, 100e-15)
	s.TiltM(0.2)
	mz0 := s.M[0].Z
	s.Run(1e-9, nil)
	if err := s.CheckFinite(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.M[0].Z-mz0) > 1e-6 {
		t.Errorf("mz drifted from %g to %g with α=0", mz0, s.M[0].Z)
	}
	if math.Abs(s.M[0].Norm()-1) > 1e-9 {
		t.Errorf("|m| = %g, want 1", s.M[0].Norm())
	}
}

func TestDampingRelaxesToFieldAxis(t *testing.T) {
	s := singleSpin(t, 0.5, 0.1, 100e-15)
	s.TiltM(1.0) // large tilt
	mzPrev := s.M[0].Z
	monotone := true
	s.Run(3e-9, func(step int) bool {
		if step%100 == 0 {
			if s.M[0].Z < mzPrev-1e-9 {
				monotone = false
			}
			mzPrev = s.M[0].Z
		}
		return true
	})
	if !monotone {
		t.Error("mz did not increase monotonically under damping")
	}
	if s.M[0].Z < 0.999 {
		t.Errorf("mz = %g after relaxation, want ≈1", s.M[0].Z)
	}
}

func TestExchangeAlignsNeighbors(t *testing.T) {
	mesh := grid.MustMesh(2, 1, 2e-9, 2e-9, 1e-9)
	mat := material.FeCoB()
	mat.Alpha = 0.5 // fast relaxation
	s, err := New(mesh, grid.FullRegion(mesh), mat, StableDt(mesh, mat))
	if err != nil {
		t.Fatal(err)
	}
	// Start nearly orthogonal: strong exchange + anisotropy should align
	// both spins along +z.
	s.M[0] = vec.UnitZ
	s.M[1] = vec.V(1, 0, 0.2).Normalized()
	s.Run(2e-9, nil)
	if err := s.CheckFinite(); err != nil {
		t.Fatal(err)
	}
	if s.M[0].Dot(s.M[1]) < 0.999 {
		t.Errorf("spins not aligned: m0=%v m1=%v", s.M[0], s.M[1])
	}
	if s.M[0].Z < 0.99 {
		t.Errorf("spins not along easy axis: %v", s.M[0])
	}
}

func TestStableDtScalesWithCellSize(t *testing.T) {
	mat := material.FeCoB()
	coarse := StableDt(grid.MustMesh(4, 4, 10e-9, 10e-9, 1e-9), mat)
	fine := StableDt(grid.MustMesh(4, 4, 2e-9, 2e-9, 1e-9), mat)
	if fine >= coarse {
		t.Errorf("StableDt did not shrink with cell size: %g vs %g", fine, coarse)
	}
	// For the paper's defaults (5 nm cells) the step should be in the
	// 0.05–1 ps window that makes runs tractable.
	dt := StableDt(grid.MustMesh(4, 4, 5e-9, 5e-9, 1e-9), mat)
	if dt < 0.05e-12 || dt > 1e-12 {
		t.Errorf("StableDt(5 nm) = %g s, outside expected window", dt)
	}
}

func TestSetAlphaProfileAndAbsorber(t *testing.T) {
	mesh := grid.MustMesh(10, 1, 5e-9, 5e-9, 1e-9)
	mat := material.FeCoB()
	s, err := New(mesh, grid.FullRegion(mesh), mat, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	s.SetAlphaProfile(func(i, j int) float64 { return 0.01 * float64(i+1) })
	if s.Alpha[0] != 0.01 || math.Abs(s.Alpha[9]-0.1) > 1e-12 {
		t.Errorf("alpha profile = %v", s.Alpha)
	}
	// Absorber at the right end raises damping there, not at the left.
	s.SetAlphaProfile(func(i, j int) float64 { return mat.Alpha })
	endX, endY := mesh.CellCenter(9, 0)
	s.AddAbsorberTowards(endX, endY, 20e-9, 0.5)
	if s.Alpha[9] < 0.4 {
		t.Errorf("absorber end alpha = %g, want near 0.5", s.Alpha[9])
	}
	if s.Alpha[0] != mat.Alpha {
		t.Errorf("absorber leaked to far end: %g", s.Alpha[0])
	}
	// Monotone decrease away from the absorber point.
	for i := 1; i < 10; i++ {
		if s.Alpha[i] < s.Alpha[i-1]-1e-12 {
			t.Errorf("absorber profile not monotone at %d: %v", i, s.Alpha)
		}
	}
}

func TestRunEarlyStop(t *testing.T) {
	s := singleSpin(t, 0.1, 0, 1e-13)
	count := 0
	s.Run(1e-9, func(step int) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop ran %d steps", count)
	}
	if s.Steps() != 5 {
		t.Errorf("Steps() = %d", s.Steps())
	}
}

func TestEnergyDissipationUnderDamping(t *testing.T) {
	// A tilted uniform state in the full FeCoB film must lose energy
	// monotonically (Lyapunov property of LLG with damping, no drive).
	mesh := grid.MustMesh(8, 4, 5e-9, 5e-9, 1e-9)
	mat := material.FeCoB()
	mat.Alpha = 0.05
	s, err := New(mesh, grid.FullRegion(mesh), mat, StableDt(mesh, mat))
	if err != nil {
		t.Fatal(err)
	}
	s.TiltM(0.5)
	prev := s.Eval.Energy(s.M)
	for k := 0; k < 20; k++ {
		s.Run(20e-12, nil)
		e := s.Eval.Energy(s.M)
		if e > prev+1e-25 {
			t.Fatalf("energy increased: %g -> %g at block %d", prev, e, k)
		}
		prev = e
	}
}

func TestSetUniformMRespectsRegion(t *testing.T) {
	mesh := grid.MustMesh(2, 1, 1e-9, 1e-9, 1e-9)
	reg := grid.Region{true, false}
	s, err := New(mesh, reg, material.FeCoB(), 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	s.SetUniformM(vec.V(0, 0, 2))
	if s.M[0] != vec.UnitZ {
		t.Errorf("region cell m = %v", s.M[0])
	}
	if s.M[1] != vec.Zero {
		t.Errorf("vacuum cell m = %v", s.M[1])
	}
}

var benchSink float64

func BenchmarkStepRK4_64x64(b *testing.B) {
	mesh := grid.MustMesh(64, 64, 5e-9, 5e-9, 1e-9)
	mat := material.FeCoB()
	s, err := New(mesh, grid.FullRegion(mesh), mat, StableDt(mesh, mat))
	if err != nil {
		b.Fatal(err)
	}
	s.TiltM(0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	benchSink = s.M[0].X
	_ = units.Mu0
}
