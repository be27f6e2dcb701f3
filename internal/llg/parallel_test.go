package llg

import (
	"testing"

	"spinwave/internal/excite"
	"spinwave/internal/grid"
	"spinwave/internal/material"
	"spinwave/internal/thermal"
	"spinwave/internal/vec"
)

// parallelTestSolver builds a small 2-D waveguide with every source kind
// the fused stepper handles specially: an antenna (sparse overlay), a
// thermal field (per-cell source), a non-uniform damping profile and a
// notch cut out of the region so the run geometry is non-trivial.
func parallelTestSolver(t *testing.T, workers int) *Solver {
	t.Helper()
	mesh := grid.MustMesh(40, 16, 5e-9, 5e-9, 1e-9)
	region := grid.FullRegion(mesh)
	// A notch: rows 6–9 lose cells 10–14, producing multiple runs per row.
	for j := 6; j < 10; j++ {
		for i := 10; i < 15; i++ {
			region[mesh.Idx(i, j)] = false
		}
	}
	mat := material.FeCoB()
	s, err := New(mesh, region, mat, StableDt(mesh, mat))
	if err != nil {
		t.Fatal(err)
	}
	s.TiltM(0.02)
	s.AddAbsorberTowards(mesh.SizeX(), mesh.SizeY()/2, 80e-9, 0.5)

	// Antenna straddling a band boundary for every worker count tested.
	cells := []int{mesh.Idx(4, 7), mesh.Idx(4, 8), mesh.Idx(5, 7), mesh.Idx(5, 8)}
	ant, err := excite.NewAntenna("src", cells, vec.UnitX, 2e-3, 15e9, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Eval.Sources = append(s.Eval.Sources, ant)

	th, err := thermal.New(mesh, region, mat, 50, s.Dt, 7)
	if err != nil {
		t.Fatal(err)
	}
	s.Eval.Sources = append(s.Eval.Sources, th)

	s.SetWorkers(workers)
	return s
}

// TestWorkerCountInvariance is the regression test for the tiled core's
// central promise: the magnetization trajectory is bit-for-bit identical
// for every worker count (ISSUE 3 acceptance criterion). Exact float64
// equality, no tolerance.
func TestWorkerCountInvariance(t *testing.T) {
	base := parallelTestSolver(t, 1)
	for step := 0; step < 40; step++ {
		base.Step()
	}
	for _, workers := range []int{2, 3, 8} {
		s := parallelTestSolver(t, workers)
		for step := 0; step < 40; step++ {
			s.Step()
		}
		s.Close()
		for c := range base.M {
			if base.M[c] != s.M[c] {
				t.Fatalf("cell %d diverged with %d workers: %v vs %v",
					c, workers, base.M[c], s.M[c])
			}
		}
		if base.Time != s.Time {
			t.Fatalf("time diverged: %g vs %g", base.Time, s.Time)
		}
	}
}

// TestOneRowGridWithWorkers pins the degenerate banding case: a 1-row
// waveguide with more workers than rows must run (one band) and stay
// bit-identical to serial.
func TestOneRowGridWithWorkers(t *testing.T) {
	build := func(workers int) *Solver {
		mesh := grid.MustMesh(64, 1, 5e-9, 5e-9, 1e-9)
		mat := material.FeCoB()
		s, err := New(mesh, grid.FullRegion(mesh), mat, StableDt(mesh, mat))
		if err != nil {
			t.Fatal(err)
		}
		s.TiltM(0.05)
		s.SetWorkers(workers)
		return s
	}
	serial := build(1)
	parallel := build(8)
	defer parallel.Close()
	for step := 0; step < 25; step++ {
		serial.Step()
		parallel.Step()
	}
	for c := range serial.M {
		if serial.M[c] != parallel.M[c] {
			t.Fatalf("1-row grid diverged at cell %d", c)
		}
	}
}

// TestStepAllocates pins the zero-alloc hot loop: after warm-up, a fused
// step must not allocate — serial or banded (the pool reuses its wait
// group and prebuilt kernel closures).
func TestStepAllocates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s := parallelTestSolver(t, workers)
		s.Step() // warm up: builds prep state lazily
		allocs := testing.AllocsPerRun(10, func() { s.Step() })
		s.Close()
		if allocs > 0 {
			t.Errorf("workers=%d: %g allocs per step, want 0", workers, allocs)
		}
	}
}

// TestSetWorkersLifecycle exercises reconfiguration: switching worker
// counts mid-run must rebuild the bands, keep stepping correct, and not
// leak pools (Close after each switch is the owner's job — SetWorkers
// replaces the pool itself).
func TestSetWorkersLifecycle(t *testing.T) {
	s := parallelTestSolver(t, 1)
	for step := 0; step < 5; step++ {
		s.Step()
	}
	s.SetWorkers(4)
	for step := 0; step < 5; step++ {
		s.Step()
	}
	s.SetWorkers(2)
	for step := 0; step < 5; step++ {
		s.Step()
	}
	s.Close()
	// After Close the solver must keep working serially.
	for step := 0; step < 5; step++ {
		s.Step()
	}
	if err := s.CheckFinite(); err != nil {
		t.Fatal(err)
	}
	if s.Steps() != 20 {
		t.Fatalf("steps = %d, want 20", s.Steps())
	}
}
