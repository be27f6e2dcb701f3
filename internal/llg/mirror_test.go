package llg

import (
	"math"
	"testing"

	"spinwave/internal/excite"
	"spinwave/internal/grid"
	"spinwave/internal/material"
	"spinwave/internal/vec"
)

// TestMirrorBoundaryMatchesFullMesh: a strip that is mirror-symmetric
// about its middle cell row is driven once symmetrically and once
// antisymmetrically (the image antenna at logic 1). Both antennas reach
// the axis row, so the axis cells sum the two drives in declaration
// order. The half solver, which steps the axis row and the rows above
// it with the matching ghost sign, holds bit for bit what the full
// solver holds on every one of those rows.
func TestMirrorBoundaryMatchesFullMesh(t *testing.T) {
	const nx, axis, steps = 32, 5, 160
	full := grid.MustMesh(nx, 2*axis+1, 5e-9, 5e-9, 1e-9)
	region := grid.FullRegion(full)
	// A notch mirrored about the axis, so the rows hold several runs.
	for _, j := range []int{axis - 3, axis - 2, axis + 2, axis + 3} {
		for i := 12; i < 16; i++ {
			region[full.Idx(i, j)] = false
		}
	}
	alpha := make([]float64, full.NCells())
	for c := range alpha {
		i, j := full.Coord(c)
		dj := j - axis
		if dj < 0 {
			dj = -dj
		}
		alpha[c] = 0.004 + 0.02*float64(i)/nx + 0.003*float64(dj)
	}
	// The upper antenna covers rows axis..axis+1, its image rows axis−1..axis.
	var upper, lower []int
	for i := 4; i < 7; i++ {
		upper = append(upper, full.Idx(i, axis), full.Idx(i, axis+1))
		lower = append(lower, full.Idx(i, axis-1), full.Idx(i, axis))
	}
	off := (axis - 1) * nx
	half, err := grid.NewMesh(nx, full.Ny-axis+1, full.Dx, full.Dy, full.Dz)
	if err != nil {
		t.Fatal(err)
	}
	// above returns the half-mesh indices of the cells at or above the axis.
	above := func(cells []int) []int {
		var out []int
		for _, c := range cells {
			if c >= axis*nx {
				out = append(out, c-off)
			}
		}
		return out
	}
	mat := material.FeCoB()
	dt := StableDt(full, mat)
	build := func(mesh grid.Mesh, off int, cells [2][]int, lowerLogic bool, workers int) *Solver {
		s, err := New(mesh, region[off:], mat, dt)
		if err != nil {
			t.Fatal(err)
		}
		copy(s.Alpha, alpha[off:])
		s.InvalidatePrep()
		for k, name := range []string{"up", "down"} {
			ant, err := excite.NewAntenna(name, cells[k], vec.UnitX, 2e-3, 15e9, 0)
			if err != nil {
				t.Fatal(err)
			}
			ant.SetLogic(k == 1 && lowerLogic)
			ant.Env = excite.RampEnvelope(1 / 15e9)
			s.Eval.Sources = append(s.Eval.Sources, ant)
		}
		s.SetWorkers(workers)
		return s
	}
	for _, negate := range []bool{false, true} {
		ref := build(full, 0, [2][]int{upper, lower}, negate, 1)
		h := build(half, off, [2][]int{above(upper), above(lower)}, negate, 2)
		h.SetMirrorBoundary(negate)
		for step := 0; step < steps; step++ {
			ref.Step()
			h.Step()
		}
		h.Close()
		moved := false
		for c := axis * nx; c < full.NCells(); c++ {
			if !region[c] {
				continue
			}
			a, b := ref.M[c], h.M[c-off]
			for k, pair := range [3][2]float64{{a.X, b.X}, {a.Y, b.Y}, {a.Z, b.Z}} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					i, j := full.Coord(c)
					t.Fatalf("negate=%v: cell (%d,%d) component %d: full %v, half %v", negate, i, j, k, a, b)
				}
			}
			moved = moved || a.X != 0
		}
		if !moved {
			t.Fatalf("negate=%v: the drive never moved the film", negate)
		}
	}
}
