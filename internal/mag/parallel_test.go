package mag

import (
	"math"
	"sync"
	"testing"

	"spinwave/internal/grid"
	"spinwave/internal/material"
	"spinwave/internal/tile"
	"spinwave/internal/vec"
)

// parallelField evaluates B_eff the way the banded LLG stepper does:
// FieldRows runs on one goroutine per tile.Split band, concurrently,
// and the sources are added once every band has finished.
func parallelField(ev *Evaluator, t float64, m, B vec.Field, workers int) {
	var wg sync.WaitGroup
	for _, b := range tile.Split(ev.Mesh.Ny, workers) {
		wg.Add(1)
		go func(b tile.Band) {
			defer wg.Done()
			ev.FieldRows(m, B, b.J0, b.J1)
		}(b)
	}
	wg.Wait()
	for _, s := range ev.Sources {
		s.AddTo(t, B)
	}
}

func TestParallelFieldMatchesSerial(t *testing.T) {
	mesh := grid.MustMesh(32, 29, 5e-9, 5e-9, 1e-9) // odd ny: uneven bands
	region := grid.FullRegion(mesh)
	// Punch some vacuum holes so the boundary handling is exercised.
	for _, idx := range []int{17, 100, 333, 500, 640} {
		region[idx] = false
	}
	m := randomish(region)

	serial, err := NewEvaluator(mesh, region, material.FeCoB())
	if err != nil {
		t.Fatal(err)
	}
	bs := vec.NewField(mesh.NCells())
	serial.Field(0, m, bs)

	for _, workers := range []int{2, 3, 7} {
		par, err := NewEvaluator(mesh, region, material.FeCoB())
		if err != nil {
			t.Fatal(err)
		}
		bp := vec.NewField(mesh.NCells())
		// Pre-poison the parallel buffer: every region cell must be
		// overwritten, and Field zeroes the vacuum cells.
		bp.Fill(vec.V(9, 9, 9))
		for i, on := range region {
			if !on {
				bp[i] = vec.Zero
			}
		}
		parallelField(par, 0, m, bp, workers)
		for i := range bs {
			if bs[i] != bp[i] {
				t.Fatalf("workers=%d: cell %d differs: %v vs %v", workers, i, bp[i], bs[i])
			}
		}
	}
}

func TestParallelFieldWithBiasAndSources(t *testing.T) {
	mesh := grid.MustMesh(16, 16, 5e-9, 5e-9, 1e-9)
	region := grid.FullRegion(mesh)
	m := randomish(region)
	build := func(workers int) vec.Field {
		ev, err := NewEvaluator(mesh, region, material.FeCoB())
		if err != nil {
			t.Fatal(err)
		}
		ev.Coeffs.BBias = vec.V(0, 1e-3, 0)
		ev.Sources = append(ev.Sources, constSource{vec.V(2e-3, 0, 0)})
		b := vec.NewField(mesh.NCells())
		if workers == 1 {
			ev.Field(0, m, b)
		} else {
			parallelField(ev, 0, m, b, workers)
		}
		return b
	}
	a, b := build(1), build(4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cell %d differs with sources: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestParallelFallsBackOnTinyMeshes(t *testing.T) {
	mesh := grid.MustMesh(8, 2, 5e-9, 5e-9, 1e-9)
	region := grid.FullRegion(mesh)
	ev, err := NewEvaluator(mesh, region, material.FeCoB())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tile.Split(mesh.Ny, 16)); got != mesh.Ny {
		t.Fatalf("16 workers over %d rows: %d bands, want one per row", mesh.Ny, got)
	}
	m := randomish(region)
	b := vec.NewField(mesh.NCells())
	parallelField(ev, 0, m, b, 16) // more workers than rows
	want := vec.NewField(mesh.NCells())
	ev.Field(0, m, want)
	for i, on := range region {
		if on && !b[i].IsFinite() {
			t.Fatalf("non-finite field at %d", i)
		}
		if b[i] != want[i] {
			t.Fatalf("cell %d: %v, serial %v", i, b[i], want[i])
		}
	}
	if math.IsNaN(b[0].X) {
		t.Fatal("NaN field")
	}
}
