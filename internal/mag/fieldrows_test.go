package mag

import (
	"testing"

	"spinwave/internal/grid"
	"spinwave/internal/material"
	"spinwave/internal/tile"
	"spinwave/internal/vec"
)

// randomish fills a field with a deterministic pseudo-random unit-vector
// pattern over region cells.
func randomish(region grid.Region) vec.Field {
	m := vec.NewField(len(region))
	x := uint64(12345)
	next := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x%2000)/1000 - 1
	}
	for i := range m {
		if region[i] {
			m[i] = vec.V(next(), next(), next()+1.5).Normalized()
		}
	}
	return m
}

// TestFieldRowsBandsMatchTermHelpers pins FieldRows' documented
// bit-identity: the fused local field, evaluated band by band over any
// tile.Split of the rows, equals the term-by-term sum AddExchange +
// AddUniaxial + AddThinFilmDemag + AddUniform exactly, and Field adds
// the sources on top of it.
func TestFieldRowsBandsMatchTermHelpers(t *testing.T) {
	mesh := grid.MustMesh(32, 29, 5e-9, 5e-9, 1e-9) // odd ny: uneven bands
	region := grid.FullRegion(mesh)
	// Punch some vacuum holes so the boundary handling is exercised.
	for _, idx := range []int{17, 100, 333, 500, 640} {
		region[idx] = false
	}
	m := randomish(region)
	ev, err := NewEvaluator(mesh, region, material.FeCoB())
	if err != nil {
		t.Fatal(err)
	}
	ev.Coeffs.BBias = vec.V(0, 1e-3, 0)
	src := constSource{vec.V(2e-3, 0, 0)}
	ev.Sources = append(ev.Sources, src)

	c := ev.Coeffs
	want := vec.NewField(mesh.NCells())
	AddExchange(mesh, region, m, want, c.ExFactor)
	AddUniaxial(region, m, want, c.BAnis, c.AnisAxis)
	AddThinFilmDemag(region, m, want, c.BDemag)
	AddUniform(region, want, c.BBias)

	for _, parts := range []int{1, 2, 3, 7, 64} {
		got := vec.NewField(mesh.NCells())
		// Pre-poison the buffer: FieldRows must overwrite every region
		// cell and leave the vacuum cells alone.
		got.Fill(vec.V(9, 9, 9))
		for _, b := range tile.Split(mesh.Ny, parts) {
			ev.FieldRows(m, got, b.J0, b.J1)
		}
		for i := range want {
			if region[i] && got[i] != want[i] {
				t.Fatalf("%d bands: cell %d: FieldRows %v, term helpers %v", parts, i, got[i], want[i])
			}
			if !region[i] && got[i] != vec.V(9, 9, 9) {
				t.Fatalf("%d bands: vacuum cell %d written: %v", parts, i, got[i])
			}
		}
	}

	src.AddTo(0, want)
	got := vec.NewField(mesh.NCells())
	got.Fill(vec.V(9, 9, 9))
	ev.Field(0, m, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Field: cell %d: %v, want %v", i, got[i], want[i])
		}
	}
}
