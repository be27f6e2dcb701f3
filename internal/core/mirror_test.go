package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"spinwave/internal/detect"
	"spinwave/internal/layout"
	"spinwave/internal/material"
	"spinwave/internal/vec"
)

// fullFilm returns a copy of m that steps the whole film for every case:
// the same mirror-exact damping and footprints, no half mesh.
func fullFilm(m *Micromagnetic) *Micromagnetic {
	c := *m
	c.mir = nil
	return &c
}

func mirrorBackends(t *testing.T) []struct {
	name string
	m    *Micromagnetic
} {
	t.Helper()
	if testing.Short() {
		t.Skip("micromagnetic integration test")
	}
	xor, err := NewMicromagnetic(XOR)
	if err != nil {
		t.Fatal(err)
	}
	maj3, err := NewMicromagnetic(MAJ3, WithI3PhaseTrim(reducedMAJ3Trim))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Micromagnetic{xor, maj3} {
		if !m.MirrorExact() {
			t.Fatalf("%s: the reduced device reports no exact mirror", m.kind)
		}
	}
	return []struct {
		name string
		m    *Micromagnetic
	}{{"xor", xor}, {"maj3", maj3}}
}

// TestMirrorSymmetricRun: the whole-film run of a mirror-symmetric case
// (I1 = I2) ends with every material cell equal, bit for bit, to its
// image across the axis row.
func TestMirrorSymmetricRun(t *testing.T) {
	for _, tc := range mirrorBackends(t) {
		t.Run(tc.name, func(t *testing.T) {
			in := make([]bool, tc.m.kind.NumInputs())
			mf, mesh, region, err := tc.m.Snapshot(in)
			if err != nil {
				t.Fatal(err)
			}
			mr := tc.m.mir
			for c, on := range region {
				if on && mf[c] != mf[mr.reflect(c)] {
					i, j := mesh.Coord(c)
					t.Fatalf("cell (%d,%d) ends at %v, its image at %v", i, j, mf[c], mf[mr.reflect(c)])
				}
			}
		})
	}
}

// TestHalfDomainMatchesFullFilm: a mirror-symmetric case run on the half
// mesh reads out exactly what the whole-film run reads, O2 included, and
// so do its complement and the single-port I3 run.
func TestHalfDomainMatchesFullFilm(t *testing.T) {
	ctx := context.Background()
	for _, tc := range mirrorBackends(t) {
		t.Run(tc.name, func(t *testing.T) {
			full := fullFilm(tc.m)
			n := tc.m.kind.NumInputs()
			in := make([]bool, n)
			in[n-1] = n == 3 // 001 on MAJ3, 00 on XOR
			if !tc.m.HalfDomain(in) {
				t.Fatalf("%s is not a half-domain case", inputString(in))
			}
			half, err := tc.m.RunOrbit(ctx, in)
			if err != nil {
				t.Fatal(err)
			}
			if len(half) != 2 {
				t.Fatalf("orbit of %s has %d cases, want 2", inputString(in), len(half))
			}
			direct, err := full.RunContext(ctx, in)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(half[0], direct) {
				t.Fatalf("%s: half mesh %+v, whole film %+v", inputString(in), half[0], direct)
			}
			if half[0]["O1"] != withProbe(half[0]["O2"], "O1") {
				t.Fatalf("%s: half-mesh O1 %+v and O2 %+v differ", inputString(in), half[0]["O1"], half[0]["O2"])
			}
			not, err := full.RunContext(ctx, complementInputs(in))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(half[1], not) {
				t.Fatalf("%s: derived on the half mesh %+v, whole film %+v", inputString(complementInputs(in)), half[1], not)
			}
			if tc.m.kind == MAJ3 {
				h3, err := tc.m.RunSingle("I3")
				if err != nil {
					t.Fatal(err)
				}
				f3, err := full.RunSingle("I3")
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(h3, f3) {
					t.Fatalf("RunSingle(I3): half mesh %+v, whole film %+v", h3, f3)
				}
			}
		})
	}
}

// TestAntiHalfMatchesFullFilm: XOR 01 is the complement of its own
// mirror image, so it steps the half mesh with a negated ghost row. Its
// orbit {01, 10} reads exactly what direct whole-film runs of 01 and 10
// read, and its final field equals the whole-film run's bit for bit at
// and above the axis; below it the whole film holds every image rotated
// by π about z.
func TestAntiHalfMatchesFullFilm(t *testing.T) {
	if testing.Short() {
		t.Skip("micromagnetic integration test")
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		spec layout.Spec
	}{{"reduced", layout.ReducedSpec()}, {"paper-micromag", layout.PaperMicromagSpec()}} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewMicromagnetic(XOR, WithSpec(tc.spec))
			if err != nil {
				t.Fatal(err)
			}
			in := []bool{false, true}
			if half, negate := m.halfDomain(in, nil); !half || !negate {
				t.Fatalf("01: half %v, negated ghost %v; want both", half, negate)
			}
			full := fullFilm(m)
			res, err := m.RunOrbit(ctx, in)
			if err != nil {
				t.Fatal(err)
			}
			orbit := m.Orbit(in)
			if len(res) != 2 || len(orbit) != 2 {
				t.Fatalf("orbit of 01: %d cases, %d readouts; want 2", len(orbit), len(res))
			}
			for k, c := range orbit {
				direct, err := full.RunContext(ctx, c)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res[k], direct) {
					t.Fatalf("%s: half mesh %+v, whole film %+v", inputString(c), res[k], direct)
				}
			}

			s, _, err := m.newSolver(in, nil, true, true)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.Run(m.duration, nil)
			mf, mesh, region, err := m.Snapshot(in)
			if err != nil {
				t.Fatal(err)
			}
			mr := m.mir
			for c, on := range region {
				if !on {
					continue
				}
				i, j := mesh.Coord(c)
				if j < mr.axis {
					if img := mf[mr.reflect(c)]; mf[c] != vec.V(-img.X, -img.Y, img.Z) {
						t.Fatalf("cell (%d,%d) holds %v, its image %v", i, j, mf[c], img)
					}
					continue
				}
				a, b := mf[c], s.M[c-mr.off]
				for _, v := range [3][2]float64{{a.X, b.X}, {a.Y, b.Y}, {a.Z, b.Z}} {
					if math.Float64bits(v[0]) != math.Float64bits(v[1]) {
						t.Fatalf("cell (%d,%d): whole film %v, half mesh %v", i, j, a, b)
					}
				}
			}
		})
	}
}

// TestAntiHalfEligibility: only a drive that is the complement of its
// mirror image steps the half mesh with a negated ghost, and only when
// the complement is exact and no output straddles the axis. MAJ3 010
// (I3 sits on the axis), a tilted easy axis, a single-port run and an
// output across the axis all keep the whole film.
func TestAntiHalfEligibility(t *testing.T) {
	xor, err := NewMicromagnetic(XOR)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		in           []bool
		half, negate bool
	}{
		{[]bool{false, false}, true, false},
		{[]bool{false, true}, true, true},
		{[]bool{true, false}, true, true},
		{[]bool{true, true}, true, false},
	} {
		if half, negate := xor.halfDomain(tc.in, nil); half != tc.half || negate != tc.negate {
			t.Errorf("XOR %s: half %v, negated ghost %v; want %v, %v", inputString(tc.in), half, negate, tc.half, tc.negate)
		}
	}
	if half, _ := xor.halfDomain([]bool{false, false}, map[string]bool{"I2": true}); half {
		t.Error("RunSingle(I1) steps the half mesh")
	}
	across := *xor
	across.outCells = map[string][]int{"O1": {xor.mir.reflect(xor.outCells["O1"][0]), xor.outCells["O1"][0]}, "O2": xor.outCells["O2"]}
	if across.HalfDomain([]bool{false, true}) || !across.HalfDomain([]bool{true, true}) {
		t.Error("an output across the axis: want 01 on the whole film and 11 on the half mesh")
	}

	maj3, err := NewMicromagnetic(MAJ3, WithI3PhaseTrim(reducedMAJ3Trim))
	if err != nil {
		t.Fatal(err)
	}
	if maj3.HalfDomain([]bool{false, true, false}) {
		t.Error("MAJ3 010 steps the half mesh")
	}
	mat := material.FeCoB()
	mat.AnisU = vec.V(0.05, 0, 1).Normalized()
	tilted, err := NewMicromagnetic(XOR, WithMaterial(mat))
	if err != nil {
		t.Fatal(err)
	}
	if !tilted.MirrorExact() || tilted.HalfDomain([]bool{false, true}) || !tilted.HalfDomain([]bool{true, true}) {
		t.Error("tilted easy axis: want 01 on the whole film and 11 on the half mesh")
	}
}

func withProbe(r detect.Readout, name string) detect.Readout {
	r.Probe = name
	return r
}

// TestMirrorDerivedMatchesDirect: the readouts derived for the mirror
// image σc of a case (every output reading its partner's) equal a direct
// whole-film run of σc bit for bit, and RunOrbit answers the four cases
// of an asymmetric MAJ3 orbit from one run.
func TestMirrorDerivedMatchesDirect(t *testing.T) {
	ctx := context.Background()
	for _, tc := range mirrorBackends(t) {
		t.Run(tc.name, func(t *testing.T) {
			in := []bool{false, true}
			if tc.m.kind == MAJ3 {
				in = []bool{false, true, false}
			}
			sc := tc.m.mir.swapInputs(in)
			out, err := tc.m.RunContext(ctx, in)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := tc.m.RunContext(ctx, sc)
			if err != nil {
				t.Fatal(err)
			}
			if derived := tc.m.mir.swapReadouts(out); !reflect.DeepEqual(derived, direct) {
				t.Fatalf("%s: mirror-derived %+v, direct %+v", inputString(sc), derived, direct)
			}
			orbit := tc.m.Orbit(in)
			res, err := tc.m.RunOrbit(ctx, in)
			if err != nil {
				t.Fatal(err)
			}
			if want := map[GateKind]int{XOR: 2, MAJ3: 4}[tc.m.kind]; len(orbit) != want || len(res) != want {
				t.Fatalf("orbit of %s: %d cases and %d readouts, want %d", inputString(in), len(orbit), len(res), want)
			}
			for k, c := range orbit {
				want, err := tc.m.RunContext(ctx, c)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res[k], want) {
					t.Fatalf("orbit case %s: derived %+v, direct %+v", inputString(c), res[k], want)
				}
			}
		})
	}
}

// TestNoMirror: a thermal backend and the single-output MAJ3 have no
// exact mirror, so every case steps the whole film and orbits hold only
// the exact complement, if any.
func TestNoMirror(t *testing.T) {
	th, err := NewMicromagnetic(XOR, WithTemperature(300, 1))
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewMicromagnetic(MAJ3Single)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Micromagnetic{th, single} {
		in := make([]bool, m.kind.NumInputs())
		if m.MirrorExact() || m.HalfDomain(in) {
			t.Errorf("%s (T=%g) reports an exact mirror", m.kind, m.cfg.Temperature)
		}
	}
	if o := th.Orbit([]bool{false, true}); len(o) != 1 {
		t.Errorf("thermal orbit %v, want the case alone", o)
	}
	if o := single.Orbit([]bool{false, true, false}); len(o) != 2 {
		t.Errorf("single-output orbit %v, want the case and its complement", o)
	}
}

// TestMirrorOnlyOrbit: an easy axis tilted off z breaks the complement
// but keeps the mirror, so the XOR orbit of 01 is {01, 10} with 10 the
// mirror image — derived from 01's run, never from a complement lock-in
// — and equal to a direct run of 10.
func TestMirrorOnlyOrbit(t *testing.T) {
	if testing.Short() {
		t.Skip("micromagnetic integration test")
	}
	mat := material.FeCoB()
	mat.AnisU = vec.V(0.05, 0, 1).Normalized()
	m, err := NewMicromagnetic(XOR, WithMaterial(mat))
	if err != nil {
		t.Fatal(err)
	}
	if m.ComplementExact() || !m.MirrorExact() {
		t.Fatalf("tilted axis: complement exact %v, mirror exact %v; want false, true", m.ComplementExact(), m.MirrorExact())
	}
	in := []bool{false, true}
	res, err := m.RunOrbit(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("orbit of 01 answered %d cases, want 2", len(res))
	}
	direct, err := m.RunContext(context.Background(), []bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res[1], direct) {
		t.Fatalf("10: mirror-derived %+v, direct %+v", res[1], direct)
	}
}
