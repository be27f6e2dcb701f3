package core

import (
	"context"
	"reflect"
	"testing"

	"spinwave/internal/detect"
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
