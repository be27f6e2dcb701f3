package core

import (
	"context"
	"reflect"
	"testing"
)

// reducedMAJ3Trim is backendspec's committed I3 trim of the reduced
// FeCoB MAJ3 (core cannot import the resolver).
const reducedMAJ3Trim = -1.4343993474621755

func complementOf(in []bool) []bool {
	out := make([]bool, len(in))
	for i, v := range in {
		out[i] = !v
	}
	return out
}

// TestComplementSymmetry is the proof the engine's case pairing rests
// on: on the reduced XOR and the trimmed reduced MAJ3, the direct run of
// ¬c ends in case c's magnetization rotated by π about z — mx and my
// exactly negated, mz equal, in every material cell — and the readouts
// RunOrbit derives for ¬c equal that direct run's bit for bit.
func TestComplementSymmetry(t *testing.T) {
	if testing.Short() {
		t.Skip("micromagnetic integration test")
	}
	for _, tc := range []struct {
		name  string
		kind  GateKind
		opts  []MicromagOption
		cases [][]bool
	}{
		{"xor", XOR, nil, [][]bool{{false, false}, {false, true}}},
		{"maj3", MAJ3, []MicromagOption{WithI3PhaseTrim(reducedMAJ3Trim)}, [][]bool{{false, true, false}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewMicromagnetic(tc.kind, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !m.ComplementExact() {
				t.Fatal("a zero-temperature backend reports its pairing inexact")
			}
			for _, c := range tc.cases {
				not := complementOf(c)
				mc, _, region, err := m.Snapshot(c)
				if err != nil {
					t.Fatal(err)
				}
				mn, _, _, err := m.Snapshot(not)
				if err != nil {
					t.Fatal(err)
				}
				for i, on := range region {
					if on && (mn[i].X != -mc[i].X || mn[i].Y != -mc[i].Y || mn[i].Z != mc[i].Z) {
						t.Fatalf("%s cell %d: ¬c ends at %v, c at %v: not the π rotation about z",
							inputString(not), i, mn[i], mc[i])
					}
				}

				direct, err := m.RunContext(context.Background(), not)
				if err != nil {
					t.Fatal(err)
				}
				orbit := m.Orbit(c)
				res, err := m.RunOrbit(context.Background(), c)
				if err != nil {
					t.Fatal(err)
				}
				if len(orbit) < 2 || !reflect.DeepEqual(orbit[1], not) {
					t.Fatalf("orbit of %s is %v: ¬c is not its second case", inputString(c), orbit)
				}
				gotC, derived := res[0], res[1]
				if !reflect.DeepEqual(derived, direct) {
					t.Fatalf("%s: derived readouts %+v, direct run %+v", inputString(not), derived, direct)
				}
				if reflect.DeepEqual(gotC, derived) {
					t.Fatalf("%s: RunOrbit returned ¬c's readouts as c's", inputString(c))
				}
			}
		})
	}
}

// TestComplementThermalInexact pins the exclusion: a thermal field does
// not change sign with the drive, so a backend at T > 0 reports its
// pairing inexact and its orbits derive nothing.
func TestComplementThermalInexact(t *testing.T) {
	m, err := NewMicromagnetic(XOR, WithTemperature(300, 1))
	if err != nil {
		t.Fatal(err)
	}
	if m.ComplementExact() {
		t.Fatal("thermal backend reports an exact pairing")
	}
	if o := m.Orbit([]bool{false, false}); len(o) != 1 {
		t.Fatalf("thermal backend derives %v from one run", o[1:])
	}
}
