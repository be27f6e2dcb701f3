package core

import (
	"math"
	"testing"

	"spinwave/internal/detect"
	"spinwave/internal/layout"
	"spinwave/internal/material"
)

func behavioral(t *testing.T, kind GateKind) *Behavioral {
	t.Helper()
	b, err := NewBehavioral(kind, layout.PaperSpec(), material.FeCoB())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGateKindHelpers(t *testing.T) {
	if MAJ3.NumInputs() != 3 || XOR.NumInputs() != 2 || MAJ3Single.NumInputs() != 3 {
		t.Error("NumInputs wrong")
	}
	if len(MAJ3.InputNames()) != 3 || MAJ3.InputNames()[2] != "I3" {
		t.Error("InputNames wrong")
	}
	if MAJ3.String() != "maj3-fo2" || XOR.String() != "xor-fo2" || MAJ3Single.String() != "maj3-single" {
		t.Error("String wrong")
	}
	if GateKind(9).String() == "" {
		t.Error("unknown kind name empty")
	}
}

func TestEnumerateInputsOrder(t *testing.T) {
	ins := EnumerateInputs(3)
	if len(ins) != 8 {
		t.Fatalf("len = %d", len(ins))
	}
	// Case 1 must be {I1=1, I2=0, I3=0} (paper row {I3 I2 I1} = 001).
	if !ins[1][0] || ins[1][1] || ins[1][2] {
		t.Errorf("case 1 = %v", ins[1])
	}
	// Case 6 = {I3 I2 I1} = 110 → I1=0, I2=1, I3=1.
	if ins[6][0] || !ins[6][1] || !ins[6][2] {
		t.Errorf("case 6 = %v", ins[6])
	}
}

func TestMajorityExpected(t *testing.T) {
	cases := map[[3]bool]bool{
		{false, false, false}: false,
		{true, false, false}:  false,
		{true, true, false}:   true,
		{true, true, true}:    true,
		{false, true, true}:   true,
	}
	for in, want := range cases {
		if got := MajorityExpected(in[:]); got != want {
			t.Errorf("MAJ%v = %v", in, got)
		}
	}
}

func TestBehavioralMajorityTruthTable(t *testing.T) {
	tt, err := MajorityTruthTable(behavioral(t, MAJ3))
	if err != nil {
		t.Fatal(err)
	}
	if len(tt.Cases) != 8 {
		t.Fatalf("cases = %d", len(tt.Cases))
	}
	if !tt.AllCorrect() {
		for _, c := range tt.Cases {
			if !c.Correct {
				t.Errorf("case %v wrong: %+v", c.Inputs, c.Outputs)
			}
		}
	}
	// Fan-out equivalence: O1 and O2 identical to numerical precision.
	if d := tt.FanOutMatched(); d > 1e-9 {
		t.Errorf("fan-out mismatch %g", d)
	}
	// Table I shape: unanimous rows ≈ 1, mixed rows well below.
	for _, c := range tt.Cases {
		unanimous := c.Inputs[0] == c.Inputs[1] && c.Inputs[1] == c.Inputs[2]
		for _, o := range c.Outputs {
			if unanimous && math.Abs(o.Normalized-1) > 1e-9 {
				t.Errorf("unanimous case %v: normalized %g", c.Inputs, o.Normalized)
			}
			if !unanimous && o.Normalized > 0.5 {
				t.Errorf("mixed case %v: normalized %g not < 0.5", c.Inputs, o.Normalized)
			}
		}
	}
	if tt.Detection != "phase" {
		t.Errorf("detection = %s", tt.Detection)
	}
}

func TestBehavioralMajoritySingleOutput(t *testing.T) {
	tt, err := MajorityTruthTable(behavioral(t, MAJ3Single))
	if err != nil {
		t.Fatal(err)
	}
	if !tt.AllCorrect() {
		t.Error("single-output majority truth table incorrect")
	}
	for _, c := range tt.Cases {
		if len(c.Outputs) != 1 {
			t.Fatalf("single-output gate has %d outputs", len(c.Outputs))
		}
	}
	if tt.FanOutMatched() != 0 {
		t.Error("FanOutMatched should be 0 for single output")
	}
}

func TestBehavioralXORTruthTable(t *testing.T) {
	tt, err := XORTruthTable(behavioral(t, XOR), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(tt.Cases) != 4 {
		t.Fatalf("cases = %d", len(tt.Cases))
	}
	if !tt.AllCorrect() {
		for _, c := range tt.Cases {
			t.Logf("case %v: %+v", c.Inputs, c.Outputs)
		}
		t.Error("XOR truth table incorrect")
	}
	if d := tt.FanOutMatched(); d > 1e-9 {
		t.Errorf("fan-out mismatch %g", d)
	}
	// Table II shape: equal inputs ≈ 1, unequal ≈ 0.
	for _, c := range tt.Cases {
		for _, o := range c.Outputs {
			if c.Inputs[0] == c.Inputs[1] && math.Abs(o.Normalized-1) > 1e-9 {
				t.Errorf("equal case %v normalized %g", c.Inputs, o.Normalized)
			}
			if c.Inputs[0] != c.Inputs[1] && o.Normalized > 0.05 {
				t.Errorf("unequal case %v normalized %g", c.Inputs, o.Normalized)
			}
		}
	}
}

func TestBehavioralXNOR(t *testing.T) {
	tt, err := XORTruthTable(behavioral(t, XOR), true)
	if err != nil {
		t.Fatal(err)
	}
	if tt.Gate != "xnor-fo2" {
		t.Errorf("gate = %s", tt.Gate)
	}
	if !tt.AllCorrect() {
		t.Error("XNOR truth table incorrect")
	}
}

func TestTruthTableKindMismatch(t *testing.T) {
	if _, err := MajorityTruthTable(behavioral(t, XOR)); err == nil {
		t.Error("majority table on XOR backend accepted")
	}
	if _, err := XORTruthTable(behavioral(t, MAJ3), false); err == nil {
		t.Error("XOR table on MAJ backend accepted")
	}
	if _, err := DerivedTruthTable(behavioral(t, XOR), AND); err == nil {
		t.Error("derived table on XOR backend accepted")
	}
}

func TestDerivedGates(t *testing.T) {
	b := behavioral(t, MAJ3)
	for _, d := range []DerivedGate{AND, OR, NAND, NOR} {
		tt, err := DerivedTruthTable(b, d)
		if err != nil {
			t.Fatal(err)
		}
		if !tt.AllCorrect() {
			for _, c := range tt.Cases {
				if !c.Correct {
					t.Errorf("%s case %v: %+v", d, c.Inputs, c.Outputs)
				}
			}
		}
	}
}

func TestDerivedGateExpected(t *testing.T) {
	if AND.Expected(true, true) != true || AND.Expected(true, false) != false {
		t.Error("AND wrong")
	}
	if OR.Expected(false, false) != false || OR.Expected(true, false) != true {
		t.Error("OR wrong")
	}
	if NAND.Expected(true, true) != false || NOR.Expected(false, false) != true {
		t.Error("NAND/NOR wrong")
	}
	names := map[DerivedGate]string{AND: "and", OR: "or", NAND: "nand", NOR: "nor"}
	for d, want := range names {
		if d.String() != want {
			t.Errorf("%v name = %s", d, d.String())
		}
	}
	if DerivedGate(9).String() == "" {
		t.Error("unknown derived gate name empty")
	}
	if _, _, err := DerivedGate(9).control(); err == nil {
		t.Error("unknown derived gate control accepted")
	}
}

func TestBehavioralRunValidation(t *testing.T) {
	b := behavioral(t, MAJ3)
	if _, err := b.Run([]bool{true}); err == nil {
		t.Error("wrong input count accepted")
	}
	if b.Name() != "behavioral" || b.Kind() != MAJ3 {
		t.Error("backend identity wrong")
	}
}

func TestNewBehavioralInvalidSpec(t *testing.T) {
	bad := layout.PaperSpec()
	bad.Lambda = 0
	if _, err := NewBehavioral(MAJ3, bad, material.FeCoB()); err != nil {
		return
	}
	t.Error("invalid spec accepted")
}

type fakeBackend struct {
	kind GateKind
	amp  float64
}

func (f *fakeBackend) Name() string   { return "fake" }
func (f *fakeBackend) Kind() GateKind { return f.kind }
func (f *fakeBackend) Run(in []bool) (map[string]detect.Readout, error) {
	return map[string]detect.Readout{"O1": {Probe: "O1", Amplitude: f.amp}}, nil
}

// TestBehavioralFingerprintOptions pins the fingerprint NewBehavioral
// computes once: the same configuration keys the same, and every
// result-relevant option — junction loss, attenuation length, gate
// kind — keys differently.
func TestBehavioralFingerprintOptions(t *testing.T) {
	build := func(kind GateKind, opts ...BehavioralOption) string {
		t.Helper()
		b, err := NewBehavioral(kind, layout.PaperSpec(), material.FeCoB(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		fp, ok := b.Fingerprint()
		if !ok || fp == "" {
			t.Fatalf("fingerprint %q ok=%v", fp, ok)
		}
		return fp
	}
	base := build(XOR)
	if again := build(XOR, WithJunctionLoss(0.9)); again != base {
		t.Fatalf("default and explicit 0.9 junction loss key differently: %s vs %s", base, again)
	}
	for name, fp := range map[string]string{
		"junction loss 0.8":  build(XOR, WithJunctionLoss(0.8)),
		"junction loss 1":    build(XOR, WithJunctionLoss(1)),
		"attenuation length": build(XOR, WithAttenuationLength(1e-6)),
		"gate kind":          build(MAJ3),
	} {
		if fp == base {
			t.Errorf("%s: fingerprint equals the default XOR backend's", name)
		}
	}
}

func TestReferenceCaseZeroAmplitudeRejected(t *testing.T) {
	f := &fakeBackend{kind: MAJ3, amp: 0}
	if _, err := MajorityTruthTable(f); err == nil {
		t.Error("zero reference amplitude accepted")
	}
}

func TestSortedOutputsFallback(t *testing.T) {
	res := map[string]detect.Readout{"Z": {}, "A": {}}
	got := sortedOutputs(res)
	if len(got) != 2 || got[0] != "A" || got[1] != "Z" {
		t.Errorf("fallback order = %v", got)
	}
	res2 := map[string]detect.Readout{"O2": {}, "O1": {}}
	got2 := sortedOutputs(res2)
	if got2[0] != "O1" || got2[1] != "O2" {
		t.Errorf("ordered outputs = %v", got2)
	}
}
