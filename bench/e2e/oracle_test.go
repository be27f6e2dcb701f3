package main

import (
	"errors"
	"strings"
	"testing"
)

// goodXOR is a Table II style XOR answer: high amplitude (logic 0) when
// the inputs agree, destructive interference (logic 1) when they differ.
func goodXOR() *tableResponse {
	t := &tableResponse{Gate: "xor-fo2", Source: "micromag"}
	for _, in := range [][]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
		amp, logic := 1.0, false
		if in[0] != in[1] {
			amp, logic = 0.002, true
		}
		row := tableRow{Inputs: in}
		for _, name := range []string{"O1", "O2"} {
			row.Outputs = append(row.Outputs, tableOutput{Name: name, Amplitude: amp, Phase: 0.2, Logic: logic})
		}
		t.Cases = append(t.Cases, row)
	}
	return t
}

// goodMAJ3 is a Table I style majority answer: phase 0 for logic 0, π
// for logic 1.
func goodMAJ3() *tableResponse {
	t := &tableResponse{Gate: "maj3-fo2", Source: "micromag"}
	for c := 0; c < 8; c++ {
		in := []bool{c&1 != 0, c&2 != 0, c&4 != 0}
		want := expected("maj3", false, in)
		phase := 0.1
		if want {
			phase = 3.1
		}
		row := tableRow{Inputs: in}
		for _, name := range []string{"O1", "O2"} {
			row.Outputs = append(row.Outputs, tableOutput{Name: name, Amplitude: 1, Phase: phase, Logic: want})
		}
		t.Cases = append(t.Cases, row)
	}
	return t
}

func TestOracleAcceptsCorrectTables(t *testing.T) {
	if bad := checkTable("xor", false, goodXOR()); len(bad) > 0 {
		t.Fatalf("correct XOR table rejected: %v", bad)
	}
	if bad := checkTable("maj3", false, goodMAJ3()); len(bad) > 0 {
		t.Fatalf("correct MAJ3 table rejected: %v", bad)
	}
}

// TestOracleRejectsFlippedO2 flips one O2 bit at the raw readout: the
// row decodes wrong and the fan-out of 2 (O1 ≡ O2) is broken.
func TestOracleRejectsFlippedO2(t *testing.T) {
	xt := goodXOR()
	xt.Cases[1].Outputs[1].Amplitude = 0.9 // case 10, O2 now reads logic 0
	bad := checkTable("xor", false, xt)
	if !contains(bad, "O2 decodes 0, want 1") || !contains(bad, "fan-out broken") {
		t.Fatalf("flipped XOR O2 not caught: %v", bad)
	}

	mt := goodMAJ3()
	mt.Cases[3].Outputs[1].Phase = 0.1 // case 110, O2 now reads logic 0
	bad = checkTable("maj3", false, mt)
	if !contains(bad, "fan-out broken") {
		t.Fatalf("flipped MAJ3 O2 not caught: %v", bad)
	}

	// The bit the server reported is checked too.
	lt := goodXOR()
	lt.Cases[2].Outputs[1].Logic = false
	if bad := checkTable("xor", false, lt); !contains(bad, "reported 0, want 1") {
		t.Fatalf("flipped reported bit not caught: %v", bad)
	}
}

func TestOracleDecodesXNOR(t *testing.T) {
	xt := goodXOR()
	for i := range xt.Cases {
		for j := range xt.Cases[i].Outputs {
			xt.Cases[i].Outputs[j].Logic = !xt.Cases[i].Outputs[j].Logic
		}
	}
	if bad := checkTable("xor", true, xt); len(bad) > 0 {
		t.Fatalf("XNOR decoding of an XOR table rejected: %v", bad)
	}
}

func TestOracleSingleCasesUseTheReference(t *testing.T) {
	ref, err := tableRef(goodXOR())
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]readout{"O1": {Amplitude: 0.002}, "O2": {Amplitude: 0.002}}
	if bad := checkCase("xor", false, ref, out, []bool{true, false}); len(bad) > 0 {
		t.Fatalf("correct case rejected: %v", bad)
	}
	if bad := checkCase("xor", false, ref, out, []bool{true, true}); len(bad) != 2 {
		t.Fatalf("case 11 at low amplitude must fail on both outputs: %v", bad)
	}
	delete(out, "O2")
	if bad := checkCase("xor", false, ref, out, []bool{true, false}); !contains(bad, "missing output O2") {
		t.Fatalf("missing fan-out output not caught: %v", bad)
	}
}

// TestWrongTierIsAFailedOp: a right answer from the wrong tier fails the
// operation but not the run's correctness; a wrong bit fails both.
func TestWrongTierIsAFailedOp(t *testing.T) {
	if msg := checkTier("micromag", "cache", "disk"); msg == "" {
		t.Fatal("micromag answer accepted where only cache|disk may answer")
	}
	if msg := checkTier("disk", "cache", "disk"); msg != "" {
		t.Fatalf("disk answer rejected: %s", msg)
	}
	var r windowResult
	r.record(opSample{kind: "ok"}, nil, "", nil)
	r.record(opSample{kind: "tier"}, nil, checkTier("micromag", "cache", "disk"), nil)
	r.record(opSample{kind: "err"}, errors.New("503"), "", nil)
	r.record(opSample{kind: "bit"}, nil, "", []string{"xor 10 O2 decodes 0, want 1"})
	if r.attempted != 4 || r.failed != 3 || len(r.samples) != 1 || len(r.wrong) != 1 {
		t.Fatalf("attempted %d failed %d samples %d wrong %d", r.attempted, r.failed, len(r.samples), len(r.wrong))
	}
}

func contains(msgs []string, sub string) bool {
	for _, m := range msgs {
		if strings.Contains(m, sub) {
			return true
		}
	}
	return false
}
