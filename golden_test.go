package spinwave

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"spinwave/internal/backendspec"
)

// TestPaperTables is the golden regression suite for the paper's
// evaluation tables: it pins every input combination of Table I (MAJ3
// fan-out-of-2, phase detection) and Table II (XOR fan-out-of-2,
// normalized output magnetization) to tolerance bands derived from the
// paper's values and this repo's documented deviations (EXPERIMENTS.md
// E-T1/E-T2). If a refactor shifts a readout regime — a unanimous row
// away from 1, a destructive row above threshold, a phase off 0/π, or
// O1 diverging from O2 — this fails and names the row.
//
// The behavioral backend runs always; the micromagnetic backend (the
// real experiment, minutes of solver time) is skipped under -short like
// the other integration tests.
func TestPaperTables(t *testing.T) {
	t.Run("TableI/behavioral", func(t *testing.T) {
		b, err := NewBehavioral(MAJ3, PaperSpec(), FeCoB())
		if err != nil {
			t.Fatal(err)
		}
		tt, err := MajorityTruthTable(b)
		if err != nil {
			t.Fatal(err)
		}
		checkTableI(t, tt, 0.01)
	})
	t.Run("TableII/behavioral", func(t *testing.T) {
		b, err := NewBehavioral(XOR, PaperSpec(), FeCoB())
		if err != nil {
			t.Fatal(err)
		}
		tt, err := XORTruthTable(b, false)
		if err != nil {
			t.Fatal(err)
		}
		checkTableII(t, tt, 0.01)
	})
	// The served backends, the resolver's build and committed I3 trim
	// included, on the reduced device and at the paper's dimensions.
	for _, c := range []struct{ name, gate, spec string }{
		{"TableI/micromag", "maj3", "reduced"},
		{"TableI/micromag-maj3single", "maj3single", "reduced"},
		{"TableI/micromag-paper", "maj3", "paper-micromag"},
		{"TableII/micromag", "xor", "reduced"},
		{"TableII/micromag-paper", "xor", "paper-micromag"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() {
				t.Skip("micromagnetic table: minutes of solver time")
			}
			k, err := backendspec.Resolve(backendspec.Request{Gate: c.gate, Backend: "micromag", Spec: c.spec})
			if err != nil {
				t.Fatal(err)
			}
			b, err := k.Build(backendspec.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var tt *TruthTable
			if c.gate == "xor" {
				if tt, err = XORTruthTable(b, false); err != nil {
					t.Fatal(err)
				}
				checkTableII(t, tt, 0.02)
			} else {
				if tt, err = MajorityTruthTable(b); err != nil {
					t.Fatal(err)
				}
				checkTableI(t, tt, 0.02)
			}
			if c.gate != "maj3single" { // one output: nothing to mirror
				checkMirror(t, tt)
			}
		})
	}
}

// TestStepAccuracy pins the micromagnetic time step to measured
// accuracy and margin (EXPERIMENTS.md E-DT) on the reduced XOR and the
// trimmed reduced MAJ3. At the default step every normalized row is
// within 2e-3 of a run at half the step, and every phase within 0.01
// rad; a destructive XOR row, at 0.002 of the reference, has no phase
// to keep. At 1.75× the default step the XOR still decodes, its
// destructive rows at most 0.01. Raising the step toward RK4's
// stability cliff, which sits just under 2×, fails this test.
func TestStepAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("micromagnetic tables: about 1.5 s of solver time")
	}
	table := func(gate string, dtScale float64) *TruthTable {
		t.Helper()
		k, err := backendspec.Resolve(backendspec.Request{Gate: gate, Backend: "micromag"})
		if err != nil {
			t.Fatal(err)
		}
		m, err := k.Micromagnetic(WithDtScale(dtScale))
		if err != nil {
			t.Fatal(err)
		}
		var tt *TruthTable
		if gate == "xor" {
			tt, err = XORTruthTable(m, false)
		} else {
			tt, err = MajorityTruthTable(m)
		}
		if err != nil {
			t.Fatal(err)
		}
		return tt
	}
	for _, gate := range []string{"xor", "maj3"} {
		ref, got := table(gate, 0.5), table(gate, 1)
		worstRow, worstPhase := 0.0, 0.0
		for i, c := range got.Cases {
			for j, o := range c.Outputs {
				r := ref.Cases[i].Outputs[j]
				worstRow = math.Max(worstRow, math.Abs(o.Normalized-r.Normalized))
				if r.Normalized >= 0.05 {
					worstPhase = math.Max(worstPhase, math.Abs(wrapPhase(o.Phase-r.Phase)))
				}
			}
		}
		t.Logf("%s: max |row − row at dt/2| %.2e, max |phase − phase at dt/2| %.2e rad", gate, worstRow, worstPhase)
		if worstRow > 2e-3 || worstPhase > 0.01 {
			t.Errorf("%s at the default step: rows within %.2e and phases within %.2e rad of the dt/2 run, want 2e-3 and 0.01",
				gate, worstRow, worstPhase)
		}
	}
	tt := table("xor", 1.75)
	if !tt.AllCorrect() {
		t.Error("XOR at 1.75× the default step decodes incorrectly")
	}
	for _, c := range tt.Cases {
		for _, o := range c.Outputs {
			if c.Inputs[0] != c.Inputs[1] && o.Normalized > 0.01 {
				t.Errorf("XOR at 1.75× the default step: case %v %s destructive row %.4f, want <= 0.01",
					c.Inputs, o.Name, o.Normalized)
			}
		}
	}
}

// checkTableI pins the 8 MAJ3 rows. Bands (EXPERIMENTS.md E-T1):
//
//   - unanimous rows ({0,0,0}, {1,1,1}) normalize to 1 within 10%;
//   - every mixed row sits well below 1 — [0.02, 0.5] covers the
//     paper's 0.083–0.164, the behavioral 0.33 and our measured
//     0.129–0.44 while still failing if a row drifts toward either a
//     unanimous (≈1) or fully-destructive (≈0) regime;
//   - the output phase is the logic value: within 0.2 rad of the
//     reference phase for majority-0 rows, of reference+π for
//     majority-1 rows (paper: exactly 0/π; measured: within 0.03);
//   - fan-out of 2: O1 and O2 agree within fanoutTol on every row.
func checkTableI(t *testing.T, tt *TruthTable, fanoutTol float64) {
	t.Helper()
	if len(tt.Cases) != 8 {
		t.Fatalf("Table I has %d cases, want 8", len(tt.Cases))
	}
	if !tt.AllCorrect() {
		t.Error("Table I decodes incorrectly")
	}
	if m := tt.FanOutMatched(); m > fanoutTol {
		t.Errorf("fan-out mismatch |O1-O2| = %.4f, want <= %.4f", m, fanoutTol)
	}
	refPhase := tt.Cases[0].Outputs[0].Phase
	for _, c := range tt.Cases {
		ones := 0
		for _, in := range c.Inputs {
			if in {
				ones++
			}
		}
		unanimous := ones == 0 || ones == len(c.Inputs)
		wantLogic := ones*2 > len(c.Inputs)
		for _, o := range c.Outputs {
			if unanimous {
				if d := math.Abs(o.Normalized - 1); d > 0.1 {
					t.Errorf("case %v %s: unanimous row normalized %.3f, want 1±0.1",
						c.Inputs, o.Name, o.Normalized)
				}
			} else if o.Normalized < 0.02 || o.Normalized > 0.5 {
				t.Errorf("case %v %s: mixed row normalized %.3f, want [0.02, 0.5]",
					c.Inputs, o.Name, o.Normalized)
			}
			want := refPhase
			if wantLogic {
				want += math.Pi
			}
			if d := math.Abs(wrapPhase(o.Phase - want)); d > 0.2 {
				t.Errorf("case %v %s: phase %.3f rad is %.3f from expected %s boundary",
					c.Inputs, o.Name, o.Phase, d, map[bool]string{false: "0", true: "π"}[wantLogic])
			}
			if o.Logic != wantLogic {
				t.Errorf("case %v %s: decoded %v, want %v", c.Inputs, o.Name, o.Logic, wantLogic)
			}
		}
	}
}

// checkTableII pins the 4 XOR rows. Bands (EXPERIMENTS.md E-T2): equal
// inputs interfere constructively to 1 within 10% (paper 0.99–1);
// unequal inputs interfere destructively below 0.1 (paper ≈0, measured
// 0.002) — comfortably under the 0.5 decision threshold either way.
func checkTableII(t *testing.T, tt *TruthTable, fanoutTol float64) {
	t.Helper()
	if len(tt.Cases) != 4 {
		t.Fatalf("Table II has %d cases, want 4", len(tt.Cases))
	}
	if !tt.AllCorrect() {
		t.Error("Table II decodes incorrectly")
	}
	if m := tt.FanOutMatched(); m > fanoutTol {
		t.Errorf("fan-out mismatch |O1-O2| = %.4f, want <= %.4f", m, fanoutTol)
	}
	for _, c := range tt.Cases {
		destructive := c.Inputs[0] != c.Inputs[1]
		for _, o := range c.Outputs {
			if destructive {
				if o.Normalized > 0.1 {
					t.Errorf("case %v %s: destructive row normalized %.3f, want <= 0.1",
						c.Inputs, o.Name, o.Normalized)
				}
			} else if d := math.Abs(o.Normalized - 1); d > 0.1 {
				t.Errorf("case %v %s: constructive row normalized %.3f, want 1±0.1",
					c.Inputs, o.Name, o.Normalized)
			}
			if o.Logic != destructive {
				t.Errorf("case %v %s: decoded %v, want %v", c.Inputs, o.Name, o.Logic, destructive)
			}
		}
	}
}

// checkMirror pins the fan-out symmetry the paper's claim rests on
// (arXiv 2011.11324): the device is mirror-symmetric about the axis
// between I1 and I2, and the solve keeps that symmetry exactly, so O1 of
// inputs (I1, I2, …) is O2 of (I2, I1, …) bit for bit — amplitude and
// phase equal. This tells a mirror-consistent O1/O2 difference, which
// |O1−O2| alone cannot, from a broken rasterization or an asymmetric
// sum in the stepper.
func checkMirror(t *testing.T, tt *TruthTable) {
	t.Helper()
	key := func(in []bool) string { return fmt.Sprint(in) }
	byInputs := make(map[string]CaseResult, len(tt.Cases))
	for _, c := range tt.Cases {
		byInputs[key(c.Inputs)] = c
	}
	output := func(c CaseResult, name string) int {
		for i, o := range c.Outputs {
			if o.Name == name {
				return i
			}
		}
		t.Fatalf("case %v has no output %s", c.Inputs, name)
		return 0
	}
	for _, c := range tt.Cases {
		swapped := slices.Clone(c.Inputs)
		swapped[0], swapped[1] = swapped[1], swapped[0]
		m, ok := byInputs[key(swapped)]
		if !ok {
			t.Fatalf("no mirror case %v of %v", swapped, c.Inputs)
		}
		o1, o2 := c.Outputs[output(c, "O1")], m.Outputs[output(m, "O2")]
		if o1.Amplitude != o2.Amplitude || o1.Phase != o2.Phase {
			t.Errorf("O1%v reads amplitude %.17g phase %.17g, mirror O2%v %.17g, %.17g: want them equal",
				c.Inputs, o1.Amplitude, o1.Phase, swapped, o2.Amplitude, o2.Phase)
		}
	}
}

// wrapPhase maps an angle to (-π, π].
func wrapPhase(p float64) float64 {
	for p > math.Pi {
		p -= 2 * math.Pi
	}
	for p <= -math.Pi {
		p += 2 * math.Pi
	}
	return p
}
