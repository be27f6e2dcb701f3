package surrogate

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"spinwave/internal/core"
	"spinwave/internal/layout"
	"spinwave/internal/material"
	"spinwave/internal/obs"
)

func behavioral(t *testing.T, kind core.GateKind) *core.Behavioral {
	t.Helper()
	b, err := core.NewBehavioral(kind, layout.PaperSpec(), material.FeCoB())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBuildFromBehavioralAdmits: the behavioral model is exactly linear,
// so a surrogate built from it must pass the golden-band admission gate
// for every gate of the paper and decode its full truth table correctly.
func TestBuildFromBehavioralAdmits(t *testing.T) {
	for _, kind := range []core.GateKind{core.XOR, core.MAJ3, core.MAJ3Single, core.MAJ5} {
		t.Run(kind.String(), func(t *testing.T) {
			b := behavioral(t, kind)
			m, err := Build(context.Background(), b)
			if err != nil {
				t.Fatal(err)
			}
			if m.Ports() != kind.NumInputs() {
				t.Fatalf("Ports() = %d, want %d", m.Ports(), kind.NumInputs())
			}
			if m.SourceBackend() != "behavioral" {
				t.Errorf("SourceBackend() = %q", m.SourceBackend())
			}
			if fp, ok := m.Fingerprint(); !ok || !strings.HasPrefix(fp, "surrogate/v1|") {
				t.Errorf("Fingerprint() = %q, %v — want surrogate/v1| prefix", fp, ok)
			}
			if err := m.Verify(); err != nil {
				t.Fatalf("admission gate rejected an exactly-linear surrogate: %v", err)
			}
			tt, err := m.Table()
			if err != nil {
				t.Fatal(err)
			}
			if !tt.AllCorrect() {
				t.Fatalf("superposed truth table decodes incorrectly:\n%+v", tt.Cases)
			}
		})
	}
}

// TestSurrogateMatchesBehavioralExact pins row-by-row equivalence: for a
// linear backend, superposition must reproduce the exact solver's
// normalized amplitudes, not merely land inside the bands.
func TestSurrogateMatchesBehavioralExact(t *testing.T) {
	for _, kind := range []core.GateKind{core.XOR, core.MAJ3} {
		t.Run(kind.String(), func(t *testing.T) {
			b := behavioral(t, kind)
			m, err := Build(context.Background(), b)
			if err != nil {
				t.Fatal(err)
			}
			var want, got *core.TruthTable
			if kind == core.XOR {
				want, err = core.XORTruthTable(b, false)
			} else {
				want, err = core.MajorityTruthTable(b)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got, err = m.Table(); err != nil {
				t.Fatal(err)
			}
			if len(got.Cases) != len(want.Cases) {
				t.Fatalf("case count %d, want %d", len(got.Cases), len(want.Cases))
			}
			for i := range want.Cases {
				w, g := want.Cases[i], got.Cases[i]
				for j := range w.Outputs {
					if g.Outputs[j].Logic != w.Outputs[j].Logic {
						t.Errorf("case %d output %d: logic %v, want %v", i, j, g.Outputs[j].Logic, w.Outputs[j].Logic)
					}
					if d := math.Abs(g.Outputs[j].Normalized - w.Outputs[j].Normalized); d > 1e-9 {
						t.Errorf("case %d output %d: normalized differs by %.3g from the exact table", i, j, d)
					}
				}
			}
		})
	}
}

// TestPerturbedSurrogateRejected is the destabilized-surrogate admission
// test: rotating the stored phasors by ±0.3 rad pushes the superposed
// table out of the golden bands (the XOR destructive row rises to
// tan(0.3) ≈ 0.31 > 0.1; the MAJ3 phases shift past 0.2 rad), so Verify
// must refuse the model, while an unperturbed copy still passes.
func TestPerturbedSurrogateRejected(t *testing.T) {
	for _, kind := range []core.GateKind{core.XOR, core.MAJ3} {
		t.Run(kind.String(), func(t *testing.T) {
			m, err := Build(context.Background(), behavioral(t, kind))
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Perturbed(0).Verify(); err != nil {
				t.Fatalf("zero perturbation must still pass admission: %v", err)
			}
			if err := m.Perturbed(0.3).Verify(); err == nil {
				t.Fatal("destabilized surrogate (0.3 rad phase error) passed the admission gate")
			} else if !strings.Contains(err.Error(), "admission rejected") {
				t.Fatalf("rejection error does not name the admission gate: %v", err)
			}
		})
	}
}

// TestFromPortsValidation covers the assembly error paths.
func TestFromPortsValidation(t *testing.T) {
	unit := map[string]complex128{"O1": 1, "O2": 1}
	ok2 := []PortResponse{{Port: "I1", Response: unit}, {Port: "I2", Response: unit}}
	for _, tc := range []struct {
		name  string
		kind  core.GateKind
		fp    string
		ports []PortResponse
		like  string
	}{
		{"wrong count", core.XOR, "fp", ok2[:1], "needs 2 port responses"},
		{"empty fingerprint", core.XOR, "", ok2, "empty base fingerprint"},
		{"wrong order", core.XOR, "fp",
			[]PortResponse{{Port: "I2", Response: unit}, {Port: "I1", Response: unit}},
			"InputNames order"},
		{"empty response", core.XOR, "fp",
			[]PortResponse{{Port: "I1", Response: nil}, {Port: "I2", Response: unit}},
			"no detector responses"},
		{"missing detector", core.XOR, "fp",
			[]PortResponse{{Port: "I1", Response: unit}, {Port: "I2", Response: map[string]complex128{"O1": 1}}},
			"sees 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := FromPorts(tc.kind, tc.fp, "test", tc.ports)
			if err == nil {
				t.Fatal("FromPorts accepted an invalid assembly")
			}
			if !strings.Contains(err.Error(), tc.like) {
				t.Fatalf("error %q does not mention %q", err, tc.like)
			}
		})
	}
}

// noFingerprint hides the behavioral backend's canonical identity.
type noFingerprint struct{ *core.Behavioral }

func (noFingerprint) Fingerprint() (string, bool) { return "", false }

// TestBuildRequiresFingerprint: a backend without a canonical identity
// has no stable key to serve a surrogate under; Build must refuse it.
func TestBuildRequiresFingerprint(t *testing.T) {
	if _, err := Build(context.Background(), noFingerprint{behavioral(t, core.XOR)}); err == nil {
		t.Fatal("Build accepted a backend with no canonical fingerprint")
	}
}

// TestEvalInputCount: a wrong-width case must fail with the shared
// sentinel so the serving layer maps it onto the bad_request code.
func TestEvalInputCount(t *testing.T) {
	m, err := Build(context.Background(), behavioral(t, core.XOR))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Eval([]bool{true}); !errors.Is(err, core.ErrBadInputCount) {
		t.Fatalf("Eval with 1 input: err = %v, want ErrBadInputCount", err)
	}
}

// TestSurrogateMicromagGoldenEquivalence is the full-fidelity check: a
// surrogate built from the real micromagnetic solver must pass the
// golden-band admission gate, and its superposed Tables I/II rows must
// decode to the same logic and sit within the band width (0.1
// normalized amplitude) of the exact solver's rows. The warm table must
// come from superposition alone: it takes no integrator step.
func TestSurrogateMicromagGoldenEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("micromagnetic transients: seconds to minutes of solver time")
	}
	for _, kind := range []core.GateKind{core.XOR, core.MAJ3} {
		t.Run(kind.String(), func(t *testing.T) {
			m, err := core.NewMicromagnetic(kind)
			if err != nil {
				t.Fatal(err)
			}
			if kind != core.XOR {
				if _, err := m.CalibrateI3(); err != nil {
					t.Fatal(err)
				}
			}
			sur, err := Build(context.Background(), m)
			if err != nil {
				t.Fatal(err)
			}
			if err := sur.Verify(); err != nil {
				t.Fatalf("micromag surrogate rejected by the admission gate: %v", err)
			}
			var exact *core.TruthTable
			if kind == core.XOR {
				exact, err = core.XORTruthTable(m, false)
			} else {
				exact, err = core.MajorityTruthTable(m)
			}
			if err != nil {
				t.Fatal(err)
			}
			steps := obs.Default().Counter("spinwave_llg_steps_total")
			before := steps.Value()
			approx, err := sur.Table()
			if err != nil {
				t.Fatal(err)
			}
			if after := steps.Value(); after != before {
				t.Fatalf("warm surrogate table stepped the solver: %d integrator steps", after-before)
			}
			if len(approx.Cases) != len(exact.Cases) {
				t.Fatalf("case count %d, want %d", len(approx.Cases), len(exact.Cases))
			}
			for i := range exact.Cases {
				e, a := exact.Cases[i], approx.Cases[i]
				for j := range e.Outputs {
					if a.Outputs[j].Logic != e.Outputs[j].Logic {
						t.Errorf("case %d output %d: surrogate logic %v, exact %v",
							i, j, a.Outputs[j].Logic, e.Outputs[j].Logic)
					}
					if d := math.Abs(a.Outputs[j].Normalized - e.Outputs[j].Normalized); d > 0.1 {
						t.Errorf("case %d output %d: surrogate normalized off by %.3f (> 0.1) from exact", i, j, d)
					}
				}
			}
		})
	}
}

// TestBuildMirrorsPartnerPorts: on the reduced micromagnetic XOR, Build
// runs one transient for I1 and reads I2 off it through the exact
// mirror; the derived I2 response equals a direct RunSingle("I2") bit
// for bit, so the model and its admission are those of three runs.
func TestBuildMirrorsPartnerPorts(t *testing.T) {
	if testing.Short() {
		t.Skip("micromagnetic transients")
	}
	m, err := core.NewMicromagnetic(core.XOR)
	if err != nil {
		t.Fatal(err)
	}
	runs := obs.Default().Counter("spinwave_llg_runs_total")
	before := runs.Value()
	sur, err := Build(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if n := runs.Value() - before; n != 1 {
		t.Fatalf("XOR surrogate build ran %d transients, want 1", n)
	}
	direct, err := m.RunSingle("I2")
	if err != nil {
		t.Fatal(err)
	}
	for det, r := range direct {
		if got := sur.ports[1].Response[det]; got != r.Phasor() {
			t.Fatalf("I2 at %s: mirrored %v, direct %v", det, got, r.Phasor())
		}
	}
	if err := sur.Verify(); err != nil {
		t.Fatalf("mirrored surrogate rejected: %v", err)
	}
}
