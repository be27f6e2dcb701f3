package spinwave

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

func TestFacadeBehavioralTruthTables(t *testing.T) {
	b, err := NewBehavioral(XOR, PaperSpec(), FeCoB())
	if err != nil {
		t.Fatal(err)
	}
	tt, err := XORTruthTable(b, false)
	if err != nil {
		t.Fatal(err)
	}
	if !tt.AllCorrect() {
		t.Error("facade XOR truth table incorrect")
	}
	out := FormatTruthTable(tt)
	for _, want := range []string{"{I2,I1}", "O1 norm", "O2 logic", "{0,0}", "{1,1}"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
	if FormatTruthTable(nil) != "" {
		t.Error("nil table should format empty")
	}
}

func TestFacadeMajorityAndDerived(t *testing.T) {
	b, err := NewBehavioral(MAJ3, PaperSpec(), FeCoB())
	if err != nil {
		t.Fatal(err)
	}
	tt, err := MajorityTruthTable(b)
	if err != nil {
		t.Fatal(err)
	}
	if !tt.AllCorrect() {
		t.Error("facade majority incorrect")
	}
	if !strings.Contains(FormatTruthTable(tt), "{I3,I2,I1}") {
		t.Error("majority header wrong")
	}
	for _, d := range []DerivedGate{AND, OR, NAND, NOR} {
		dt, err := DerivedTruthTable(b, d)
		if err != nil {
			t.Fatal(err)
		}
		if !dt.AllCorrect() {
			t.Errorf("derived %v incorrect", d)
		}
	}
}

func TestFacadeLadderBackend(t *testing.T) {
	b, err := NewLadderBehavioral(PaperSpec(), FeCoB())
	if err != nil {
		t.Fatal(err)
	}
	tt, err := MajorityTruthTable(b)
	if err != nil {
		t.Fatal(err)
	}
	if !tt.AllCorrect() {
		t.Error("ladder baseline incorrect")
	}
}

func TestTableIIIRendering(t *testing.T) {
	out := TableIII().String()
	for _, want := range []string{"Table III", "triangle MAJ3 (this work)", "10.3", "6.9", "466", "0.4"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table III missing %q:\n%s", want, out)
		}
	}
	ratios := TableIIIRatios().String()
	for _, want := range []string{"25%", "43x", "40x"} {
		if !strings.Contains(ratios, want) {
			t.Errorf("ratios missing %q:\n%s", want, ratios)
		}
	}
}

func TestDispersionFacade(t *testing.T) {
	if _, err := DispersionModel(FeCoB(), 1e-9, "nonsense"); err == nil {
		t.Error("unknown mode accepted")
	}
	full, err := DispersionModel(FeCoB(), 1e-9, "full")
	if err != nil {
		t.Fatal(err)
	}
	local, err := DispersionModel(FeCoB(), 1e-9, "local")
	if err != nil {
		t.Fatal(err)
	}
	k := 1e8
	if full.Frequency(k) < local.Frequency(k) {
		t.Error("full branch below local branch")
	}
	f, err := DriveFrequency(FeCoB(), 1e-9, 55e-9)
	if err != nil {
		t.Fatal(err)
	}
	if f < 8e9 || f > 25e9 {
		t.Errorf("drive frequency %g implausible", f)
	}
}

func TestMaterialByNameFacade(t *testing.T) {
	m, err := MaterialByName("yig")
	if err != nil || m.Name != "YIG" {
		t.Errorf("MaterialByName(yig) = %v, %v", m.Name, err)
	}
	if _, err := MaterialByName("nope"); err == nil {
		t.Error("unknown material accepted")
	}
}

func TestWaveProfile(t *testing.T) {
	xs, ys, err := WaveProfile(55e-9, 1, 0, 2, 101)
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 101 || len(ys) != 101 {
		t.Fatal("lengths wrong")
	}
	// Two wavelengths: endpoints at sin(0) and sin(4π) ≈ 0.
	if math.Abs(ys[0]) > 1e-9 || math.Abs(ys[100]) > 1e-9 {
		t.Errorf("endpoints = %g, %g", ys[0], ys[100])
	}
	// φ = π flips the profile (Figure 1's phase illustration).
	_, ysPi, err := WaveProfile(55e-9, 1, math.Pi, 2, 101)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ys {
		if math.Abs(ys[i]+ysPi[i]) > 1e-9 {
			t.Fatalf("phase-π profile not inverted at %d", i)
		}
	}
	if _, _, err := WaveProfile(0, 1, 0, 1, 10); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestInterfere(t *testing.T) {
	// Figure 2: equal phases → amplitude 2, opposite phases → 0.
	if a, _ := Interfere(1, 0, 1, 0); math.Abs(a-2) > 1e-12 {
		t.Errorf("constructive = %g", a)
	}
	if a, _ := Interfere(1, 0, 1, math.Pi); a > 1e-12 {
		t.Errorf("destructive = %g", a)
	}
	if a, _ := Interfere(1, 0, 0.5, math.Pi); math.Abs(a-0.5) > 1e-12 {
		t.Errorf("partial = %g", a)
	}
}

func TestMuMaxScriptFacade(t *testing.T) {
	s, err := MuMaxScript(MAJ3, PaperSpec(), FeCoB(), []bool{false, true, false})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SetGridSize", "Msat", "B_ext.SetRegion"} {
		if !strings.Contains(s, want) {
			t.Errorf("script missing %q", want)
		}
	}
	if _, err := MuMaxScript(MAJ3, PaperSpec(), FeCoB(), []bool{false}); err == nil {
		t.Error("wrong input count accepted")
	}
	if _, err := MuMaxScript(XOR, PaperSpec(), FeCoB(), []bool{true, false}); err != nil {
		t.Errorf("XOR script failed: %v", err)
	}
	if _, err := MuMaxScript(MAJ3Single, PaperSpec(), FeCoB(), []bool{true, false, true}); err != nil {
		t.Errorf("single-output script failed: %v", err)
	}
}

func TestRenderSnapshotFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("micromagnetic integration test")
	}
	m, err := NewMicromagnetic(XOR)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderSnapshotPNG(&buf, m, []bool{false, false}, "mx", 2); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty PNG")
	}
	art, err := RenderSnapshotASCII(m, []bool{false, false}, "mx", 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(art) == 0 {
		t.Error("empty ASCII art")
	}
	if _, err := RenderSnapshotASCII(m, []bool{false, false}, "bogus", 100); err == nil {
		t.Error("bad component accepted")
	}
}

func TestSentinelErrors(t *testing.T) {
	if _, err := MuMaxScript(GateKind(99), PaperSpec(), FeCoB(), nil); !errors.Is(err, ErrUnknownGate) {
		t.Errorf("MuMaxScript bad kind returned %v, want ErrUnknownGate", err)
	}
	if _, err := MuMaxScript(XOR, PaperSpec(), FeCoB(), []bool{true}); !errors.Is(err, ErrBadInputCount) {
		t.Errorf("MuMaxScript short inputs returned %v, want ErrBadInputCount", err)
	}
	b, err := NewBehavioral(XOR, PaperSpec(), FeCoB())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run([]bool{true}); !errors.Is(err, ErrBadInputCount) {
		t.Errorf("behavioral short inputs returned %v, want ErrBadInputCount", err)
	}
	if _, err := NewBehavioral(GateKind(99), PaperSpec(), FeCoB()); !errors.Is(err, ErrUnknownGate) {
		t.Errorf("NewBehavioral bad kind returned %v, want ErrUnknownGate", err)
	}
	if _, err := RenderSnapshotASCII(nil, nil, "bogus", 10); !errors.Is(err, ErrUnknownComponent) {
		t.Errorf("bad render component returned %v, want ErrUnknownComponent", err)
	}
}

func TestFunctionalOptionsFacade(t *testing.T) {
	// Lossless junctions must raise the normalized partial-constructive
	// levels relative to the default 0.9 loss.
	def, err := NewBehavioral(MAJ3, PaperSpec(), FeCoB())
	if err != nil {
		t.Fatal(err)
	}
	lossless, err := NewBehavioral(MAJ3, PaperSpec(), FeCoB(),
		WithJunctionLoss(1), WithAttenuationLength(0))
	if err != nil {
		t.Fatal(err)
	}
	dt, err := MajorityTruthTable(def)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := MajorityTruthTable(lossless)
	if err != nil {
		t.Fatal(err)
	}
	if !dt.AllCorrect() || !lt.AllCorrect() {
		t.Fatal("majority tables incorrect")
	}
	// Options must change the fingerprint so the shared engine cache
	// cannot serve one backend's readouts for the other.
	fd, ok1 := def.Fingerprint()
	fl, ok2 := lossless.Fingerprint()
	if !ok1 || !ok2 || fd == fl {
		t.Fatalf("option change not reflected in fingerprints: %q vs %q", fd, fl)
	}
	// Micromagnetic options-form construction (no run).
	if _, err := NewMicromagnetic(XOR, WithWorkers(2)); err != nil {
		t.Fatal(err)
	}
	// An explicitly zero spec or material fails validation (an error,
	// not a panic).
	if _, err := NewMicromagnetic(XOR, WithSpec(Spec{})); err == nil || !strings.Contains(err.Error(), "wavelength 0 must be positive") {
		t.Fatalf("zero spec: err = %v, want the spec validation error", err)
	}
	if _, err := NewMicromagnetic(XOR, WithMaterial(Material{})); err == nil || !strings.Contains(err.Error(), "Ms = 0 must be positive") {
		t.Fatalf("zero material: err = %v, want the material validation error", err)
	}
}

func TestContextTruthTablesAndDefaultEngine(t *testing.T) {
	b, err := NewBehavioral(XOR, PaperSpec(), FeCoB())
	if err != nil {
		t.Fatal(err)
	}
	tt, err := XORTruthTableContext(context.Background(), b, false)
	if err != nil {
		t.Fatal(err)
	}
	if !tt.AllCorrect() {
		t.Error("context XOR truth table incorrect")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := XORTruthTableContext(ctx, b, false); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled table returned %v, want context.Canceled", err)
	}
	if _, err := RunContext(ctx, b, []bool{true, false}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled RunContext returned %v, want context.Canceled", err)
	}
	if DefaultEngine() != DefaultEngine() {
		t.Error("DefaultEngine not a singleton")
	}
	if DefaultEngine().Workers() < 1 {
		t.Error("default engine has no workers")
	}
}

func TestMicromagRunContextAborts(t *testing.T) {
	if testing.Short() {
		t.Skip("micromagnetic run")
	}
	m, err := NewMicromagnetic(XOR)
	if err != nil {
		t.Fatal(err)
	}
	// The case steps the half film for about 0.1 s; the deadline lands
	// about a third of the way in.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = m.RunContext(ctx, []bool{false, true})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-integration run returned %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("solver took %v to honor a 30ms deadline", elapsed)
	}
}
