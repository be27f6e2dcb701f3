package detect

import (
	"math"
	"testing"

	"spinwave/internal/vec"
)

func TestNewProbeValidation(t *testing.T) {
	if _, err := NewProbe("p", nil); err == nil {
		t.Error("empty probe accepted")
	}
}

// fillProbe records a synthetic oscillation a·sin(2πft+φ) on a 2-cell probe.
func fillProbe(t *testing.T, f, a, phi, fs float64, n int) *Probe {
	t.Helper()
	p, err := NewProbe("p", []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	m := vec.NewField(2)
	for i := 0; i < n; i++ {
		tt := float64(i) / fs
		v := a * math.Sin(2*math.Pi*f*tt+phi)
		m[0] = vec.V(v, 0, 1)
		m[1] = vec.V(v, 0, 1)
		p.Sample(tt, m)
	}
	return p
}

func TestLockInAmplitudePhase(t *testing.T) {
	f := 10e9
	fs := 40 * f
	p := fillProbe(t, f, 0.02, 0, fs, 800) // 20 periods
	r, err := p.LockIn(f, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Amplitude-0.02) > 1e-6 {
		t.Errorf("amplitude = %g, want 0.02", r.Amplitude)
	}
	// A π-shifted trace reads π away in phase.
	p2 := fillProbe(t, f, 0.02, math.Pi, fs, 800)
	r2, err := p2.LockIn(f, 5)
	if err != nil {
		t.Fatal(err)
	}
	d := math.Abs(math.Mod(math.Abs(r2.Phase-r.Phase), 2*math.Pi) - math.Pi)
	if d > 1e-6 {
		t.Errorf("phase difference deviates from π by %g", d)
	}
}

func TestLockInRemovesDCOffset(t *testing.T) {
	f := 10e9
	fs := 40 * f
	p, _ := NewProbe("p", []int{0})
	m := vec.NewField(1)
	for i := 0; i < 800; i++ {
		tt := float64(i) / fs
		m[0] = vec.V(0.5+0.01*math.Sin(2*math.Pi*f*tt), 0, 1)
		p.Sample(tt, m)
	}
	r, err := p.LockIn(f, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Amplitude-0.01) > 1e-6 {
		t.Errorf("amplitude with DC offset = %g, want 0.01", r.Amplitude)
	}
}

func TestLockInErrors(t *testing.T) {
	p, _ := NewProbe("p", []int{0})
	if _, err := p.LockIn(1e9, 1); err == nil {
		t.Error("lock-in with no samples accepted")
	}
	m := vec.NewField(1)
	for i := 0; i < 10; i++ {
		p.Sample(0, m) // all time stamps equal → dt = 0
	}
	if _, err := p.LockIn(1e9, 1); err == nil {
		t.Error("non-increasing time stamps accepted")
	}
	// Too coarse sampling: 2 samples per window impossible.
	q, _ := NewProbe("q", []int{0})
	for i := 0; i < 10; i++ {
		q.Sample(float64(i), m) // 1 s sampling, ask for 1 GHz
	}
	if _, err := q.LockIn(1e9, 1); err == nil {
		t.Error("coarse sampling accepted")
	}
}

func TestProbeResetAndAccessors(t *testing.T) {
	p := fillProbe(t, 1e9, 0.1, 0, 1e11, 50)
	if p.Len() != 50 {
		t.Errorf("Len = %d", p.Len())
	}
	if len(p.Times()) != 50 || len(p.MX()) != 50 || len(p.MY()) != 50 || len(p.MZ()) != 50 {
		t.Error("accessors length mismatch")
	}
	if p.MZ()[0] != 1 {
		t.Errorf("MZ[0] = %g", p.MZ()[0])
	}
	p.Reset()
	if p.Len() != 0 {
		t.Errorf("Len after Reset = %d", p.Len())
	}
}

// TestNegatedProbe: a probe with Negate set records the plain probe's
// mx and my negated and its mz unchanged, and its Mirror keeps the flag.
func TestNegatedProbe(t *testing.T) {
	m := vec.Field{vec.V(0.1, -0.2, 0.9), vec.V(0.3, 0.05, 0.8)}
	plain, _ := NewProbe("p", []int{0, 1})
	neg, _ := NewProbe("p", []int{0, 1})
	neg.Negate = true
	plain.Sample(0, m)
	neg.Sample(0, m)
	if neg.MX()[0] != -plain.MX()[0] || neg.MY()[0] != -plain.MY()[0] || neg.MZ()[0] != plain.MZ()[0] {
		t.Errorf("negated sample (%g, %g, %g), plain (%g, %g, %g)",
			neg.MX()[0], neg.MY()[0], neg.MZ()[0], plain.MX()[0], plain.MY()[0], plain.MZ()[0])
	}
	if !neg.Mirror().Negate {
		t.Error("Mirror dropped Negate")
	}
}

func TestPhaseDetector(t *testing.T) {
	d := PhaseDetector{RefPhase: 0.3}
	if d.Detect(Readout{Phase: 0.3}) {
		t.Error("reference phase detected as logic 1")
	}
	if !d.Detect(Readout{Phase: 0.3 + math.Pi}) {
		t.Error("π-shifted phase detected as logic 0")
	}
	// Wrapping: phase −π relative to ref +π/2... boundary regions.
	if d.Detect(Readout{Phase: 0.3 + 1.0}) {
		t.Error("phase within π/2 of reference detected as logic 1")
	}
	if !d.Detect(Readout{Phase: 0.3 - 2.0}) {
		t.Error("phase beyond π/2 of reference detected as logic 0")
	}
}

func TestThresholdDetector(t *testing.T) {
	d := ThresholdDetector{Threshold: 0.5, RefAmp: 0.02}
	// Paper §III-B: above threshold ⇒ logic 0; below ⇒ logic 1.
	if d.Detect(Readout{Amplitude: 0.019}) { // normalized 0.95
		t.Error("strong output detected as logic 1")
	}
	if !d.Detect(Readout{Amplitude: 0.001}) { // normalized 0.05
		t.Error("weak output detected as logic 0")
	}
	if got := d.Normalized(Readout{Amplitude: 0.01}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Normalized = %g", got)
	}
	// XNOR: flipped condition.
	x := ThresholdDetector{Threshold: 0.5, RefAmp: 0.02, Inverted: true}
	if !x.Detect(Readout{Amplitude: 0.019}) {
		t.Error("XNOR strong output detected as logic 0")
	}
	if x.Detect(Readout{Amplitude: 0.001}) {
		t.Error("XNOR weak output detected as logic 1")
	}
	// Zero reference amplitude degrades safely.
	z := ThresholdDetector{Threshold: 0.5}
	if got := z.Normalized(Readout{Amplitude: 1}); got != 0 {
		t.Errorf("Normalized with zero ref = %g", got)
	}
}
