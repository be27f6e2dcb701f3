package excite

import (
	"math"
	"testing"

	"spinwave/internal/vec"
)

func TestNewAntennaValidation(t *testing.T) {
	if _, err := NewAntenna("a", nil, vec.UnitX, 1e-3, 1e9, 0); err == nil {
		t.Error("empty cell list accepted")
	}
	if _, err := NewAntenna("a", []int{0}, vec.Zero, 1e-3, 1e9, 0); err == nil {
		t.Error("zero direction accepted")
	}
	if _, err := NewAntenna("a", []int{0}, vec.UnitX, -1, 1e9, 0); err == nil {
		t.Error("negative amplitude accepted")
	}
	if _, err := NewAntenna("a", []int{0}, vec.UnitX, 1e-3, 0, 0); err == nil {
		t.Error("zero frequency accepted")
	}
	a, err := NewAntenna("a", []int{0}, vec.V(2, 0, 0), 1e-3, 1e9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Dir != vec.UnitX {
		t.Errorf("direction not normalized: %v", a.Dir)
	}
}

func TestAntennaField(t *testing.T) {
	a, _ := NewAntenna("a", []int{1}, vec.UnitX, 2e-3, 1e9, 0)
	B := vec.NewField(3)
	// Quarter period: sin(π/2) = 1 → full amplitude at the covered cell.
	a.AddTo(0.25e-9, B)
	if math.Abs(B[1].X-2e-3) > 1e-12 {
		t.Errorf("B[1].X = %g, want 2e-3", B[1].X)
	}
	if B[0] != vec.Zero || B[2] != vec.Zero {
		t.Error("antenna leaked outside its cells")
	}
}

func TestAntennaPhaseEncoding(t *testing.T) {
	a0, _ := NewAntenna("a0", []int{0}, vec.UnitX, 1e-3, 1e9, 0)
	a1, _ := NewAntenna("a1", []int{0}, vec.UnitX, 1e-3, 1e9, 0)
	a1.SetLogic(true)
	// Logic-1 drive is the exact negation of the logic-0 drive, bit for
	// bit: the complement symmetry of a whole run rests on it.
	for _, tt := range []float64{0.1e-9, 0.3e-9, 0.77e-9} {
		b0 := vec.NewField(1)
		b1 := vec.NewField(1)
		a0.AddTo(tt, b0)
		a1.AddTo(tt, b1)
		if b1[0].X != -b0[0].X {
			t.Errorf("t=%g: fields not antiphase: %g vs %g", tt, b0[0].X, b1[0].X)
		}
	}
	if a0.Logic() || !a1.Logic() {
		t.Error("Logic() readback wrong")
	}
	a1.SetLogic(false)
	if a1.Phase != 0 || a1.Logic() {
		t.Error("SetLogic(false) wrong")
	}
	// A phase trim (the I3 trim) rides on both levels and keeps the
	// negation exact.
	a0.Phase, a1.Phase = -1.43, -1.43
	a1.SetLogic(true)
	b0, b1 := vec.NewField(1), vec.NewField(1)
	a0.AddTo(0.3e-9, b0)
	a1.AddTo(0.3e-9, b1)
	if b1[0].X != -b0[0].X || !a1.Logic() {
		t.Errorf("trimmed logic 1 %g is not the negation of logic 0 %g", b1[0].X, b0[0].X)
	}
}

func TestConstantEnvelope(t *testing.T) {
	e := ConstantEnvelope()
	if e(-1) != 0 || e(0) != 1 || e(1e9) != 1 {
		t.Error("constant envelope wrong")
	}
}

func TestRampEnvelope(t *testing.T) {
	e := RampEnvelope(1e-9)
	if e(0) != 0 {
		t.Errorf("ramp(0) = %g", e(0))
	}
	if got := e(0.5e-9); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("ramp(mid) = %g, want 0.5", got)
	}
	if e(2e-9) != 1 {
		t.Errorf("ramp(after) = %g", e(2e-9))
	}
	// Monotone non-decreasing.
	prev := -1.0
	for x := 0.0; x <= 1.5e-9; x += 0.05e-9 {
		v := e(x)
		if v < prev {
			t.Fatalf("ramp not monotone at %g", x)
		}
		prev = v
	}
}

func TestPulseEnvelope(t *testing.T) {
	rise, width := 20e-12, 100e-12
	e := PulseEnvelope(rise, width)
	if e(0) != 0 {
		t.Errorf("pulse(0) = %g", e(0))
	}
	if e(50e-12) != 1 {
		t.Errorf("pulse(plateau) = %g", e(50e-12))
	}
	if e(width+rise) != 0 || e(1) != 0 {
		t.Error("pulse did not return to zero")
	}
	// Smooth rise and fall midpoints.
	if got := e(10e-12); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("pulse rise mid = %g", got)
	}
	if got := e(width + rise/2); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("pulse fall mid = %g", got)
	}
}

func TestAntennaWithEnvelopeZeroBeforeStart(t *testing.T) {
	a, _ := NewAntenna("a", []int{0}, vec.UnitX, 1e-3, 1e9, 0)
	a.Env = RampEnvelope(1e-9)
	B := vec.NewField(1)
	a.AddTo(0, B)
	if B[0] != vec.Zero {
		t.Errorf("field before ramp start: %v", B[0])
	}
}
