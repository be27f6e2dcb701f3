package parallel

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"spinwave/internal/core"
	"spinwave/internal/layout"
	"spinwave/internal/material"
)

func TestPlanXORChannels(t *testing.T) {
	spec := layout.PaperMicromagSpec()
	plan, err := PlanXORChannels(spec, material.FeCoB(), 3)
	if err != nil {
		t.Fatal(err)
	}
	chs := plan.Channels
	if len(chs) != 3 {
		t.Fatalf("channels = %d", len(chs))
	}
	if plan.FBase <= 0 {
		t.Fatal("no base frequency")
	}
	for i, ch := range chs {
		if ch.Lambda <= 2*spec.Width {
			t.Errorf("channel %d multimode: λ=%g", i, ch.Lambda)
		}
		if ch.Freq <= 0 {
			t.Errorf("channel %d frequency %g", i, ch.Freq)
		}
		// Every carrier sits exactly on the base grid — the property
		// that makes the multiplexed lock-ins orthogonal.
		if ch.BaseMultiple < 1 || math.Abs(ch.Freq-float64(ch.BaseMultiple)*plan.FBase) > 1e-3 {
			t.Errorf("channel %d off the base grid: f=%g, mult=%d, base=%g",
				i, ch.Freq, ch.BaseMultiple, plan.FBase)
		}
		if i > 0 {
			sep := math.Abs(chs[i-1].Freq-ch.Freq) / chs[i-1].Freq
			if sep < MinSeparation {
				t.Errorf("channels %d/%d separation %.3f too small", i-1, i, sep)
			}
		}
	}
	if _, err := PlanXORChannels(spec, material.FeCoB(), 0); err == nil {
		t.Error("zero channels accepted")
	}
	if _, err := PlanXORChannels(layout.Spec{}, material.FeCoB(), 2); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestPlanMAJChannels(t *testing.T) {
	spec := layout.PaperMicromagSpec()
	// Δ = (16+4) − (2·6+2) = 6λ → ladder λ, 6λ/5, 6λ/4, ... with the
	// single-mode and separation filters applied.
	chs, err := PlanMAJChannels(spec, material.FeCoB(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(chs) != 2 {
		t.Fatalf("channels = %d", len(chs))
	}
	delta := 6 * spec.Lambda
	for _, ch := range chs {
		ratio := delta / ch.Lambda
		if math.Abs(ratio-math.Round(ratio)) > 1e-9 {
			t.Errorf("channel λ=%.3g does not divide Δ: ratio %.6f", ch.Lambda, ratio)
		}
		if ch.Lambda <= 2*spec.Width {
			t.Errorf("channel multimode: λ=%g", ch.Lambda)
		}
	}
	// Asking for too many channels must fail loudly.
	if _, err := PlanMAJChannels(spec, material.FeCoB(), 8); err == nil {
		t.Error("infeasible channel count accepted")
	}
}

func TestWordConversions(t *testing.T) {
	w := WordFromUint(0b101, 3)
	if !w[0] || w[1] || !w[2] {
		t.Errorf("WordFromUint = %v", w)
	}
	if w.Uint() != 5 {
		t.Errorf("Uint = %d", w.Uint())
	}
	if got := WordFromUint(0, 4).Uint(); got != 0 {
		t.Errorf("zero word = %d", got)
	}
}

func TestParallelXORBehavioralExhaustive(t *testing.T) {
	g, err := NewGate(core.XOR, layout.PaperMicromagSpec(), material.FeCoB(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NBits() != 3 {
		t.Fatalf("bits = %d", g.NBits())
	}
	for a := uint(0); a < 8; a++ {
		for b := uint(0); b < 8; b++ {
			out, err := g.Eval(WordFromUint(a, 3), WordFromUint(b, 3))
			if err != nil {
				t.Fatal(err)
			}
			want := a ^ b
			for name, w := range out {
				if w.Uint() != want {
					t.Errorf("%d^%d at %s = %d, want %d", a, b, name, w.Uint(), want)
				}
			}
		}
	}
}

func TestParallelMAJBehavioral(t *testing.T) {
	g, err := NewGate(core.MAJ3, layout.PaperMicromagSpec(), material.FeCoB(), 2)
	if err != nil {
		t.Fatal(err)
	}
	f := func(aRaw, bRaw, cRaw uint8) bool {
		a := WordFromUint(uint(aRaw)&3, 2)
		b := WordFromUint(uint(bRaw)&3, 2)
		c := WordFromUint(uint(cRaw)&3, 2)
		out, err := g.Eval(a, b, c)
		if err != nil {
			return false
		}
		for ci := 0; ci < 2; ci++ {
			cnt := 0
			for _, w := range []Word{a, b, c} {
				if w[ci] {
					cnt++
				}
			}
			want := cnt >= 2
			if out["O1"][ci] != want || out["O2"][ci] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
		t.Error(err)
	}
}

func TestGateEvalValidation(t *testing.T) {
	g, err := NewGate(core.XOR, layout.PaperMicromagSpec(), material.FeCoB(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Eval(WordFromUint(1, 2)); err == nil {
		t.Error("missing word accepted")
	}
	if _, err := g.Eval(WordFromUint(1, 3), WordFromUint(1, 2)); err == nil {
		t.Error("wrong width accepted")
	}
	if _, err := NewGate(core.MAJ3Single, layout.PaperMicromagSpec(), material.FeCoB(), 1); err == nil {
		t.Error("unsupported kind accepted")
	}
}

func TestChannelAmplitudeDiagnostic(t *testing.T) {
	g, err := NewGate(core.XOR, layout.PaperMicromagSpec(), material.FeCoB(), 2)
	if err != nil {
		t.Fatal(err)
	}
	same := []Word{WordFromUint(0, 2), WordFromUint(0, 2)}
	diff := []Word{WordFromUint(3, 2), WordFromUint(0, 2)}
	for ci := 0; ci < 2; ci++ {
		a0, err := g.channelAmplitude(same, ci, "O1")
		if err != nil {
			t.Fatal(err)
		}
		a1, err := g.channelAmplitude(diff, ci, "O1")
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a0-1) > 1e-9 {
			t.Errorf("channel %d equal-input amplitude %g", ci, a0)
		}
		if a1 > 1e-9 {
			t.Errorf("channel %d unequal-input amplitude %g", ci, a1)
		}
	}
}

// TestMicromagParallelXOR2Bit is the flagship extension experiment: two
// XOR operations ride through one physical gate simultaneously on two
// carrier frequencies and are recovered independently.
func TestMicromagParallelXOR2Bit(t *testing.T) {
	if testing.Short() {
		t.Skip("micromagnetic integration test")
	}
	p, err := NewMicromagXOR(layout.ReducedSpec(), material.FeCoB(), 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ a, b, want uint }{
		{0b00, 0b00, 0b00},
		{0b01, 0b00, 0b01}, // channel 0 destructive... wait: XOR(1,0)=1
		{0b10, 0b11, 0b01},
		{0b11, 0b11, 0b00},
	}
	for _, c := range cases {
		out, norm, err := p.Run(WordFromUint(c.a, 2), WordFromUint(c.b, 2))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"O1", "O2"} {
			if got := out[name].Uint(); got != c.want {
				t.Errorf("%02b^%02b at %s = %02b, want %02b (norm %v)",
					c.a, c.b, name, got, c.want, norm[name])
			}
		}
	}
}

func TestGateEvalValidationSentinel(t *testing.T) {
	g, err := NewGate(core.XOR, layout.PaperMicromagSpec(), material.FeCoB(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Eval(WordFromUint(1, 2)); !errors.Is(err, layout.ErrBadInputCount) {
		t.Fatalf("one-word XOR eval returned %v, want ErrBadInputCount", err)
	}
	if _, err := g.Eval(WordFromUint(1, 2), Word{true}); !errors.Is(err, layout.ErrBadInputCount) {
		t.Fatalf("short word returned %v, want ErrBadInputCount", err)
	}
}
