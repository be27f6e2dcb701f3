// Package excite models spin-wave transducers as localized time-dependent
// magnetic field sources (microstrip antennas / magnetoelectric cells in
// field-equivalent form, paper §II-B stage 1: "SW creation").
//
// An Antenna applies an in-plane RF field B(t) = B0·sin(2πft + φ)·env(t)
// over a small set of cells. Logic values are encoded in the phase, as the
// paper prescribes: phase 0 for logic 0 and phase π for logic 1. A phase
// of π is applied as the exact negation of the logic-0 field, so the
// drive of a complemented input vector is bit-for-bit the mirror of the
// original's.
package excite

import (
	"fmt"
	"math"

	"spinwave/internal/vec"
)

// Envelope shapes the drive amplitude over time. It must return a factor
// in [0, 1].
type Envelope func(t float64) float64

// ConstantEnvelope drives at full amplitude for all t ≥ 0.
func ConstantEnvelope() Envelope {
	return func(t float64) float64 {
		if t < 0 {
			return 0
		}
		return 1
	}
}

// RampEnvelope rises smoothly (smoothstep) from 0 to 1 over rise seconds
// and stays at 1 afterwards. A soft turn-on avoids exciting a broadband
// transient that would pollute the lock-in readout.
func RampEnvelope(rise float64) Envelope {
	return func(t float64) float64 {
		if t <= 0 {
			return 0
		}
		if t >= rise {
			return 1
		}
		u := t / rise
		return u * u * (3 - 2*u)
	}
}

// PulseEnvelope rises over rise seconds, holds at 1 until width, then
// falls symmetrically; zero after width+rise. It models the paper's
// 100 ps excitation pulses (§IV-D assumption (vi)).
func PulseEnvelope(rise, width float64) Envelope {
	return func(t float64) float64 {
		switch {
		case t <= 0 || t >= width+rise:
			return 0
		case t < rise:
			u := t / rise
			return u * u * (3 - 2*u)
		case t <= width:
			return 1
		default:
			u := (width + rise - t) / rise
			return u * u * (3 - 2*u)
		}
	}
}

// Antenna is a localized RF field source implementing mag.Source.
type Antenna struct {
	Name  string
	Cells []int      // flat cell indices covered by the antenna
	Dir   vec.Vector // unit field direction (in-plane for FVSW excitation)
	B0    float64    // field amplitude, T
	Freq  float64    // drive frequency, Hz
	Phase float64    // drive phase trim, rad, on top of the logic encoding
	Env   Envelope   // amplitude envelope; nil means constant

	// one is the logic level: logic 1 negates the logic-0 field exactly,
	// which sin(2πft+φ+π) would only do to round-off.
	one bool
}

// NewAntenna validates and constructs an antenna.
func NewAntenna(name string, cells []int, dir vec.Vector, b0, freq, phase float64) (*Antenna, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("excite: antenna %q covers no cells", name)
	}
	if dir.Norm() == 0 {
		return nil, fmt.Errorf("excite: antenna %q has zero field direction", name)
	}
	if b0 < 0 {
		return nil, fmt.Errorf("excite: antenna %q amplitude %g must be non-negative", name, b0)
	}
	if freq <= 0 {
		return nil, fmt.Errorf("excite: antenna %q frequency %g must be positive", name, freq)
	}
	return &Antenna{
		Name:  name,
		Cells: cells,
		Dir:   dir.Normalized(),
		B0:    b0,
		Freq:  freq,
		Phase: phase,
	}, nil
}

// AddTo implements mag.Source.
func (a *Antenna) AddTo(t float64, B vec.Field) {
	env := 1.0
	if a.Env != nil {
		env = a.Env(t)
	}
	if env == 0 || a.B0 == 0 {
		return
	}
	amp := a.B0 * env * math.Sin(2*math.Pi*a.Freq*t+a.Phase)
	if a.one {
		amp = -amp
	}
	for _, c := range a.Cells {
		B[c] = B[c].MAdd(amp, a.Dir)
	}
}

// SourceCells implements mag.SparseSource: the antenna only ever writes
// its fixed cell footprint, so the parallel stepper can treat it as a
// sparse overlay instead of sweeping the whole mesh.
func (a *Antenna) SourceCells() []int { return a.Cells }

// SetLogic sets the logic level (paper §III-A step (i)): 0 ⇒ phase 0,
// 1 ⇒ phase π, applied as the exact negation of the logic-0 field.
// Phase, the trim on top of the encoding, is left as it is.
func (a *Antenna) SetLogic(level bool) { a.one = level }

// Logic returns the logic level the antenna encodes.
func (a *Antenna) Logic() bool { return a.one }
