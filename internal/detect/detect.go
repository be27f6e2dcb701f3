// Package detect implements the output stage of a spin-wave device
// (paper §II-B stage 4): probes that record the average in-plane
// magnetization of a detection region over time, lock-in analysis of the
// recorded trace at the drive frequency, and the two readout schemes the
// paper uses — phase detection (Majority gate, §III-A) and threshold
// detection (XOR gate, §III-B).
package detect

import (
	"fmt"
	"math"

	"spinwave/internal/dsp"
	"spinwave/internal/vec"
)

// Probe records the spatially averaged magnetization of a cell set.
type Probe struct {
	Name  string
	Cells []int

	times []float64
	mx    []float64
	my    []float64
	mz    []float64
}

// NewProbe constructs a probe over the given flat cell indices.
func NewProbe(name string, cells []int) (*Probe, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("detect: probe %q covers no cells", name)
	}
	return &Probe{Name: name, Cells: cells}, nil
}

// Sample appends the current average magnetization over the probe cells.
func (p *Probe) Sample(t float64, m vec.Field) {
	avg := m.Average(p.Cells)
	p.times = append(p.times, t)
	p.mx = append(p.mx, avg.X)
	p.my = append(p.my, avg.Y)
	p.mz = append(p.mz, avg.Z)
}

// Len returns the number of recorded samples.
func (p *Probe) Len() int { return len(p.times) }

// Reset clears the recorded trace (keeps the cell set).
func (p *Probe) Reset() {
	p.times = p.times[:0]
	p.mx = p.mx[:0]
	p.my = p.my[:0]
	p.mz = p.mz[:0]
}

// Restore replaces the recorded trace with the given sample series —
// the checkpoint-resume path (DESIGN.md §15): a resumed run reloads the
// samples accumulated before the interruption so the final lock-in
// window sees exactly the trace an uninterrupted run would have. The
// four slices must have equal length; they are copied.
func (p *Probe) Restore(times, mx, my, mz []float64) error {
	n := len(times)
	if len(mx) != n || len(my) != n || len(mz) != n {
		return fmt.Errorf("detect: probe %q restore: mismatched sample lengths %d/%d/%d/%d",
			p.Name, n, len(mx), len(my), len(mz))
	}
	p.times = append(p.times[:0], times...)
	p.mx = append(p.mx[:0], mx...)
	p.my = append(p.my[:0], my...)
	p.mz = append(p.mz[:0], mz...)
	return nil
}

// Times returns the sample time stamps.
func (p *Probe) Times() []float64 { return p.times }

// MX returns the recorded average in-plane x component, the precession
// component analyzed by the lock-in.
func (p *Probe) MX() []float64 { return p.mx }

// MY returns the recorded average y component.
func (p *Probe) MY() []float64 { return p.my }

// MZ returns the recorded average z component.
func (p *Probe) MZ() []float64 { return p.mz }

// Mirror returns a copy of the probe with its mx and my series negated:
// the trace the same probe records on the run whose magnetization is
// this run's rotated by π about z.
func (p *Probe) Mirror() *Probe {
	q := &Probe{Name: p.Name, Cells: p.Cells,
		times: append([]float64(nil), p.times...),
		mx:    make([]float64, len(p.mx)),
		my:    make([]float64, len(p.my)),
		mz:    append([]float64(nil), p.mz...),
	}
	for i, v := range p.mx {
		q.mx[i] = -v
	}
	for i, v := range p.my {
		q.my[i] = -v
	}
	return q
}

// Readout is the lock-in result at one probe.
type Readout struct {
	Probe     string
	Amplitude float64 // precession amplitude of ⟨mx⟩ at the drive frequency
	Phase     float64 // phase in (−π, π]
}

// Phasor returns the readout as a complex amplitude A·e^(iφ) — the
// linear-superposition representation the surrogate model stores and
// sums (a lock-in measurement at fixed frequency is exactly one phasor).
func (r Readout) Phasor() complex128 {
	return complex(r.Amplitude*math.Cos(r.Phase), r.Amplitude*math.Sin(r.Phase))
}

// FromPhasor converts a complex amplitude back into a Readout for the
// named probe, the inverse of Phasor.
func FromPhasor(probe string, v complex128) Readout {
	return Readout{
		Probe:     probe,
		Amplitude: math.Hypot(real(v), imag(v)),
		Phase:     math.Atan2(imag(v), real(v)),
	}
}

// LockIn analyzes the final window of the probe's mx trace at frequency f.
// The window covers the last `periods` full drive periods (at least one
// sample). It returns an error when fewer samples than one period are
// available or the sampling is irregular enough to be meaningless.
func (p *Probe) LockIn(f float64, periods int) (Readout, error) {
	if len(p.times) < 4 {
		return Readout{}, fmt.Errorf("detect: probe %q has only %d samples", p.Name, len(p.times))
	}
	if periods < 1 {
		periods = 1
	}
	dt := (p.times[len(p.times)-1] - p.times[0]) / float64(len(p.times)-1)
	if dt <= 0 {
		return Readout{}, fmt.Errorf("detect: probe %q has non-increasing time stamps", p.Name)
	}
	fs := 1 / dt
	window := int(math.Round(float64(periods) / f / dt))
	if window < 2 {
		return Readout{}, fmt.Errorf("detect: probe %q sampled too coarsely for f=%g", p.Name, f)
	}
	if window > len(p.mx) {
		window = len(p.mx)
	}
	seg := dsp.Detrend(p.mx[len(p.mx)-window:])
	amp, phase, err := dsp.Goertzel(seg, fs, f)
	if err != nil {
		return Readout{}, fmt.Errorf("detect: probe %q: %w", p.Name, err)
	}
	// Anchor the phase to the global t = 0 drive clock rather than the
	// analysis-window start, so readouts from runs of different lengths
	// are directly comparable (a hardware lock-in references the drive
	// oscillator the same way).
	t0 := p.times[len(p.times)-window]
	phase = dsp.PhaseDiff(phase, 2*math.Pi*f*t0)
	return Readout{Probe: p.Name, Amplitude: amp, Phase: phase}, nil
}

// PhaseDetector implements the paper's phase readout: an output whose
// phase is within π/2 of the reference is logic 0, otherwise logic 1.
type PhaseDetector struct {
	RefPhase float64 // phase representing logic 0
}

// Detect returns the logic level for a readout phase.
func (d PhaseDetector) Detect(r Readout) bool {
	return math.Abs(dsp.PhaseDiff(r.Phase, d.RefPhase)) > math.Pi/2
}

// ThresholdDetector implements the paper's threshold readout for the
// X(N)OR gate: normalized magnetization above the threshold is logic 0
// and below is logic 1; Inverted flips the convention, yielding XNOR
// (§III-B).
type ThresholdDetector struct {
	Threshold float64 // compare against normalized amplitude, paper uses 0.5
	RefAmp    float64 // amplitude representing "1.0" (the {0,0} case)
	Inverted  bool
}

// Normalized returns the normalized amplitude r.Amplitude / RefAmp.
func (d ThresholdDetector) Normalized(r Readout) float64 {
	if d.RefAmp == 0 {
		return 0
	}
	return r.Amplitude / d.RefAmp
}

// Detect returns the logic level for a readout.
func (d ThresholdDetector) Detect(r Readout) bool {
	above := d.Normalized(r) > d.Threshold
	if d.Inverted {
		return above
	}
	return !above
}
