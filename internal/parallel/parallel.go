// Package parallel implements the n-bit data-parallel extension of the
// triangle gates: frequency-division multiplexing, as proposed by the
// same authors in "n-bit data parallel spin wave logic gate" (DATE 2020,
// the paper's ref [9]). Each bit rides its own carrier frequency through
// the same physical structure simultaneously; per-bit readout is a
// lock-in at that bit's frequency.
//
// Channel feasibility:
//
//   - every channel wavelength must stay single-mode: λ > 2·w in the
//     solver's exchange-dominated dispersion;
//   - the XOR gate interferes two equal-length paths, so *any* in-band
//     frequency works — its channel plan just spreads carriers far
//     enough apart for lock-in separation;
//   - the Majority gate additionally requires the body path and the I3
//     trunk path to stay phase-matched: their length difference Δ must
//     be an integer number m of the channel wavelength, giving the
//     discrete ladder λ_m = Δ/m.
package parallel

import (
	"fmt"
	"math"
	"math/cmplx"

	"spinwave/internal/core"
	"spinwave/internal/dispersion"
	"spinwave/internal/layout"
	"spinwave/internal/material"
	"spinwave/internal/phasor"
	"spinwave/internal/units"
)

// Channel is one frequency-multiplexed bit lane.
type Channel struct {
	Bit    int
	Lambda float64 // m
	K      float64 // rad/m
	Freq   float64 // Hz (solver-matched dispersion branch)
	// BaseMultiple is Freq expressed as an integer multiple of the
	// plan's base frequency (0 when the plan has no common base, e.g.
	// the Majority ladder).
	BaseMultiple int
}

// Plan is a set of channels plus, when available, the common base
// frequency every carrier is an integer multiple of — a lock-in window
// holding whole base periods is then exactly orthogonal across channels
// (zero inter-channel leakage for steady tones).
type Plan struct {
	Channels []Channel
	FBase    float64 // Hz; 0 when no common base exists
}

// MinSeparation is the minimum relative frequency spacing between
// channels so finite-window lock-ins stay separable.
const MinSeparation = 0.12

// baseDivision is the grid divisor: carriers snap onto multiples of
// f_design/baseDivision.
const baseDivision = 8

// PlanXORChannels picks n single-mode channels for the XOR structure:
// the design wavelength first, then longer wavelengths, with every
// carrier snapped onto the common frequency grid f0/8 so multiplexed
// readout windows can be made exactly orthogonal.
func PlanXORChannels(spec layout.Spec, mat material.Params, n int) (Plan, error) {
	if n < 1 || n > 8 {
		return Plan{}, fmt.Errorf("parallel: channel count %d outside [1,8]", n)
	}
	if err := spec.Validate(); err != nil {
		return Plan{}, err
	}
	model, err := dispersion.New(mat, units.NM(1), dispersion.LocalDemag)
	if err != nil {
		return Plan{}, err
	}
	k0 := units.WaveNumber(spec.Lambda)
	f0 := model.Frequency(k0)
	fBase := f0 / baseDivision
	plan := Plan{FBase: fBase}
	kMax := units.WaveNumber(2 * spec.Width) // single-mode band edge
	targetLambda := spec.Lambda
	for bit := 0; bit < n; bit++ {
		if targetLambda <= 2*spec.Width {
			return Plan{}, fmt.Errorf("parallel: channel %d wavelength %.3g below single-mode limit %.3g",
				bit, targetLambda, 2*spec.Width)
		}
		fTarget := model.Frequency(units.WaveNumber(targetLambda))
		mult := int(math.Round(fTarget / fBase))
		if mult < 1 {
			return Plan{}, fmt.Errorf("parallel: channel %d below the frequency grid", bit)
		}
		f := float64(mult) * fBase
		if f <= model.Frequency(0) {
			return Plan{}, fmt.Errorf("parallel: channel %d frequency %.3g GHz below the band gap", bit, units.ToGHz(f))
		}
		k, err := model.SolveK(f, kMax)
		if err != nil {
			return Plan{}, fmt.Errorf("parallel: channel %d: %w", bit, err)
		}
		lambda := units.Wavelength(k)
		if lambda <= 2*spec.Width {
			return Plan{}, fmt.Errorf("parallel: channel %d snapped wavelength %.3g multimode", bit, lambda)
		}
		if len(plan.Channels) > 0 {
			prev := plan.Channels[len(plan.Channels)-1].Freq
			if math.Abs(prev-f)/prev < MinSeparation {
				return Plan{}, fmt.Errorf("parallel: channels %d/%d too close in frequency", bit-1, bit)
			}
		}
		plan.Channels = append(plan.Channels, Channel{
			Bit: bit, Lambda: lambda, K: k, Freq: f, BaseMultiple: mult,
		})
		targetLambda *= 1.5 // next carrier: longer wavelength, lower frequency
	}
	return plan, nil
}

// PlanMAJChannels picks up to n channels satisfying the Majority phase-
// matching ladder λ_m = Δ/m, where Δ = |(d2+d3) − (2·d1+body)| is the
// path-length difference between the I3 trunk route and the body route.
func PlanMAJChannels(spec layout.Spec, mat material.Params, n int) ([]Channel, error) {
	if n < 1 || n > 8 {
		return nil, fmt.Errorf("parallel: channel count %d outside [1,8]", n)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	deltaN := (spec.D2N + spec.D3N) - (2*spec.D1N + spec.BodyN)
	if deltaN < 0 {
		deltaN = -deltaN
	}
	if deltaN == 0 {
		return nil, fmt.Errorf("parallel: degenerate geometry (equal path lengths) has no channel ladder")
	}
	delta := float64(deltaN) * spec.Lambda
	model, err := dispersion.New(mat, units.NM(1), dispersion.LocalDemag)
	if err != nil {
		return nil, err
	}
	var out []Channel
	var prevF float64
	for m := 1; m <= 8*deltaN && len(out) < n; m++ {
		lambda := delta / float64(m)
		if lambda <= 2*spec.Width {
			break // shorter wavelengths are multimode
		}
		// Keep channels within a factor ~2 of the design wavelength so
		// the waveguide stays a good fit (w ≤ λ).
		if lambda > 2.2*spec.Lambda || spec.Width > lambda {
			continue
		}
		k := units.WaveNumber(lambda)
		f := model.Frequency(k)
		if prevF != 0 && math.Abs(prevF-f)/prevF < MinSeparation {
			continue
		}
		out = append(out, Channel{Bit: len(out), Lambda: lambda, K: k, Freq: f})
		prevF = f
	}
	if len(out) < n {
		return nil, fmt.Errorf("parallel: geometry supports only %d of %d requested channels", len(out), n)
	}
	return out, nil
}

// Word is an n-bit value, least significant bit first, one bit per
// frequency channel.
type Word []bool

// Uint converts the word to an integer (bit 0 = LSB).
func (w Word) Uint() uint {
	var v uint
	for i, b := range w {
		if b {
			v |= 1 << i
		}
	}
	return v
}

// WordFromUint builds an n-bit word from an integer.
func WordFromUint(v uint, n int) Word {
	w := make(Word, n)
	for i := range w {
		w[i] = v&(1<<i) != 0
	}
	return w
}

// Gate is an n-bit data-parallel behavioral gate: one phasor network per
// channel over the same layout.
type Gate struct {
	Kind     core.GateKind
	Channels []Channel
	nets     []*phasor.Network
	refs     []map[string]complex128 // all-zeros reference per channel
}

// NewGate builds an n-bit parallel gate of the given kind (XOR or MAJ3)
// with an automatically planned channel set.
func NewGate(kind core.GateKind, spec layout.Spec, mat material.Params, nbits int) (*Gate, error) {
	var (
		channels []Channel
		l        *layout.Layout
		err      error
	)
	switch kind {
	case core.XOR:
		var plan Plan
		plan, err = PlanXORChannels(spec, mat, nbits)
		if err != nil {
			return nil, err
		}
		channels = plan.Channels
		l, err = layout.BuildXOR(spec)
	case core.MAJ3:
		channels, err = PlanMAJChannels(spec, mat, nbits)
		if err != nil {
			return nil, err
		}
		l, err = layout.BuildMAJ3(spec, false)
	default:
		return nil, fmt.Errorf("parallel: %w: unsupported gate kind %s", layout.ErrUnknownGate, kind)
	}
	if err != nil {
		return nil, err
	}
	model, err := dispersion.New(mat, units.NM(1), dispersion.LocalDemag)
	if err != nil {
		return nil, err
	}
	g := &Gate{Kind: kind, Channels: channels}
	zero := map[string]complex128{}
	for _, name := range kind.InputNames() {
		zero[name] = phasor.Drive(false)
	}
	for _, ch := range channels {
		net, err := phasor.New(l, ch.K, model.AttenuationLength(ch.K))
		if err != nil {
			return nil, err
		}
		net.JunctionLoss = 0.9
		ref, err := net.Evaluate(zero)
		if err != nil {
			return nil, err
		}
		g.nets = append(g.nets, net)
		g.refs = append(g.refs, ref)
	}
	return g, nil
}

// NBits returns the word width.
func (g *Gate) NBits() int { return len(g.Channels) }

// Eval evaluates the parallel gate: words[i] is the n-bit word on input
// I(i+1). It returns the decoded n-bit word at each output, keyed by
// output name. Each frequency channel is an independent phasor network,
// evaluated in turn.
func (g *Gate) Eval(words ...Word) (map[string]Word, error) {
	names := g.Kind.InputNames()
	if len(words) != len(names) {
		return nil, fmt.Errorf("parallel: %w: %s needs %d input words, got %d",
			layout.ErrBadInputCount, g.Kind, len(names), len(words))
	}
	for i, w := range words {
		if len(w) != g.NBits() {
			return nil, fmt.Errorf("parallel: %w: input %s word has %d bits, gate has %d channels",
				layout.ErrBadInputCount, names[i], len(w), g.NBits())
		}
	}
	initMetrics()
	mWords.Inc()
	out := map[string]Word{}
	for ci, net := range g.nets {
		mChannels.Inc()
		drives := map[string]complex128{}
		for ii, name := range names {
			drives[name] = phasor.Drive(words[ii][ci])
		}
		res, err := net.Evaluate(drives)
		if err != nil {
			return nil, err
		}
		for name, v := range res {
			if _, ok := out[name]; !ok {
				out[name] = make(Word, g.NBits())
			}
			ref := g.refs[ci][name]
			if g.Kind == core.XOR {
				out[name][ci] = phasor.LogicFromThreshold(v, ref, 0.5, false)
			} else {
				out[name][ci] = phasor.LogicFromPhase(v, ref)
			}
		}
	}
	return out, nil
}

// channelAmplitude is exposed for diagnostics: the normalized magnitude
// of output `name` on channel ci for the given drive words.
func (g *Gate) channelAmplitude(words []Word, ci int, name string) (float64, error) {
	names := g.Kind.InputNames()
	drives := map[string]complex128{}
	for ii, n := range names {
		drives[n] = phasor.Drive(words[ii][ci])
	}
	res, err := g.nets[ci].Evaluate(drives)
	if err != nil {
		return 0, err
	}
	ref := g.refs[ci][name]
	if cmplx.Abs(ref) == 0 {
		return 0, nil
	}
	return cmplx.Abs(res[name]) / cmplx.Abs(ref), nil
}
