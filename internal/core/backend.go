package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"spinwave/internal/detect"
	"spinwave/internal/dispersion"
	"spinwave/internal/layout"
	"spinwave/internal/material"
	"spinwave/internal/phasor"
	"spinwave/internal/units"
)

// Sentinel errors, re-exported from layout (the bottom of the dependency
// graph) so every layer wraps the same values.
var (
	// ErrUnknownGate reports an unrecognized gate kind.
	ErrUnknownGate = layout.ErrUnknownGate
	// ErrBadInputCount reports an input slice of the wrong length.
	ErrBadInputCount = layout.ErrBadInputCount
	// ErrUnknownComponent reports a lookup of something that doesn't exist.
	ErrUnknownComponent = layout.ErrUnknownComponent
)

// buildLayout constructs the layout for a gate kind.
func buildLayout(kind GateKind, spec layout.Spec) (*layout.Layout, error) {
	switch kind {
	case MAJ3:
		return layout.BuildMAJ3(spec, false)
	case MAJ3Single:
		return layout.BuildMAJ3(spec, true)
	case XOR:
		return layout.BuildXOR(spec)
	case MAJ5:
		return layout.BuildMAJ5(spec)
	default:
		return nil, fmt.Errorf("core: %w: gate kind %d", ErrUnknownGate, int(kind))
	}
}

// checkInputs validates the input count for a gate kind.
func checkInputs(kind GateKind, inputs []bool) error {
	if want := kind.NumInputs(); len(inputs) != want {
		return fmt.Errorf("core: %w: %s needs %d inputs, got %d", ErrBadInputCount, kind, want, len(inputs))
	}
	return nil
}

// ContextBackend is implemented by backends with native context support:
// RunContext behaves like Run but honors cancellation and deadlines
// while the evaluation is in progress.
type ContextBackend interface {
	Backend
	RunContext(ctx context.Context, inputs []bool) (map[string]detect.Readout, error)
}

// RunContext evaluates one case on any Backend with context support: a
// ContextBackend runs natively (the micromagnetic backend aborts within
// one integrator step of cancellation); for plain backends this is the
// default adapter — the context is checked once up front and the
// evaluation then runs to completion.
func RunContext(ctx context.Context, b Backend, inputs []bool) (map[string]detect.Readout, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cb, ok := b.(ContextBackend); ok {
		return cb.RunContext(ctx, inputs)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return b.Run(inputs)
}

// Fingerprinter is implemented by backends whose evaluation is a pure
// function of an enumerable configuration. Fingerprint returns a
// canonical identity string covering everything the readout depends on
// (gate kind, geometry, material, solver settings); ok is false when the
// backend cannot be canonically described (e.g. a region-mutator hook is
// installed) and results must not be cached.
type Fingerprinter interface {
	Fingerprint() (key string, ok bool)
}

// hashKey reduces a canonical description to a stable hex digest.
func hashKey(canonical string) string {
	sum := sha256.Sum256([]byte(canonical))
	return hex.EncodeToString(sum[:16])
}

// Behavioral is the fast phasor-network backend. Net must not be
// mutated after construction: its junction loss and attenuation length
// are hashed into the fingerprint once, by NewBehavioral.
type Behavioral struct {
	kind GateKind
	L    *layout.Layout
	Net  *phasor.Network

	spec layout.Spec
	mat  material.Params
	fp   string // Fingerprint, computed once by NewBehavioral
}

// NewBehavioral builds a behavioral backend for the gate. The wave number
// comes from the spec wavelength, the attenuation length from the
// material's LocalDemag dispersion at that wavelength; junction
// scattering loss defaults to 0.9 amplitude transmission per junction.
// Options (WithJunctionLoss, WithAttenuationLength) override the
// defaults.
func NewBehavioral(kind GateKind, spec layout.Spec, mat material.Params, opts ...BehavioralOption) (*Behavioral, error) {
	cfg := behavioralConfig{junctionLoss: 0.9}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.junctionLoss <= 0 || cfg.junctionLoss > 1 {
		return nil, fmt.Errorf("core: junction loss %g outside (0, 1]", cfg.junctionLoss)
	}
	l, err := buildLayout(kind, spec)
	if err != nil {
		return nil, err
	}
	attLen := cfg.attLength
	if attLen == 0 {
		model, err := dispersion.New(mat, units.NM(1), dispersion.LocalDemag)
		if err != nil {
			return nil, err
		}
		attLen = model.AttenuationLength(units.WaveNumber(spec.Lambda))
	}
	k := units.WaveNumber(spec.Lambda)
	net, err := phasor.New(l, k, attLen)
	if err != nil {
		return nil, err
	}
	net.JunctionLoss = cfg.junctionLoss
	b := &Behavioral{kind: kind, L: l, Net: net, spec: spec, mat: mat}
	b.fp = hashKey(fmt.Sprintf("behavioral/v1|%d|%+v|%+v|loss=%g|att=%g",
		int(kind), spec, mat, net.JunctionLoss, net.AttLength))
	return b, nil
}

// Name implements Backend.
func (b *Behavioral) Name() string { return "behavioral" }

// Kind implements Backend.
func (b *Behavioral) Kind() GateKind { return b.kind }

// Run implements Backend.
func (b *Behavioral) Run(inputs []bool) (map[string]detect.Readout, error) {
	return b.RunContext(context.Background(), inputs)
}

// RunContext implements ContextBackend. The phasor evaluation is
// microseconds long, so the context is only checked up front.
func (b *Behavioral) RunContext(ctx context.Context, inputs []bool) (map[string]detect.Readout, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	names := b.kind.InputNames()
	if err := checkInputs(b.kind, inputs); err != nil {
		return nil, err
	}
	drives := make(map[string]complex128, len(names))
	for i, n := range names {
		drives[n] = phasor.Drive(inputs[i])
	}
	out, err := b.Net.Evaluate(drives)
	if err != nil {
		return nil, err
	}
	res := make(map[string]detect.Readout, len(out))
	for name, v := range out {
		res[name] = detect.Readout{
			Probe:     name,
			Amplitude: cabs(v),
			Phase:     cphase(v),
		}
	}
	return res, nil
}

// RunSingle drives only the named input at logic 0 and measures the
// outputs; the other transducers are switched off (zero drive). This is
// the behavioral counterpart of Micromagnetic.RunSingle — the unit
// response the linear-superposition surrogate is built from.
func (b *Behavioral) RunSingle(name string) (map[string]detect.Readout, error) {
	return b.RunSingleContext(context.Background(), name)
}

// RunSingleContext is RunSingle with context support (checked up front;
// the phasor evaluation is microseconds long).
func (b *Behavioral) RunSingleContext(ctx context.Context, name string) (map[string]detect.Readout, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	found := false
	for _, n := range b.kind.InputNames() {
		if n == name {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("core: %w: %s has no input %q", ErrUnknownComponent, b.kind, name)
	}
	out, err := b.Net.Evaluate(map[string]complex128{name: phasor.Drive(false)})
	if err != nil {
		return nil, err
	}
	res := make(map[string]detect.Readout, len(out))
	for n, v := range out {
		res[n] = detect.Readout{Probe: n, Amplitude: cabs(v), Phase: cphase(v)}
	}
	return res, nil
}

// Fingerprint implements Fingerprinter: a canonical hash of the gate
// kind, geometry, material, and phasor-network tuning.
func (b *Behavioral) Fingerprint() (string, bool) { return b.fp, true }

func cabs(v complex128) float64 { return math.Hypot(real(v), imag(v)) }

func cphase(v complex128) float64 { return math.Atan2(imag(v), real(v)) }
