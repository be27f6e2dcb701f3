// Package surrogate implements the linear-superposition surrogate model
// of a triangle gate (ROADMAP: "cheap heavy traffic"): because the gates
// operate in the linear spin-wave regime, any input combination's
// detector readout is, to first order, the phase-signed complex sum of
// per-port unit responses. The model therefore runs ONE transient per
// input port (that port driven at logic 0, the others switched off),
// stores the per-detector complex response of each port, and answers an
// arbitrary n-input case in O(detectors · ports) by superposing the
// stored phasors with sign (−1)^bit — the same superposition that makes
// the paper's phase-encoded majority voting and XOR interference work.
//
// A model is only trustworthy if superposition actually holds for the
// backend it was built from (the micromagnetic solver is weakly
// nonlinear), so Verify is the admission gate: it assembles the full
// Table I/Table II truth table from superposed readouts and checks every
// row against the golden tolerance bands of the repo's paper-regression
// suite. A model that fails any band must not serve traffic; the
// evaluation engine (internal/engine.AdmitSurrogate) enforces exactly
// that and journals the verdict.
package surrogate

import (
	"context"
	"fmt"
	"math/cmplx"
	"sort"
	"strings"
	"time"

	"spinwave/internal/core"
	"spinwave/internal/detect"
	"spinwave/internal/journal"
)

// UnitRunner is a backend that can excite one input port in isolation —
// the build primitive of the surrogate. Both built-in backends qualify:
// core.Micromagnetic (real solver transient per port) and
// core.Behavioral (exact, used by fast tests).
type UnitRunner interface {
	core.Backend
	// RunSingleContext drives only the named input at logic 0 (the other
	// transducers switched off) and returns the detector readouts.
	RunSingleContext(ctx context.Context, port string) (map[string]detect.Readout, error)
}

// PortResponse is one input port's unit response: the complex amplitude
// arriving at every detector when only this port drives at logic 0.
type PortResponse struct {
	// Port is the input transducer name ("I1", "I2", ...).
	Port string
	// Response maps detector name ("O1", "O2") to the unit phasor.
	Response map[string]complex128
}

// Model is an immutable linear-superposition surrogate for one
// (backend fingerprint, gate kind). Build one with Build (runs the
// per-port transients) or FromPorts (pre-measured responses); it is safe
// for concurrent use after construction.
type Model struct {
	kind      core.GateKind
	source    string // name of the backend the unit responses came from
	baseFP    string // canonical fingerprint of that backend
	detectors []string
	ports     []PortResponse // in core.GateKind.InputNames order

	buildSeconds float64
}

// Build measures one unit transient per input port of src and assembles
// the surrogate; on a backend with an exact mirror (core.MirrorPorter) a
// port's mirror partner reads the port's transient with the outputs
// swapped instead of running its own. src must be canonically fingerprintable (the model is
// keyed by that identity); a backend with ad-hoc mutations has no stable
// identity to serve under and is rejected. Build journals
// surrogate.build.* events; each port transient runs under its own run
// ID so the flight recorder sees ordinary run lifecycles.
func Build(ctx context.Context, src UnitRunner) (*Model, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	fper, ok := src.(core.Fingerprinter)
	if !ok {
		return nil, fmt.Errorf("surrogate: backend %s is not fingerprintable", src.Name())
	}
	baseFP, ok := fper.Fingerprint()
	if !ok {
		return nil, fmt.Errorf("surrogate: backend %s has no canonical fingerprint (mutator hook installed?)", src.Name())
	}
	names := src.Kind().InputNames()
	j := journal.Default()
	if j.Enabled() {
		j.Emit("", "surrogate.build.start",
			journal.F("gate", src.Kind().String()),
			journal.F("backend", src.Name()),
			journal.F("fingerprint", baseFP),
			journal.F("ports", len(names)))
	}
	start := time.Now()
	ports := make([]PortResponse, 0, len(names))
	// On a backend with an exact mirror, a port's run also answers its
	// mirror partner's (I2 from I1): one transient fewer per pair.
	mp, _ := src.(core.MirrorPorter)
	mirrored := map[string]map[string]detect.Readout{}
	for _, port := range names {
		pStart := time.Now()
		out, derived := mirrored[port]
		if !derived {
			var err error
			if out, err = src.RunSingleContext(ctx, port); err != nil {
				if j.Enabled() {
					j.Emit("", "surrogate.build.error",
						journal.F("port", port), journal.F("error", err.Error()))
				}
				return nil, fmt.Errorf("surrogate: port %s transient: %w", port, err)
			}
			if mp != nil {
				if partner, pout, ok := mp.MirrorPort(port, out); ok {
					mirrored[partner] = pout
				}
			}
		}
		resp := make(map[string]complex128, len(out))
		for det, r := range out {
			resp[det] = r.Phasor()
		}
		ports = append(ports, PortResponse{Port: port, Response: resp})
		if j.Enabled() {
			j.Emit("", "surrogate.build.port",
				journal.F("port", port),
				journal.F("detectors", len(resp)),
				journal.F("mirrored", derived),
				journal.F("elapsed_ms", time.Since(pStart).Seconds()*1e3))
		}
	}
	m, err := FromPorts(src.Kind(), baseFP, src.Name(), ports)
	if err != nil {
		return nil, err
	}
	m.buildSeconds = time.Since(start).Seconds()
	if j.Enabled() {
		j.Emit("", "surrogate.build.done",
			journal.F("gate", src.Kind().String()),
			journal.F("fingerprint", baseFP),
			journal.F("elapsed_ms", m.buildSeconds*1e3))
	}
	return m, nil
}

// FromPorts assembles a surrogate from pre-measured unit responses, one
// PortResponse per input of kind, in InputNames order. Every port must
// report the same detector set.
func FromPorts(kind core.GateKind, baseFingerprint, sourceBackend string, ports []PortResponse) (*Model, error) {
	names := kind.InputNames()
	if len(ports) != len(names) {
		return nil, fmt.Errorf("surrogate: %s needs %d port responses, got %d", kind, len(names), len(ports))
	}
	if baseFingerprint == "" {
		return nil, fmt.Errorf("surrogate: empty base fingerprint")
	}
	for i, p := range ports {
		if p.Port != names[i] {
			return nil, fmt.Errorf("surrogate: port %d is %q, want %q (InputNames order)", i, p.Port, names[i])
		}
		if len(p.Response) == 0 {
			return nil, fmt.Errorf("surrogate: port %s has no detector responses", p.Port)
		}
	}
	detectors := make([]string, 0, len(ports[0].Response))
	for det := range ports[0].Response {
		detectors = append(detectors, det)
	}
	sort.Strings(detectors)
	for _, p := range ports[1:] {
		if len(p.Response) != len(detectors) {
			return nil, fmt.Errorf("surrogate: port %s sees %d detectors, port %s sees %d",
				p.Port, len(p.Response), ports[0].Port, len(detectors))
		}
		for _, det := range detectors {
			if _, ok := p.Response[det]; !ok {
				return nil, fmt.Errorf("surrogate: port %s is missing detector %s", p.Port, det)
			}
		}
	}
	// Deep-copy the responses so the model is immutable from outside.
	cp := make([]PortResponse, len(ports))
	for i, p := range ports {
		resp := make(map[string]complex128, len(p.Response))
		for det, v := range p.Response {
			resp[det] = v
		}
		cp[i] = PortResponse{Port: p.Port, Response: resp}
	}
	return &Model{
		kind:      kind,
		source:    sourceBackend,
		baseFP:    baseFingerprint,
		detectors: detectors,
		ports:     cp,
	}, nil
}

// Name implements core.Backend.
func (m *Model) Name() string { return "surrogate" }

// Kind implements core.Backend.
func (m *Model) Kind() core.GateKind { return m.kind }

// SourceBackend names the backend the unit responses were measured on
// ("micromagnetic", "behavioral").
func (m *Model) SourceBackend() string { return m.source }

// BaseFingerprint is the canonical fingerprint of the source backend —
// the key the engine matches incoming requests against.
func (m *Model) BaseFingerprint() string { return m.baseFP }

// BuildSeconds is the wall-clock cost of the per-port transients (zero
// for models assembled with FromPorts).
func (m *Model) BuildSeconds() float64 { return m.buildSeconds }

// Detectors returns the detector names, sorted.
func (m *Model) Detectors() []string { return append([]string(nil), m.detectors...) }

// Ports returns the number of stored unit responses.
func (m *Model) Ports() int { return len(m.ports) }

// Fingerprint implements core.Fingerprinter with an identity distinct
// from the source backend's, so engine cache entries for surrogate
// evaluations never collide with exact-solver entries under the same
// base fingerprint.
func (m *Model) Fingerprint() (string, bool) {
	return "surrogate/v1|" + m.baseFP, true
}

// Eval superposes the stored unit phasors for one input case: logic 0
// contributes +U_p, logic 1 (a π phase flip of the same drive)
// contributes −U_p, and the detector readout is the magnitude and phase
// of the sum — O(detectors · ports), no solver in the loop.
func (m *Model) Eval(inputs []bool) (map[string]detect.Readout, error) {
	if len(inputs) != m.kind.NumInputs() {
		return nil, fmt.Errorf("surrogate: %w: %s needs %d inputs, got %d",
			core.ErrBadInputCount, m.kind, m.kind.NumInputs(), len(inputs))
	}
	out := make(map[string]detect.Readout, len(m.detectors))
	for _, det := range m.detectors {
		var sum complex128
		for i, p := range m.ports {
			if inputs[i] {
				sum -= p.Response[det]
			} else {
				sum += p.Response[det]
			}
		}
		out[det] = detect.FromPhasor(det, sum)
	}
	return out, nil
}

// Run implements core.Backend.
func (m *Model) Run(inputs []bool) (map[string]detect.Readout, error) {
	return m.Eval(inputs)
}

// RunContext implements core.ContextBackend; evaluation is O(detectors)
// so the context is only checked up front.
func (m *Model) RunContext(ctx context.Context, inputs []bool) (map[string]detect.Readout, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return m.Eval(inputs)
}

// Perturbed returns a copy of the model with every stored phasor rotated
// by phaseErr radians on alternating signs per port — a deliberately
// destabilized surrogate for exercising the admission gate (a real
// model drifting like this must be rejected, not served).
func (m *Model) Perturbed(phaseErr float64) *Model {
	cp := make([]PortResponse, len(m.ports))
	for i, p := range m.ports {
		rot := cmplx.Exp(complex(0, phaseErr))
		if i%2 == 1 {
			rot = cmplx.Exp(complex(0, -phaseErr))
		}
		resp := make(map[string]complex128, len(p.Response))
		for det, v := range p.Response {
			resp[det] = v * rot
		}
		cp[i] = PortResponse{Port: p.Port, Response: resp}
	}
	return &Model{
		kind:         m.kind,
		source:       m.source,
		baseFP:       m.baseFP,
		detectors:    append([]string(nil), m.detectors...),
		ports:        cp,
		buildSeconds: m.buildSeconds,
	}
}

// Tables assembles the surrogate's full truth table — Table II for XOR,
// Table I for the Majority family — from superposed readouts, decoded
// exactly as the exact backends' tables are (the all-zeros superposition
// is the normalization/phase reference).
func (m *Model) Table() (*core.TruthTable, error) {
	ins := core.EnumerateInputs(m.kind.NumInputs())
	outs := make([]map[string]detect.Readout, len(ins))
	for i, in := range ins {
		out, err := m.Eval(in)
		if err != nil {
			return nil, err
		}
		outs[i] = out
	}
	if m.kind == core.XOR {
		return core.AssembleXORTable(m.Name(), false, outs[0], outs)
	}
	return core.AssembleMajorityTable(m.kind, m.Name(), outs[0], outs)
}

// Verify is the admission gate: it assembles the surrogate's truth table
// and checks every row against the golden tolerance bands of the paper
// regression suite (Tables I/II). A nil return means every row is inside
// the bands; otherwise the error lists each violated band. Only a model
// that passes Verify may be admitted to serving.
func (m *Model) Verify() error {
	tt, err := m.Table()
	if err != nil {
		return fmt.Errorf("surrogate: admission table: %w", err)
	}
	var violations []string
	if m.kind == core.XOR {
		violations = checkXORBands(tt)
	} else {
		violations = checkMajorityBands(tt, m.kind.NumInputs())
	}
	if len(violations) > 0 {
		return fmt.Errorf("surrogate: admission rejected, %d band violation(s): %s",
			len(violations), strings.Join(violations, "; "))
	}
	return nil
}
