// Package backendspec is the one request vocabulary for choosing a gate
// backend (DESIGN.md §13). swserve's /v1 handlers, its fleet
// coordinator, swworker and the CLIs all resolve a
// gate/backend/spec/material request through Resolve, so aliases,
// letter case and defaults fold the same way everywhere, and build what
// a resolved Key names through Key.Build (the servers through one
// Memo), Majority devices with their committed I3 trim.
package backendspec

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"spinwave/internal/core"
	"spinwave/internal/engine"
	"spinwave/internal/fleet"
	"spinwave/internal/health"
	"spinwave/internal/layout"
	"spinwave/internal/material"
	"spinwave/internal/probe"
)

// Canonical backend names: each is the Name() of the backend it builds,
// so a key's backend reads the same as every table and record the
// backend produces.
const (
	Behavioral    = "behavioral"
	Micromagnetic = "micromagnetic"
)

// The published vocabulary, in the order GET /v1/spec lists it. Every
// name resolves; aliases are accepted but not listed.
var (
	// Gates lists the canonical gate names.
	Gates = []string{"maj3", "maj3single", "xor", "maj5"}
	// Modes lists the API serving modes ResolveMode accepts.
	Modes = []string{"auto", "surrogate", "micromag", "behavioral"}
	// Backends lists the request names of the two backends.
	Backends = []string{"behavioral", "micromag"}
	// Specs lists the geometry presets.
	Specs = []string{"paper", "paper-micromag", "reduced"}
	// Materials lists the material presets Resolve accepts: the keys of
	// material.Presets.
	Materials = []string{"fecob", "yig", "permalloy"}
)

var (
	gateKinds = map[string]core.GateKind{
		"maj3": core.MAJ3, "maj3single": core.MAJ3Single, "xor": core.XOR, "maj5": core.MAJ5,
	}
	gateAliases = map[string]string{"": "maj3", "maj": "maj3", "majority": "maj3", "maj3-single": "maj3single"}

	backendAliases = map[string]string{
		"": Behavioral, "behavioral": Behavioral,
		"micromag": Micromagnetic, "micromagnetic": Micromagnetic,
	}
	// defaultSpec is each backend's spec when the request names none:
	// the paper's device for the phasor model, the reduced device the
	// solver runs in seconds.
	defaultSpec = map[string]string{Behavioral: "paper", Micromagnetic: "reduced"}

	specs = map[string]func() layout.Spec{
		"paper": layout.PaperSpec, "paper-micromag": layout.PaperMicromagSpec, "reduced": layout.ReducedSpec,
	}
)

// Request is a backend selection in the request vocabulary, as the /v1
// API and fleet.JobSpec carry it. Omitted fields take the paper's
// configuration.
type Request struct {
	Gate, Backend, Spec, Material string
}

// JobRequest is the backend selection a fleet job carries.
func JobRequest(spec fleet.JobSpec) Request {
	return Request{Gate: spec.Gate, Backend: spec.Backend, Spec: spec.Spec, Material: spec.Material}
}

// Key is a request resolved onto canonical names: two requests for the
// same backend have equal keys.
type Key struct {
	Gate     string // maj3, maj3single, xor or maj5
	Backend  string // Behavioral or Micromagnetic
	Spec     string // paper, paper-micromag or reduced
	Material string // a material.Presets key
}

// Resolve validates a request and resolves it to its key. An unknown
// gate wraps layout.ErrUnknownGate; an unknown backend, spec or material
// wraps layout.ErrUnknownComponent.
func Resolve(r Request) (Key, error) {
	var k Key
	k.Gate = strings.ToLower(r.Gate)
	if canon, ok := gateAliases[k.Gate]; ok {
		k.Gate = canon
	}
	if _, ok := gateKinds[k.Gate]; !ok {
		return Key{}, fmt.Errorf("%w: gate %q", layout.ErrUnknownGate, r.Gate)
	}
	var ok bool
	if k.Backend, ok = backendAliases[strings.ToLower(r.Backend)]; !ok {
		return Key{}, fmt.Errorf("%w: backend %q (want behavioral or micromag)", layout.ErrUnknownComponent, r.Backend)
	}
	k.Spec = strings.ToLower(r.Spec)
	if k.Spec == "" {
		k.Spec = defaultSpec[k.Backend]
	}
	if _, ok := specs[k.Spec]; !ok {
		return Key{}, fmt.Errorf("%w: spec %q (want paper, paper-micromag or reduced)", layout.ErrUnknownComponent, r.Spec)
	}
	k.Material = strings.ToLower(r.Material)
	if k.Material == "" {
		k.Material = "fecob"
	}
	if !slices.Contains(Materials, k.Material) {
		return Key{}, fmt.Errorf("%w: material %q", layout.ErrUnknownComponent, r.Material)
	}
	return k, nil
}

// ResolveMode maps the API's serving mode onto the engine mode, checked
// against the request's backend field. It returns the engine mode, the
// mode label responses echo, and the backend field with the solver the
// mode implies filled in. An empty mode keeps the legacy contract: the
// backend field picks the solver, exact tiers only. "auto" and
// "surrogate" default the backend to micromag, the solver the surrogate
// tier exists to replace. Errors wrap layout.ErrUnknownComponent.
func ResolveMode(mode, backend string) (engine.Mode, string, string, error) {
	switch m := strings.ToLower(mode); m {
	case "auto", "surrogate": // the API names are the engine's
		if backend == "" {
			backend = Micromagnetic
		}
		return engine.Mode(m), m, backend, nil
	case "behavioral", "micromag", "micromagnetic":
		want := backendAliases[m]
		if be, ok := backendAliases[strings.ToLower(backend)]; backend != "" && (!ok || be != want) {
			return "", "", "", modeError(fmt.Sprintf("mode %q conflicts with backend %q", mode, backend))
		}
		backend = want
	case "":
	default:
		return "", "", "", modeError(fmt.Sprintf("unknown mode %q (want auto, surrogate, micromag or behavioral)", mode))
	}
	if backendAliases[strings.ToLower(backend)] == Micromagnetic {
		return engine.ModeDirect, "micromag", backend, nil
	}
	return engine.ModeDirect, "behavioral", backend, nil
}

// modeError is a rejected serving mode: it reads as the API's message
// and classifies as layout.ErrUnknownComponent.
type modeError string

func (e modeError) Error() string { return string(e) }
func (e modeError) Unwrap() error { return layout.ErrUnknownComponent }

// Kind is the gate kind the key names.
func (k Key) Kind() core.GateKind { return gateKinds[k.Gate] }

// Options are a process's micromagnetic build settings (swserve's
// -probe and -health flags). Neither changes a trajectory or a
// fingerprint.
type Options struct {
	Probe, Health bool
}

// Build constructs the backend the key names.
func (k Key) Build(o Options) (core.Backend, error) {
	if k.Backend != Behavioral {
		var opts []core.MicromagOption
		if o.Probe {
			opts = append(opts, core.WithProbes(probe.Config{Enabled: true}))
		}
		if o.Health {
			opts = append(opts, core.WithHealth(health.Config{Enabled: true}))
		}
		return k.Micromagnetic(opts...)
	}
	spec, mat, err := k.parts()
	if err != nil {
		return nil, err
	}
	return core.NewBehavioral(k.Kind(), spec, mat)
}

// Micromagnetic constructs the micromagnetic backend the key names, with
// extra options applied after the key's spec, material and I3 trim. It
// fails for a behavioral key.
func (k Key) Micromagnetic(extra ...core.MicromagOption) (*core.Micromagnetic, error) {
	if k.Backend != Micromagnetic {
		return nil, fmt.Errorf("%w: backend %q, want micromag", layout.ErrUnknownComponent, k.Backend)
	}
	spec, mat, err := k.parts()
	if err != nil {
		return nil, err
	}
	opts := append([]core.MicromagOption{core.WithSpec(spec), core.WithMaterial(mat), core.WithI3PhaseTrim(k.I3Trim())}, extra...)
	return core.NewMicromagnetic(k.Kind(), opts...)
}

// I3Trim is the I3 phase trim, in radians, that Micromagnetic applies
// for the key: its i3Trims entry, zero for XOR and behavioral keys.
func (k Key) I3Trim() float64 { return i3Trims[k] }

// i3Trims is the committed I3 phase trim of every Majority
// micromagnetic preset that builds (yig and permalloy are not
// perpendicular): the value the solver's own I3 calibration measures on
// a trim-0 build of the key, so every build path gets the calibrated
// device without paying two single-input transients per build. The
// trim depends on the device scale (DESIGN.md §5), hence one entry per
// spec. TestI3Trims recomputes every entry and prints the line to paste
// on a mismatch.
var i3Trims = map[Key]float64{
	{"maj3", Micromagnetic, "reduced", "fecob"}:              -1.432745641405603,
	{"maj3single", Micromagnetic, "reduced", "fecob"}:        -2.3012789034258887,
	{"maj5", Micromagnetic, "reduced", "fecob"}:              -1.1178894816255536,
	{"maj3", Micromagnetic, "paper-micromag", "fecob"}:       0.10883657790000001,
	{"maj3single", Micromagnetic, "paper-micromag", "fecob"}: 0.4592736399207169,
	{"maj5", Micromagnetic, "paper-micromag", "fecob"}:       0.1267772560075855,
	{"maj3", Micromagnetic, "paper", "fecob"}:                0.13914361921104046,
	{"maj3single", Micromagnetic, "paper", "fecob"}:          1.5863283850465564,
	{"maj5", Micromagnetic, "paper", "fecob"}:                2.1813308508077043,
}

// parts looks up the key's spec and material; it fails only for a key
// Resolve did not produce.
func (k Key) parts() (layout.Spec, material.Params, error) {
	spec, ok := specs[k.Spec]
	if _, gate := gateKinds[k.Gate]; !ok || !gate {
		return layout.Spec{}, material.Params{}, fmt.Errorf("backendspec: key %+v is not canonical", k)
	}
	mat, err := material.ByName(k.Material)
	return spec(), mat, err
}

// Memo holds every backend built under one Options, by key. Each key
// field comes from a closed vocabulary and only successful builds are
// stored, so the memo is bounded by construction: no eviction, no size
// setting. Sharing a backend across requests is safe: table cases
// already run concurrently on one backend, and a Majority backend
// arrives calibrated from i3Trims, so no production caller runs its
// only mutator, the I3 calibration. The zero value is ready to use; set
// Options before the first Get.
type Memo struct {
	Options Options

	mu sync.Mutex
	m  map[Key]core.Backend
}

// Get returns the memoized backend for k, building it on first use. The
// build runs under the lock, so each key is built once.
func (m *Memo) Get(k Key) (core.Backend, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if b, ok := m.m[k]; ok {
		return b, nil
	}
	b, err := k.Build(m.Options)
	if err != nil {
		return nil, err
	}
	if m.m == nil {
		m.m = make(map[Key]core.Backend)
	}
	m.m[k] = b
	return b, nil
}

// Len is the number of memoized backends.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

// Evaluator evaluates fleet jobs on eng: each job's spec resolves to a
// memoized backend and serving mode, and its cases run as one engine
// batch, so the node's cache, disk and surrogate tiers answer before its
// solver does.
func Evaluator(eng *engine.Engine, memo *Memo) fleet.EvaluatorFunc {
	return func(ctx context.Context, spec fleet.JobSpec, cases [][]bool) (string, []fleet.CaseOutcome, error) {
		k, err := Resolve(JobRequest(spec))
		if err != nil {
			return "", nil, err
		}
		b, err := memo.Get(k)
		if err != nil {
			return "", nil, err
		}
		// The engine maps an empty mode to direct and rejects unknown ones.
		res, err := eng.EvalBatch(ctx, b, cases, engine.Mode(strings.ToLower(spec.Mode)), nil)
		if err != nil {
			return "", nil, err
		}
		out := make([]fleet.CaseOutcome, len(cases))
		var fp string
		for i, r := range res {
			out[i] = fleet.CaseOutcome{Inputs: cases[i], Outputs: r.Readouts, Source: string(r.Source)}
			fp = r.Fingerprint
		}
		return fp, out, nil
	}
}
