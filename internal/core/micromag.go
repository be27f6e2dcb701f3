package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"spinwave/internal/checkpoint"
	"spinwave/internal/detect"
	"spinwave/internal/dispersion"
	"spinwave/internal/dsp"
	"spinwave/internal/excite"
	"spinwave/internal/grid"
	"spinwave/internal/health"
	"spinwave/internal/journal"
	"spinwave/internal/layout"
	"spinwave/internal/llg"
	"spinwave/internal/material"
	"spinwave/internal/obs"
	"spinwave/internal/probe"
	"spinwave/internal/thermal"
	"spinwave/internal/units"
	"spinwave/internal/vec"
)

// The solver's fixed timing and absorber settings. Each is part of the
// canonical string Fingerprint hashes, so changing one re-keys every
// stored answer.
const (
	// rampPeriods is the smooth turn-on length in drive periods.
	rampPeriods float64 = 3
	// settleFactor multiplies the longest-path travel time to decide how
	// long to wait before measuring.
	settleFactor float64 = 1.6
	// sampleEvery records probe samples every N solver steps.
	sampleEvery int = 4
	// maxAlpha is the absorber peak damping.
	maxAlpha float64 = 0.5
)

// micromagConfig is what the MicromagOptions set.
type micromagConfig struct {
	Spec layout.Spec
	Mat  material.Params

	// CellSize is the square cell edge (default λ/11, i.e. 5 nm for the
	// paper's λ = 55 nm).
	CellSize float64
	// DriveField is the antenna RF amplitude in Tesla (default 2 mT,
	// linear regime).
	DriveField float64
	// MeasurePeriods is the lock-in window in drive periods (default 4).
	MeasurePeriods int
	// Scheme selects the integrator (default RK4).
	Scheme llg.Scheme
	// Workers > 1 runs the LLG stepping kernels on a persistent pool of
	// that many goroutines, banded over mesh rows (useful on multi-core
	// machines; trajectories are bit-identical for any worker count).
	Workers int
	// Temperature enables the stochastic thermal field when > 0 (kelvin).
	Temperature float64
	// Seed seeds the thermal field.
	Seed int64
	// RegionMutator, when non-nil, post-processes the rasterized material
	// region (edge roughness, width erosion, defects) before simulation —
	// the hook used by the §IV-D variability experiments.
	RegionMutator func(grid.Mesh, grid.Region) grid.Region
	// I3PhaseTrim is added to the I3 drive phase to compensate the
	// junction-region phase accumulated along the body path relative to
	// the trunk path. In a fabricated device this is a sub-λ trim of the
	// d2 trunk length (a phase trim τ is the exact equivalent of a length
	// trim −τ/k); the paper's design rule "dimensions must be chosen
	// accurately" (§III-A) refers to exactly this adjustment. Use
	// CalibrateI3 to measure it.
	I3PhaseTrim float64
	// Probes configures the in-situ flight recorder (DESIGN.md §11):
	// when Enabled, each run attaches a probe.Recorder over the output
	// detector cells and publishes it in probe.Default() under the run
	// ID. Probes observe the trajectory without altering it, so this
	// field is excluded from Fingerprint (like Workers).
	Probes probe.Config
	// Health configures the numerical health monitor (DESIGN.md §12):
	// when Enabled, each run attaches a health.Monitor over the material
	// region, emits alert/health.verdict journal events, and publishes
	// its report in health.Default() under the run ID. Monitoring
	// observes the trajectory without altering it — unless
	// Health.AbortOnCritical stops a run early, in which case the run
	// fails with an error and the engine never caches it — so this field
	// is excluded from Fingerprint (like Probes and Workers).
	Health health.Config
	// DtScale multiplies the stability-bounded time step (default 1).
	// Values > 1 push the integrator past its stability bound — the knob
	// the health-smoke CI target uses to destabilize a run on purpose —
	// and values < 1 trade speed for accuracy. Unlike the observation
	// fields it changes the trajectory, so it is part of Fingerprint.
	DtScale float64
	// Checkpoint configures periodic solver snapshots and exact resume
	// (DESIGN.md §15): when Enabled, each logic-case run commits the
	// magnetization plus integrator and probe state to Checkpoint.Dir at
	// the configured cadence, and Resume continues from the newest valid
	// snapshot with a bit-identical trajectory. Calibration runs (RunSingle,
	// RunBackground, CalibrateI3) never checkpoint — they are short and
	// their probes differ from the logic case's. Checkpointing observes
	// the trajectory without altering it, so this field is excluded from
	// Fingerprint (like Probes and Health): a checkpointed run and a plain
	// run share cache entries.
	Checkpoint checkpoint.Config
}

// withDefaults fills zero fields with the documented defaults.
func (c micromagConfig) withDefaults() micromagConfig {
	if c.CellSize == 0 {
		c.CellSize = c.Spec.Lambda / 11
	}
	if c.DriveField == 0 {
		c.DriveField = 2e-3
	}
	if c.MeasurePeriods == 0 {
		c.MeasurePeriods = 4
	}
	if c.DtScale == 0 {
		c.DtScale = 1
	}
	return c
}

// Micromagnetic is the full-simulation backend: each Run builds a fresh
// LLG solver on the rasterized gate, drives the input antennas with
// phase-encoded RF fields, waits for steady state, and lock-in detects
// the outputs.
type Micromagnetic struct {
	kind GateKind
	cfg  micromagConfig

	L      *layout.Layout
	Mesh   grid.Mesh
	Region grid.Region

	// Freq is the drive frequency chosen from the solver-matched
	// dispersion so the simulated wavelength equals Spec.Lambda.
	Freq float64
	// Vg is the group velocity at the design wave number.
	Vg float64

	dt       float64
	duration float64

	// alpha is the per-cell damping (base plus the absorbers), and
	// inCells and outCells the antenna and probe footprints by node
	// name. They are built once, mirror-exact when mir is set: the
	// damping below the axis copies its image above, a partner's
	// footprint is the image of its partner's, cell for cell, and a node
	// on the axis has a symmetric footprint.
	alpha    []float64
	inCells  map[string][]int
	outCells map[string][]int
	// mir is the exact mirror symmetry (nil without one; see MirrorExact).
	mir *mirror

	// fp and fpOK cache Fingerprint, a pure function of kind and cfg.
	// Whatever changes cfg after construction (CalibrateI3) goes through
	// setI3PhaseTrim, which recomputes them.
	fp   string
	fpOK bool
}

// NewMicromagnetic prepares the backend (mesh, region, timing). It does
// not run anything yet.
//
// The options are applied in order onto a default config (ReducedSpec
// geometry, FeCoB material); with none at all the backend simulates the
// reduced-scale device in Fe60Co20B20.
func NewMicromagnetic(kind GateKind, opts ...MicromagOption) (*Micromagnetic, error) {
	cfg := micromagConfig{Spec: layout.ReducedSpec(), Mat: material.FeCoB()}
	for _, o := range opts {
		o(&cfg)
	}
	cfg = cfg.withDefaults()
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Mat.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Mat.IsPerpendicular() {
		return nil, fmt.Errorf("core: material %s is not perpendicular (forward-volume configuration impossible without bias)", cfg.Mat.Name)
	}
	l, err := buildLayout(kind, cfg.Spec)
	if err != nil {
		return nil, err
	}
	// Snap the mirror axis onto a cell-center row so the rasterized top
	// and bottom halves are exact mirror images. With the mirror-exact
	// damping and footprints built below, a run of case (I1, I2, …) is
	// cell for cell the mirror image of the run of (I2, I1, …), so O1 of
	// one reads bit for bit what O2 of the other reads (checkMirror).
	l.AlignAxisToCells(cfg.CellSize)
	mesh, err := l.Mesh(cfg.CellSize, units.NM(1))
	if err != nil {
		return nil, err
	}
	region := l.Rasterize(mesh)
	if cfg.RegionMutator != nil {
		region = cfg.RegionMutator(mesh, region)
	}
	if region.Count() == 0 {
		return nil, fmt.Errorf("core: gate rasterized to zero cells")
	}

	model, err := dispersion.New(cfg.Mat, mesh.Dz, dispersion.LocalDemag)
	if err != nil {
		return nil, err
	}
	k := units.WaveNumber(cfg.Spec.Lambda)
	freq := model.Frequency(k)
	vg := model.GroupVelocity(k)

	dt := cfg.DtScale * llg.StableDt(mesh, cfg.Mat)
	period := 1 / freq
	// Longest signal path: generous estimate from the layout bounds.
	b := l.Bounds()
	travel := (b.Width() + b.Height()) / vg
	duration := rampPeriods*period + settleFactor*travel + float64(cfg.MeasurePeriods+1)*period

	m := &Micromagnetic{
		kind:     kind,
		cfg:      cfg,
		L:        l,
		Mesh:     mesh,
		Region:   region,
		Freq:     freq,
		Vg:       vg,
		dt:       dt,
		duration: duration,
	}
	if cfg.Temperature == 0 && cfg.RegionMutator == nil {
		m.mir = findMirror(kind, l, mesh, region)
	}
	if err := m.buildCells(); err != nil {
		return nil, err
	}
	m.fp, m.fpOK = m.computeFingerprint()
	return m, nil
}

// buildCells computes the damping profile and the antenna and probe
// footprints, mirror-exact when the backend has a mirror symmetry.
func (m *Micromagnetic) buildCells() error {
	m.alpha = make([]float64, m.Mesh.NCells())
	for i := range m.alpha {
		m.alpha[i] = m.cfg.Mat.Alpha
	}
	// Matched terminations at the layout's absorbing ends.
	ramp := m.cfg.Spec.Tail
	if ramp <= 0 {
		ramp = 3 * m.cfg.Spec.Lambda
	}
	for _, ti := range m.L.Terminations() {
		n := m.L.Nodes[ti]
		llg.AddAbsorber(m.Mesh, m.Region, m.alpha, n.Pos.X, n.Pos.Y, ramp, maxAlpha)
	}
	if m.mir != nil {
		m.mir.mirrorAlpha(m.alpha)
	}

	// Antennas and probes: a disc of radius w/2 at each node. A node
	// whose mirror partner has its footprint takes the images of those
	// cells; a node on the axis (its own partner) a symmetric footprint.
	rAnt := math.Max(m.cfg.Spec.Width/2, 1.5*m.Mesh.Dx)
	footprint := func(what, name, partner string, done map[string][]int) error {
		cells, ok := done[partner]
		if ok {
			cells = m.mir.reflectAll(cells)
		} else {
			ni, err := m.L.NodeByName(name)
			if err != nil {
				return err
			}
			if cells = m.nodeCells(m.L.Nodes[ni], rAnt); partner == name {
				cells = m.mir.symmetrize(cells)
			}
		}
		if len(cells) == 0 {
			return fmt.Errorf("core: %s %s has no cells", what, name)
		}
		done[name] = cells
		return nil
	}
	names := m.kind.InputNames()
	m.inCells = make(map[string][]int, len(names))
	for k, name := range names {
		partner := ""
		if m.mir != nil {
			partner = names[m.mir.input[k]]
		}
		if err := footprint("antenna", name, partner, m.inCells); err != nil {
			return err
		}
	}
	m.outCells = make(map[string][]int)
	for _, oi := range m.L.Outputs() {
		name := m.L.Nodes[oi].Name
		if err := footprint("probe", name, m.mir.partnerOutput(name), m.outCells); err != nil {
			return err
		}
	}
	return nil
}

// Name implements Backend.
func (m *Micromagnetic) Name() string { return "micromagnetic" }

// Kind implements Backend.
func (m *Micromagnetic) Kind() GateKind { return m.kind }

// Duration returns the per-case simulated time in seconds.
func (m *Micromagnetic) Duration() float64 { return m.duration }

// Dt returns the solver time step.
func (m *Micromagnetic) Dt() float64 { return m.dt }

// nodeCells returns the material cells within radius of the node position.
func (m *Micromagnetic) nodeCells(n layout.Node, radius float64) []int {
	var cells []int
	for j := 0; j < m.Mesh.Ny; j++ {
		for i := 0; i < m.Mesh.Nx; i++ {
			idx := m.Mesh.Idx(i, j)
			if !m.Region[idx] {
				continue
			}
			x, y := m.Mesh.CellCenter(i, j)
			if math.Hypot(x-n.Pos.X, y-n.Pos.Y) <= radius {
				cells = append(cells, idx)
			}
		}
	}
	return cells
}

// newSolver builds a fresh solver with absorbers and the input antennas
// configured for the given input levels. Inputs whose name appears in
// mute are left out entirely (used by calibration runs). With half set
// the solver steps the mirror's half mesh (see halfDomain): the antennas
// keep their cells at or above the axis, and each probe reads its
// cells' images there.
func (m *Micromagnetic) newSolver(inputs []bool, mute map[string]bool, half bool) (*llg.Solver, map[string]*detect.Probe, error) {
	names := m.kind.InputNames()
	if err := checkInputs(m.kind, inputs); err != nil {
		return nil, nil, err
	}
	mesh, region, off := m.Mesh, m.Region, 0
	if half {
		mesh, off = m.mir.half, m.mir.off
		region = m.Region[off:]
	}
	s, err := llg.New(mesh, region, m.cfg.Mat, m.dt)
	if err != nil {
		return nil, nil, err
	}
	s.Scheme = m.cfg.Scheme
	s.SetWorkers(m.cfg.Workers)
	copy(s.Alpha, m.alpha[off:])
	s.InvalidatePrep()
	if half {
		s.SetMirrorBoundary()
	}

	for i, name := range names {
		if mute[name] {
			continue
		}
		cells := m.inCells[name]
		if half {
			if cells = m.mir.sourceCells(cells); len(cells) == 0 {
				continue // wholly below the axis: its image drives the half
			}
		}
		ant, err := excite.NewAntenna(name, cells, vec.UnitX, m.cfg.DriveField, m.Freq, 0)
		if err != nil {
			return nil, nil, err
		}
		ant.SetLogic(inputs[i])
		if name == "I3" {
			ant.Phase += m.cfg.I3PhaseTrim
		}
		ant.Env = excite.RampEnvelope(rampPeriods / m.Freq)
		s.Eval.Sources = append(s.Eval.Sources, ant)
	}

	// Thermal field, if requested (never on the half mesh: a thermal
	// backend has no mirror).
	if m.cfg.Temperature > 0 {
		th, err := thermal.New(m.Mesh, m.Region, m.cfg.Mat, m.cfg.Temperature, m.dt, m.cfg.Seed)
		if err != nil {
			return nil, nil, err
		}
		s.Eval.Sources = append(s.Eval.Sources, th)
	}

	// Output probes.
	probes := make(map[string]*detect.Probe, len(m.outCells))
	for name, cells := range m.outCells {
		if half {
			cells = m.mir.probeCells(cells)
		}
		p, err := detect.NewProbe(name, cells)
		if err != nil {
			return nil, nil, err
		}
		probes[name] = p
	}
	return s, probes, nil
}

// halfDomain reports whether a drive is mirror-symmetric on a backend
// with an exact mirror, so its run steps only the half mesh.
func (m *Micromagnetic) halfDomain(inputs []bool, mute map[string]bool) bool {
	return m.mir != nil && len(inputs) == len(m.mir.input) && m.mir.symmetric(inputs, m.kind.InputNames(), mute)
}

// Run implements Backend: a full transient simulation per case.
func (m *Micromagnetic) Run(inputs []bool) (map[string]detect.Readout, error) {
	out, _, err := m.run(context.Background(), inputs, nil, false)
	return out, err
}

// RunContext implements ContextBackend: the context is polled before
// every integrator step, so cancellation aborts a multi-nanosecond
// transient within one step instead of after the full run.
func (m *Micromagnetic) RunContext(ctx context.Context, inputs []bool) (map[string]detect.Readout, error) {
	out, _, err := m.run(ctx, inputs, nil, false)
	return out, err
}

// ComplementExact reports whether the complement symmetry is exact.
// Logic 1 is the antenna phase π, applied as the exact negation of the
// logic-0 drive, so complementing every input negates every drive field.
// The film's LLG has exchange, local thin-film demag, anisotropy along
// z, no bias field and no DMI: each term maps m rotated by π about z,
// (−mx, −my, mz), to the field rotated the same way, and IEEE negation
// commutes with every sum and product of them. Case ¬c is then case c
// with mx and my negated at every step, bit for bit. A thermal field
// does not change sign with the drive and an easy axis off z does not
// commute with the rotation; either breaks the pairing.
func (m *Micromagnetic) ComplementExact() bool {
	u := m.cfg.Mat.AnisU
	return m.cfg.Temperature == 0 && u.X == 0 && u.Y == 0
}

// MirrorExact reports whether the mirror symmetry about the gate's axis
// is exact: the run of a case is, cell for cell, the mirror image of the
// run of the case with I1↔I2 (and I4↔I5) swapped. It holds at zero
// temperature, without a RegionMutator, when the rasterized film and the
// node set were found mirror-symmetric at construction. Every field term
// is local or the isotropic exchange, whose two vertical neighbors are
// summed as one commutative pair, so a tilted easy axis keeps it.
func (m *Micromagnetic) MirrorExact() bool { return m.mir != nil }

// Orbit implements Symmetric: case c, then ¬c when the complement is
// exact, then the mirror image σc and ¬σc when the mirror is, without
// repeats.
func (m *Micromagnetic) Orbit(inputs []bool) [][]bool {
	orbit := [][]bool{inputs}
	add := func(c []bool) {
		if !slices.ContainsFunc(orbit, func(o []bool) bool { return slices.Equal(o, c) }) {
			orbit = append(orbit, c)
		}
	}
	comp := m.ComplementExact()
	if comp {
		add(complementInputs(inputs))
	}
	if m.mir != nil && len(inputs) == len(m.mir.input) {
		sc := m.mir.swapInputs(inputs)
		add(sc)
		if comp {
			add(complementInputs(sc))
		}
	}
	return orbit
}

// HalfDomain implements Symmetric: a mirror-symmetric case (I1 = I2,
// and I4 = I5 on MAJ5) steps only the half mesh.
func (m *Micromagnetic) HalfDomain(inputs []bool) bool { return m.halfDomain(inputs, nil) }

// RunOrbit implements Symmetric: it runs case c once and derives the
// rest of Orbit(c). ¬c's readouts are the lock-in of the same probes'
// negated mx series, which Detrend and Goertzel see exactly as a direct
// run of ¬c records them; σc's are c's with every output reading its
// partner's, the probes of a partner pair listing image cells in the
// same order. Each equals a direct run bit for bit.
func (m *Micromagnetic) RunOrbit(ctx context.Context, inputs []bool) ([]map[string]detect.Readout, error) {
	if err := checkInputs(m.kind, inputs); err != nil {
		return nil, err
	}
	orbit := m.Orbit(inputs)
	comp, not := m.ComplementExact(), complementInputs(inputs)
	out, notOut, err := m.run(ctx, inputs, nil, comp && len(orbit) > 1)
	if err != nil {
		return nil, err
	}
	res := make([]map[string]detect.Readout, len(orbit))
	res[0] = out
	for k, c := range orbit[1:] {
		switch {
		case comp && slices.Equal(c, not):
			res[k+1] = notOut
		case slices.Equal(c, m.mir.swapInputs(inputs)):
			res[k+1] = m.mir.swapReadouts(out)
		default: // ¬σc
			res[k+1] = m.mir.swapReadouts(notOut)
		}
	}
	return res, nil
}

// MirrorPort implements MirrorPorter: with an exact mirror, the
// single-port run of port's partner reads port's readouts with every
// output reading its partner's.
func (m *Micromagnetic) MirrorPort(port string, out map[string]detect.Readout) (string, map[string]detect.Readout, bool) {
	names := m.kind.InputNames()
	k := slices.Index(names, port)
	if m.mir == nil || k < 0 || m.mir.input[k] == k {
		return "", nil, false
	}
	return names[m.mir.input[k]], m.mir.swapReadouts(out), true
}

// complementInputs returns the input vector with every bit inverted.
func complementInputs(inputs []bool) []bool {
	out := make([]bool, len(inputs))
	for i, v := range inputs {
		out[i] = !v
	}
	return out
}

// Fingerprint implements Fingerprinter: a canonical hash of the gate
// kind and the full micromagnetic config. A backend with a RegionMutator
// hook has no canonical identity and reports ok = false (uncacheable).
// The stepping worker count is excluded — trajectories are bit-identical
// for any value. It is computed once at construction and again on every
// CalibrateI3 trim.
func (m *Micromagnetic) Fingerprint() (string, bool) { return m.fp, m.fpOK }

func (m *Micromagnetic) computeFingerprint() (string, bool) {
	if m.cfg.RegionMutator != nil {
		return "", false
	}
	c := m.cfg
	// "ref=false" is frozen from the retired reference-stepper switch so
	// existing disk stores, checkpoint manifests and history records stay
	// keyed.
	return hashKey(fmt.Sprintf("micromag/v1|%d|%+v|%+v|cell=%g|drive=%g|ramp=%g|meas=%d|settle=%g|sample=%d|alpha=%g|scheme=%d|T=%g|seed=%d|trim=%g|ref=false|dts=%g",
		int(m.kind), c.Spec, c.Mat, c.CellSize, c.DriveField, rampPeriods,
		c.MeasurePeriods, settleFactor, sampleEvery, maxAlpha,
		int(c.Scheme), c.Temperature, c.Seed, c.I3PhaseTrim, c.DtScale)), true
}

// RunSingle excites only the named input at logic 0 and measures the
// outputs; the other transducers are absent. Used for path calibration,
// transmission diagnostics and building the superposition surrogate.
func (m *Micromagnetic) RunSingle(name string) (map[string]detect.Readout, error) {
	return m.RunSingleContext(context.Background(), name)
}

// RunSingleContext is RunSingle with cancellation: the context is polled
// before every integrator step, so an expired context aborts the
// transient within one step.
func (m *Micromagnetic) RunSingleContext(ctx context.Context, name string) (map[string]detect.Readout, error) {
	names := m.kind.InputNames()
	mute := make(map[string]bool, len(names))
	found := false
	for _, n := range names {
		if n == name {
			found = true
		} else {
			mute[n] = true
		}
	}
	if !found {
		return nil, fmt.Errorf("core: %w: %s has no input %q", ErrUnknownComponent, m.kind, name)
	}
	out, _, err := m.run(ctx, make([]bool, len(names)), mute, false)
	return out, err
}

// RunBackground simulates with every antenna muted — only the thermal
// field (if configured) drives the system. With a fixed seed the noise
// realization is identical between runs, so subtracting the background
// lock-in output from a driven run's output coherently removes the
// thermal contribution (see sweep.CoherentReadout).
func (m *Micromagnetic) RunBackground() (map[string]detect.Readout, error) {
	names := m.kind.InputNames()
	mute := make(map[string]bool, len(names))
	for _, n := range names {
		mute[n] = true
	}
	out, _, err := m.run(context.Background(), make([]bool, len(names)), mute, false)
	return out, err
}

// CalibrateI3 measures the phase offset between the I1 body path and the
// I3 trunk path at O1 and sets I3PhaseTrim so the two arrive in phase —
// the simulation-domain equivalent of the paper's "dimensions must be
// chosen accurately" trim of d2. It returns the applied trim in radians.
// Only meaningful for Majority structures.
func (m *Micromagnetic) CalibrateI3() (float64, error) {
	if m.kind == XOR {
		return 0, fmt.Errorf("core: %s has no I3 to calibrate", m.kind)
	}
	prev := m.cfg.I3PhaseTrim
	m.setI3PhaseTrim(0)
	r1, err := m.RunSingle("I1")
	if err != nil {
		m.setI3PhaseTrim(prev)
		return 0, err
	}
	r3, err := m.RunSingle("I3")
	if err != nil {
		m.setI3PhaseTrim(prev)
		return 0, err
	}
	trim := dsp.PhaseDiff(r1["O1"].Phase, r3["O1"].Phase)
	m.setI3PhaseTrim(trim)
	return trim, nil
}

// setI3PhaseTrim changes the I3 trim and the fingerprint that hashes it.
func (m *Micromagnetic) setI3PhaseTrim(rad float64) {
	m.cfg.I3PhaseTrim = rad
	m.fp, m.fpOK = m.computeFingerprint()
}

// inputString renders a logic-input vector as the paper's "10"-style
// case label for journal events.
func inputString(inputs []bool) string {
	b := make([]byte, len(inputs))
	for i, v := range inputs {
		if v {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// newRecorder builds the flight recorder over the run's detector cells.
// The ring capacity defaults to the whole run at the configured stride
// (bounded), so the full measurement window is retained; Freq defaults
// to the drive frequency so snapshots include live lock-in estimates.
func (m *Micromagnetic) newRecorder(s *llg.Solver, probes map[string]*detect.Probe) (*probe.Recorder, error) {
	pc := m.cfg.Probes.WithDefaults()
	if pc.Freq == 0 {
		pc.Freq = m.Freq
	}
	if m.cfg.Probes.Capacity == 0 {
		need := int(m.duration/m.dt)/pc.Stride + 2
		if need > 1<<20 {
			need = 1 << 20
		}
		pc.Capacity = need
	}
	names := make([]string, 0, len(probes))
	for name := range probes {
		names = append(names, name)
	}
	sort.Strings(names)
	points := make([]probe.Point, 0, len(names))
	for _, name := range names {
		points = append(points, probe.Point{Name: name, Cells: probes[name].Cells})
	}
	return probe.NewRecorder(pc, s.Eval, points)
}

// run simulates one case and locks in on its output probes; a
// mirror-symmetric drive steps only the half mesh. With complement set
// it also returns the lock-in of the negated probe series: the readouts
// of the complemented case (see RunOrbit).
func (m *Micromagnetic) run(ctx context.Context, inputs []bool, mute map[string]bool, complement bool) (out, notOut map[string]detect.Readout, err error) {
	// One run ID correlates this run's journal events, span labels and
	// log lines; the engine propagates its eval ID down via the context.
	runID := journal.RunID(ctx)
	if runID == "" {
		runID = journal.NewRunID()
	}
	j := journal.Default()
	gateL, runL := obs.L("gate", m.kind.String()), obs.L("run", runID)
	half := m.halfDomain(inputs, mute)
	if j.Enabled() {
		fields := []journal.Field{
			journal.F("gate", m.kind.String()),
			journal.F("inputs", inputString(inputs)),
			journal.F("duration_s", m.duration),
			journal.F("dt_s", m.dt),
			journal.F("freq_hz", m.Freq),
			journal.F("workers", m.cfg.Workers),
			journal.F("probes", m.cfg.Probes.Enabled),
			journal.F("half_domain", half),
		}
		if fp, ok := m.Fingerprint(); ok {
			fields = append(fields, journal.F("fingerprint", fp))
		}
		j.Emit(runID, "run.start", fields...)
	}
	fail := func(err error) (map[string]detect.Readout, map[string]detect.Readout, error) {
		j.Emit(runID, "run.error", journal.F("error", err.Error()))
		return nil, nil, err
	}

	setup := obs.StartSpan("micromag.setup", gateL, runL)
	s, probes, err := m.newSolver(inputs, mute, half)
	setup.End()
	if err != nil {
		return fail(err)
	}
	defer s.Close() // release the stepping pool, if any
	s.RunID = runID

	// The probe recorder and the health monitor share the solver's one
	// observer slot through a tee; with a single member the tee is skipped
	// so the common single-observer path stays direct.
	var observers llg.TeeObserver
	if m.cfg.Probes.Enabled {
		rec, err := m.newRecorder(s, probes)
		if err != nil {
			return fail(err)
		}
		observers = append(observers, rec)
		probe.Default().Put(runID, rec)
	}
	var mon *health.Monitor
	if m.cfg.Health.Enabled {
		mon = health.NewMonitor(m.cfg.Health, s.Region, runID,
			health.WithEvaluator(s.Eval),
			health.WithDriven(len(s.Eval.Sources) > 0))
		observers = append(observers, mon)
		defer mon.Finish()
	}
	switch len(observers) {
	case 0:
	case 1:
		s.SetObserver(observers[0])
	default:
		s.SetObserver(observers)
	}

	// Checkpointing applies only to full logic-case runs: calibration runs
	// (mute != nil) are short and drive a different source set, so a
	// snapshot of one would be meaningless to resume a logic case from.
	total := int(m.duration / m.dt)
	startStep := 0
	ck := m.cfg.Checkpoint.WithDefaults()
	ckActive := mute == nil && ck.Enabled()
	var ckFP string
	if ckActive {
		ckFP, _ = m.Fingerprint()
		if ck.Resume {
			st, err := checkpoint.Latest(ck.Dir)
			if err != nil {
				return fail(err)
			}
			if st != nil {
				if err := m.restoreFrom(s, probes, st, ckFP, inputs); err != nil {
					return fail(err)
				}
				startStep = st.Manifest.Step
				j.Emit(runID, "checkpoint.resume",
					journal.F("dir", ck.Dir),
					journal.F("step", startStep),
					journal.F("sim_time_s", s.Time),
					journal.F("from_run", st.Manifest.Run))
			}
		}
	}

	abortPoll := mon != nil && mon.Config().AbortOnCritical
	var paused bool
	var ckErr error
	transient := obs.StartSpan("micromag.transient", gateL, runL)
	// The callback sees the absolute step (startStep + step within this
	// segment), so the probe-sampling and snapshot cadences land on the
	// same steps whether or not the run was ever interrupted.
	err = s.RunSteps(ctx, total-startStep, func(step int) bool {
		abs := startStep + step
		if abs%sampleEvery == 0 {
			for _, p := range probes {
				p.Sample(s.Time, s.M)
			}
		}
		if ckActive {
			stop := ck.StopAtStep > 0 && abs >= ck.StopAtStep && abs < total
			if stop || abs%ck.EverySteps == 0 {
				if ckErr = m.saveCheckpoint(ck, s, probes, runID, ckFP, abs, total, inputs); ckErr != nil {
					return false
				}
			}
			if stop {
				paused = true
				return false
			}
		}
		return !(abortPoll && mon.Tripped())
	})
	transient.End()
	if ckErr != nil {
		return fail(ckErr)
	}
	if err != nil {
		return fail(fmt.Errorf("core: %s evaluation aborted: %w", m.kind, err))
	}
	if mon != nil {
		if herr := mon.Err(); herr != nil {
			return fail(fmt.Errorf("core: %s evaluation aborted: %w", m.kind, herr))
		}
	}
	if err := s.CheckFinite(); err != nil {
		return fail(err)
	}
	if paused {
		// A pause is not a failure: the checkpoint just committed is the
		// run's durable result so far, and a later run with Resume set
		// picks up exactly here. Skip the lock-in — the measurement window
		// may not even have started yet.
		j.Emit(runID, "run.paused",
			journal.F("step", s.Steps()),
			journal.F("total_steps", total),
			journal.F("sim_time_s", s.Time))
		return nil, nil, checkpoint.ErrPaused
	}
	j.Emit(runID, "run.settled",
		journal.F("steps", s.Steps()),
		journal.F("sim_time_s", s.Time))

	lockin := obs.StartSpan("micromag.lockin", gateL, runL)
	defer lockin.End()
	j.Emit(runID, "run.lockin",
		journal.F("freq_hz", m.Freq),
		journal.F("periods", m.cfg.MeasurePeriods))
	out = make(map[string]detect.Readout, len(probes))
	if complement {
		notOut = make(map[string]detect.Readout, len(probes))
	}
	for name, p := range probes {
		r, err := p.LockIn(m.Freq, m.cfg.MeasurePeriods)
		if err != nil {
			return fail(err)
		}
		out[name] = r
		if complement {
			if notOut[name], err = p.Mirror().LockIn(m.Freq, m.cfg.MeasurePeriods); err != nil {
				return fail(err)
			}
		}
	}
	if j.Enabled() {
		names := make([]string, 0, len(out))
		for name := range out {
			names = append(names, name)
		}
		sort.Strings(names)
		fields := make([]journal.Field, 0, 2*len(names))
		for _, name := range names {
			fields = append(fields,
				journal.F(name+".amplitude", out[name].Amplitude),
				journal.F(name+".phase", out[name].Phase))
		}
		j.Emit(runID, "run.complete", fields...)
	}
	return out, notOut, nil
}

// Snapshot runs the case on the whole film and returns the final
// magnetization field along with the mesh and material region — the raw
// material for the Figure 5 panels.
func (m *Micromagnetic) Snapshot(inputs []bool) (vec.Field, grid.Mesh, grid.Region, error) {
	s, _, err := m.newSolver(inputs, nil, false)
	if err != nil {
		return nil, grid.Mesh{}, nil, err
	}
	defer s.Close()
	s.Run(m.duration, nil)
	if err := s.CheckFinite(); err != nil {
		return nil, grid.Mesh{}, nil, err
	}
	return s.M, m.Mesh, m.Region, nil
}
