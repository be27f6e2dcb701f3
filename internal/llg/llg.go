// Package llg integrates the Landau–Lifshitz–Gilbert equation
//
//	dm/dt = −γ/(1+α²) · [ m×B + α·m×(m×B) ]
//
// (equation (1) of the paper, §II-C, in its explicit Landau–Lifshitz
// form) on the 2-D mesh of internal/grid, with the effective field
// supplied by an internal/mag.Evaluator. Units are SI per
// internal/units: γ in rad/(s·T), B in Tesla, time in seconds.
//
// The damping constant is per-cell so that absorbing boundary layers
// (smoothly ramped α) can terminate waveguides without reflections.
// Two fixed-step schemes are provided — Heun (2 field evaluations/step)
// and classical RK4 (4 evaluations, default) — plus the adaptive
// Bogacki–Shampine RK23 pair (RunAdaptive). Magnetization is
// renormalized after every accepted step.
//
// # Stepping core
//
// Step and RunAdaptiveUntil run the tiled fused core (parallel.go), the
// only integrator production reaches: each RK stage is a single pass
// over precomputed active-cell runs that evaluates the local field,
// overlays sources, computes the torque and applies the stage update,
// optionally split across a persistent worker pool (SetWorkers) in
// horizontal row bands. Trajectories are bit-for-bit identical across
// worker counts. The fused core agrees to floating-point round-off with
// the term-by-term test oracle in internal/llg/llgref (see DESIGN.md
// §10).
//
// # Concurrency
//
// A Solver is driven by one goroutine at a time; distinct Solvers are
// independent (they share no mutable state) and may run concurrently,
// each with its own worker pool. Callers that enable SetWorkers(n > 1)
// must Close the solver to release the pool goroutines.
package llg

import (
	"context"
	"fmt"
	"math"
	"time"

	"spinwave/internal/grid"
	"spinwave/internal/mag"
	"spinwave/internal/material"
	"spinwave/internal/tile"
	"spinwave/internal/vec"
)

// Scheme selects the time-integration method.
type Scheme int

const (
	// RK4 is the classical fourth-order Runge–Kutta scheme.
	RK4 Scheme = iota
	// Heun is the second-order predictor-corrector scheme; roughly twice
	// as fast per step but needs smaller steps for the same accuracy.
	Heun
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case RK4:
		return "rk4"
	case Heun:
		return "heun"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// scratchFields is the number of mesh-sized buffers carved from the
// solver's arena: b, k1..k3, mtmp, mtmp2, srcB.
const scratchFields = 7

// Solver advances the magnetization of one simulation in time.
type Solver struct {
	Mesh   grid.Mesh
	Region grid.Region
	Eval   *mag.Evaluator

	M     vec.Field // magnetization, unit vectors inside Region
	Alpha []float64 // per-cell Gilbert damping
	Gamma float64   // gyromagnetic ratio, rad/(s·T)

	Time   float64 // current simulation time, s
	Dt     float64 // fixed time step, s
	Scheme Scheme

	// RunID identifies the evaluation this solver serves; it is stamped
	// onto journal events emitted at solver level (adaptive step stats)
	// so they correlate with the run's lifecycle events and spans.
	RunID string

	steps int

	// obs, when non-nil, receives a callback after every committed
	// integrator step (see SetObserver).
	obs StepObserver

	// Scratch buffers, all carved from one arena allocation. b holds the
	// effective field, k1..k3 the stored RK stage slopes (the last slope
	// of every scheme stays in registers), mtmp/mtmp2 the ping-pong stage
	// inputs, and srcB the sparse-source overlay.
	arena         *vec.Arena
	b, k1, k2, k3 vec.Field
	mtmp, mtmp2   vec.Field
	srcB          vec.Field

	// Fused-stepping state (parallel.go), rebuilt by ensurePrep when
	// prepared is false.
	workers      int
	pool         *tile.Pool
	bands        []tile.Band
	prepared     bool
	runs         *grid.RunSet
	alphaPref    []float64 // −γ/(1+α²) per cell
	cellSrcs     []mag.CellSource
	sparseSrcs   []mag.SparseSource
	otherSrcs    []mag.Source
	srcCells     []int   // union of sparse-source cells, deduplicated
	srcCellsBand [][]int // srcCells split by band
	errPart      []float64
	timeBands    bool

	// mirror marks row 0 as a ghost row of the mirror boundary at row 1
	// (SetMirrorBoundary).
	mirror bool

	// Prebuilt pass closures and in-flight stage parameters; reusing
	// them keeps the steady-state stepping loop allocation-free.
	passRK4, passHeun, passBS23 func(int)
	st                          stage
}

// New creates a solver for the given geometry and material, with the
// magnetization initialized along +z (the perpendicular ground state of
// the paper's PMA film) and uniform damping mat.Alpha.
func New(mesh grid.Mesh, region grid.Region, mat material.Params, dt float64) (*Solver, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("llg: time step %g must be positive", dt)
	}
	ev, err := mag.NewEvaluator(mesh, region, mat)
	if err != nil {
		return nil, err
	}
	n := mesh.NCells()
	arena := vec.NewArena(scratchFields, n)
	s := &Solver{
		Mesh:    mesh,
		Region:  region,
		Eval:    ev,
		M:       vec.NewField(n),
		Alpha:   make([]float64, n),
		Gamma:   mat.GammaOrDefault(),
		Dt:      dt,
		Scheme:  RK4,
		workers: 1,
		arena:   arena,
		b:       arena.Field(),
		k1:      arena.Field(),
		k2:      arena.Field(),
		k3:      arena.Field(),
		mtmp:    arena.Field(),
		mtmp2:   arena.Field(),
		srcB:    arena.Field(),
	}
	s.passRK4 = func(bi int) { s.rk4Band(bi) }
	s.passHeun = func(bi int) { s.heunBand(bi) }
	s.passBS23 = func(bi int) { s.bs23Band(bi) }
	for i := range s.Alpha {
		s.Alpha[i] = mat.Alpha
	}
	s.SetUniformM(vec.UnitZ)
	return s, nil
}

// SetUniformM sets the magnetization of every region cell to the unit
// vector along v and zeroes the rest.
func (s *Solver) SetUniformM(v vec.Vector) {
	u := v.Normalized()
	for i := range s.M {
		if s.Region[i] {
			s.M[i] = u
		} else {
			s.M[i] = vec.Zero
		}
	}
}

// TiltM rotates the magnetization of every region cell by angle θ about
// the y axis, giving the small transverse component tests use to start
// precession.
func (s *Solver) TiltM(theta float64) {
	c, sn := math.Cos(theta), math.Sin(theta)
	for i := range s.M {
		if !s.Region[i] {
			continue
		}
		m := s.M[i]
		s.M[i] = vec.V(c*m.X+sn*m.Z, m.Y, -sn*m.X+c*m.Z)
	}
}

// SetAlphaProfile sets the per-cell damping to f(i, j) over region cells.
func (s *Solver) SetAlphaProfile(f func(i, j int) float64) {
	for j := 0; j < s.Mesh.Ny; j++ {
		for i := 0; i < s.Mesh.Nx; i++ {
			idx := s.Mesh.Idx(i, j)
			if s.Region[idx] {
				s.Alpha[idx] = f(i, j)
			}
		}
	}
	s.prepared = false
}

// AddAbsorberTowards raises damping smoothly (quadratic ramp) from the
// base value to maxAlpha for region cells within rampLen of point
// (px, py), emulating a matched termination at a waveguide end. Multiple
// absorbers combine by taking the maximum damping.
func (s *Solver) AddAbsorberTowards(px, py, rampLen, maxAlpha float64) {
	AddAbsorber(s.Mesh, s.Region, s.Alpha, px, py, rampLen, maxAlpha)
	s.prepared = false
}

// AddAbsorber is AddAbsorberTowards on a bare per-cell damping slice,
// for callers that build a damping profile once and copy it into many
// solvers.
func AddAbsorber(mesh grid.Mesh, region grid.Region, alpha []float64, px, py, rampLen, maxAlpha float64) {
	for j := 0; j < mesh.Ny; j++ {
		for i := 0; i < mesh.Nx; i++ {
			idx := mesh.Idx(i, j)
			if !region[idx] {
				continue
			}
			x, y := mesh.CellCenter(i, j)
			d := math.Hypot(x-px, y-py)
			if d >= rampLen {
				continue
			}
			u := 1 - d/rampLen // 1 at the end point, 0 at ramp start
			a := alpha[idx] + (maxAlpha-alpha[idx])*u*u
			if a > alpha[idx] {
				alpha[idx] = a
			}
		}
	}
}

// Steps returns the number of steps taken so far.
func (s *Solver) Steps() int { return s.steps }

// Restore overwrites the integrator state from a checkpoint: the
// magnetization (copied), the simulation time, the committed step count
// and the step size. It deliberately performs no renormalization — exact
// resume (DESIGN.md §15) must reproduce the stored bits untouched, and a
// checkpointed field is already normalized by the step that produced it.
func (s *Solver) Restore(m vec.Field, time float64, steps int, dt float64) error {
	if len(m) != len(s.M) {
		return fmt.Errorf("llg: restore field has %d cells, solver has %d", len(m), len(s.M))
	}
	if dt <= 0 {
		return fmt.Errorf("llg: restore time step %g must be positive", dt)
	}
	if steps < 0 {
		return fmt.Errorf("llg: restore step count %d must be non-negative", steps)
	}
	s.M.Copy(m)
	s.Time = time
	s.steps = steps
	s.Dt = dt
	return nil
}

// Run advances the solver by duration (rounded down to whole steps),
// invoking each (if non-nil) after every step with the step count taken
// during this Run call (starting at 1). If each returns false the run
// stops early.
func (s *Solver) Run(duration float64, each func(step int) bool) {
	_ = s.RunContext(context.Background(), duration, each)
}

// RunContext is Run with cancellation: the context is polled before every
// integrator step, so a cancelled or expired context aborts the
// integration within one step and returns ctx.Err(). The magnetization is
// left in its mid-run state; callers that abort should discard it.
func (s *Solver) RunContext(ctx context.Context, duration float64, each func(step int) bool) (err error) {
	return s.RunSteps(ctx, int(duration/s.Dt), each)
}

// RunSteps advances the solver by exactly n fixed steps — the
// resume-exact variant of RunContext. A resumed run must continue with
// `total − done` steps counted from the checkpoint, not with a duration:
// recomputing int(duration/Dt) against a mid-run Time can gain or lose a
// step to float rounding, and one step is all it takes to break
// bit-identical resume (DESIGN.md §15). each (if non-nil) is invoked
// after every committed step with the per-call step index (starting at
// 1); returning false stops the run early with the solver state
// consistent for a later resume.
func (s *Solver) RunSteps(ctx context.Context, n int, each func(step int) bool) (err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	initMetrics()
	start := time.Now()
	taken := 0
	defer func() {
		elapsed := time.Since(start).Seconds()
		mRuns.Inc()
		mSteps.Add(int64(taken))
		mRunSeconds.Observe(elapsed)
		if taken > 0 {
			mStepSeconds.Observe(elapsed / float64(taken))
			if elapsed > 0 {
				mStepsPerSec.Set(float64(taken) / elapsed)
			}
		}
	}()
	done := ctx.Done()
	for i := 1; i <= n; i++ {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		s.Step()
		taken = i
		if s.obs != nil {
			s.obs.ObserveStep(s.steps, s.Time, s.M)
		}
		if each != nil && !each(i) {
			return nil
		}
	}
	return ctx.Err()
}

// CheckFinite returns an error naming the first cell whose magnetization
// is not finite — the standard "simulation blew up" diagnostic.
func (s *Solver) CheckFinite() error {
	for i := range s.M {
		if s.Region[i] && !s.M[i].IsFinite() {
			ci, cj := s.Mesh.Coord(i)
			return fmt.Errorf("llg: non-finite magnetization at cell (%d,%d) after %d steps", ci, cj, s.steps)
		}
	}
	return nil
}

// StableDt estimates a conservative stable fixed step for RK4 from the
// largest field any cell can experience: the worst-case exchange field of
// fully antiparallel neighbors plus the static anisotropy and demag terms.
// The returned value includes a safety factor of 0.35.
func StableDt(mesh grid.Mesh, mat material.Params) float64 {
	c := mag.CoeffsFor(mat)
	bex := c.ExFactor * (4/(mesh.Dx*mesh.Dx) + 4/(mesh.Dy*mesh.Dy))
	bmax := bex + math.Abs(c.BAnis) + c.BDemag
	wmax := mat.GammaOrDefault() * bmax
	// RK4 linear stability limit is |λ|·dt ≈ 2.8 on the imaginary axis.
	return 0.35 * 2.8 / wmax
}
