package llg

import (
	"fmt"
	"math"

	"spinwave/internal/journal"
	"spinwave/internal/tile"
)

// AdaptiveConfig tunes the embedded Bogacki–Shampine (RK23) adaptive
// stepper, the same error-controlled approach MuMax3 defaults to.
type AdaptiveConfig struct {
	// MaxErr is the per-step magnetization error tolerance (default
	// 1e-5, MuMax3's default).
	MaxErr float64
	// MinDt and MaxDt bound the step size (defaults: Dt/100 and 10·Dt
	// of the solver at Run time).
	MinDt, MaxDt float64
	// Headroom is the safety factor on the step-size update (default
	// 0.8).
	Headroom float64
}

func (c AdaptiveConfig) withDefaults(dt float64) AdaptiveConfig {
	if c.MaxErr == 0 {
		c.MaxErr = 1e-5
	}
	if c.MinDt == 0 {
		c.MinDt = dt / 100
	}
	if c.MaxDt == 0 {
		c.MaxDt = 10 * dt
	}
	if c.Headroom == 0 {
		c.Headroom = 0.8
	}
	return c
}

// RunAdaptive advances the solver by duration using the embedded RK23
// (Bogacki–Shampine) pair with per-step error control: the step is
// accepted when the estimated error is below MaxErr and the step size is
// rescaled by (MaxErr/err)^(1/3) either way. It returns the number of
// accepted and rejected steps. The solver's Dt field is used as the
// initial step and left at the final adapted value.
//
// Like Step, it runs the fused tiled core. The error estimate is an
// ∞-norm: it is reduced from fixed per-band partials, and the maximum is
// partition-invariant, so accept/reject decisions — and hence the whole
// trajectory — are bit-identical for every worker count.
func (s *Solver) RunAdaptive(duration float64, cfg AdaptiveConfig) (accepted, rejected int, err error) {
	if duration <= 0 {
		return 0, 0, fmt.Errorf("llg: adaptive duration %g must be positive", duration)
	}
	return s.RunAdaptiveUntil(s.Time+duration, cfg, nil)
}

// RunAdaptiveUntil advances the solver to the absolute simulation time
// end with the same RK23 controller as RunAdaptive — the resume-exact
// variant. Chunking a run by absolute end time matters for checkpointing:
// RunAdaptive's relative duration would re-derive a slightly different
// end from a mid-run Time, and the final clamped step would differ.
//
// each (if non-nil) is invoked after every accepted step, *after* the
// step-size controller has proposed the next dt (visible as s.Dt), so a
// checkpoint taken inside the callback captures exactly the loop state —
// M, Time, Dt, Steps — that a later RunAdaptiveUntil call with the same
// end and config needs to replay the remaining accept/reject sequence
// bit-identically (DESIGN.md §15). Resume-exact callers must pass
// explicit MinDt/MaxDt bounds: the defaults are derived from the
// solver's current Dt, which at resume is the adapted value, so
// defaulted bounds would differ between the original and resumed calls
// and change the controller's clamping. Returning false stops the run early
// with the state left consistent for such a resume. An end at or before
// the current time is a no-op, not an error — that is how a resumed
// segment that was interrupted on its last step terminates.
func (s *Solver) RunAdaptiveUntil(end float64, cfg AdaptiveConfig, each func(step int) bool) (accepted, rejected int, err error) {
	if math.IsNaN(end) || math.IsInf(end, 0) {
		return 0, 0, fmt.Errorf("llg: adaptive end time %g must be finite", end)
	}
	cfg = cfg.withDefaults(s.Dt)
	if cfg.MinDt <= 0 || cfg.MaxDt < cfg.MinDt {
		return 0, 0, fmt.Errorf("llg: invalid adaptive step bounds [%g, %g]", cfg.MinDt, cfg.MaxDt)
	}
	accepted, rejected, err = s.runAdaptiveFused(end, cfg, each)
	if j := journal.Default(); j.Enabled() {
		j.Emit(s.RunID, "adaptive.stats",
			journal.F("accepted", accepted),
			journal.F("rejected", rejected),
			journal.F("final_dt", s.Dt),
			journal.F("max_err", cfg.MaxErr))
	}
	return accepted, rejected, err
}

// runAdaptiveFused is the banded RK23 loop (kernels in parallel.go).
func (s *Solver) runAdaptiveFused(end float64, cfg AdaptiveConfig, each func(step int) bool) (accepted, rejected int, err error) {
	s.ensurePrep()
	dt := math.Min(math.Max(s.Dt, cfg.MinDt), cfg.MaxDt)

	for s.Time < end {
		if s.Time+dt > end {
			dt = end - s.Time
		}
		t := s.Time
		s.timeBands = false
		// Stages 1–3 build the 3rd-order solution y3 into mtmp; stage 4
		// evaluates the embedded error stage at t+dt and folds the
		// squared-norm error into per-band partials.
		s.runStage(s.passBS23, 1, t, dt, s.M)
		s.runStage(s.passBS23, 2, t+dt/2, dt, s.mtmp)
		s.runStage(s.passBS23, 3, t+3*dt/4, dt, s.mtmp2)
		s.runStage(s.passBS23, 4, t+dt, dt, s.mtmp)
		// √ of the max squared norm equals the max norm (√ is monotone),
		// so this matches the ∞-norm of per-cell norms exactly.
		worst := math.Sqrt(tile.MaxFloat64s(s.errPart)) * dt
		committed := worst <= cfg.MaxErr || dt <= cfg.MinDt
		if committed {
			// Accept: commit M = normalize(y3) without a field pass.
			s.st.num, s.st.t, s.st.dt, s.st.in = 5, t+dt, dt, s.mtmp
			s.st.doField, s.st.doTorque = false, true
			s.pool.Run(len(s.bands), s.passBS23)
			s.fillGhost(s.M)
			s.Time = t + dt
			s.steps++
			accepted++
			if s.obs != nil {
				s.obs.ObserveStep(s.steps, s.Time, s.M)
			}
		} else {
			rejected++
		}
		dt = nextDt(dt, worst, cfg)
		if committed && each != nil {
			s.Dt = dt // expose the proposed next step to the callback's checkpoint
			if !each(accepted) {
				return accepted, rejected, nil
			}
		}
		if accepted+rejected > 50_000_000 {
			return accepted, rejected, fmt.Errorf("llg: adaptive run exceeded step budget")
		}
	}
	s.Dt = dt
	return accepted, rejected, nil
}

// nextDt is the step-size controller (3rd-order: exponent 1/3).
func nextDt(dt, worst float64, cfg AdaptiveConfig) float64 {
	if worst > 0 {
		factor := cfg.Headroom * math.Cbrt(cfg.MaxErr/worst)
		factor = math.Min(math.Max(factor, 0.2), 5)
		return math.Min(math.Max(dt*factor, cfg.MinDt), cfg.MaxDt)
	}
	return math.Min(dt*2, cfg.MaxDt)
}
