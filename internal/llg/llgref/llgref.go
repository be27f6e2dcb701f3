// Package llgref is the term-by-term LLG integrator that the fused
// stepping core of internal/llg is checked and benchmarked against. It
// is a test oracle: only tests and cmd/swbench import it, and no
// production path reaches it.
//
// Every Runge–Kutta stage is a full-mesh sweep: mag.Evaluator.Field
// assembles the effective field, a separate pass computes the torque,
// and AddScaled/Copy passes apply the stage update, with a final
// renormalization sweep. The fused core reorders this arithmetic (one
// banded pass per stage, register-held last slope), so the two agree to
// floating-point round-off rather than bit for bit (DESIGN.md §10).
//
// A Stepper works only through an llg.Solver's exported state — M,
// Region, Alpha, Gamma, Eval, Time, Dt and Scheme — and owns its scratch
// fields. It does not advance Solver.Steps and calls no step observer.
// Optionally it adds an exact magnetostatic convolution (demag.Kernel)
// after Eval.Field in place of the local thin-film term; that is how the
// full-demag validation runs check the thin-film substitution.
package llgref

import (
	"fmt"
	"math"

	"spinwave/internal/demag"
	"spinwave/internal/llg"
	"spinwave/internal/vec"
)

// Stepper advances an llg.Solver with the term-by-term schemes.
type Stepper struct {
	s      *llg.Solver
	kernel *demag.Kernel

	b, k1, k2, k3, k4, mtmp vec.Field
}

// New wraps s. A non-nil kernel replaces the local thin-film demag term:
// New sets s.Eval.DisableDemag, and every field evaluation adds the
// kernel's convolution after Eval.Field (local terms, bias, then
// sources).
func New(s *llg.Solver, kernel *demag.Kernel) *Stepper {
	if kernel != nil {
		s.Eval.DisableDemag = true
	}
	n := len(s.M)
	return &Stepper{
		s:      s,
		kernel: kernel,
		b:      vec.NewField(n),
		k1:     vec.NewField(n),
		k2:     vec.NewField(n),
		k3:     vec.NewField(n),
		k4:     vec.NewField(n),
		mtmp:   vec.NewField(n),
	}
}

// rhs evaluates the field at (t, m) and writes the torque dm/dt into dst.
func (r *Stepper) rhs(t float64, m, dst vec.Field) {
	s := r.s
	s.Eval.Field(t, m, r.b)
	if r.kernel != nil {
		// Errors can only come from shape mismatches, which a kernel
		// built for the solver's mesh rules out.
		if err := r.kernel.AddInto(m, r.b); err != nil {
			panic(err)
		}
	}
	g := s.Gamma
	for i := range m {
		if !s.Region[i] {
			dst[i] = vec.Zero
			continue
		}
		a := s.Alpha[i]
		mxb := m[i].Cross(r.b[i])
		mxmxb := m[i].Cross(mxb)
		dst[i] = mxb.MAdd(a, mxmxb).Scale(-g / (1 + a*a))
	}
}

// renormalize rescales every region cell of M to unit length.
func (r *Stepper) renormalize() {
	for i, m := range r.s.M {
		if r.s.Region[i] {
			r.s.M[i] = m.Normalized()
		}
	}
}

// Step advances the solver by one fixed step Dt with its Scheme.
func (r *Stepper) Step() {
	s := r.s
	dt, t := s.Dt, s.Time
	switch s.Scheme {
	case llg.Heun:
		r.rhs(t, s.M, r.k1)
		r.mtmp.Copy(s.M)
		r.mtmp.AddScaled(dt, r.k1)
		r.rhs(t+dt, r.mtmp, r.k2)
		s.M.AddScaled(dt/2, r.k1)
		s.M.AddScaled(dt/2, r.k2)
	default: // RK4
		r.rhs(t, s.M, r.k1)
		r.mtmp.Copy(s.M)
		r.mtmp.AddScaled(dt/2, r.k1)
		r.rhs(t+dt/2, r.mtmp, r.k2)
		r.mtmp.Copy(s.M)
		r.mtmp.AddScaled(dt/2, r.k2)
		r.rhs(t+dt/2, r.mtmp, r.k3)
		r.mtmp.Copy(s.M)
		r.mtmp.AddScaled(dt, r.k3)
		r.rhs(t+dt, r.mtmp, r.k4)
		s.M.AddScaled(dt/6, r.k1)
		s.M.AddScaled(dt/3, r.k2)
		s.M.AddScaled(dt/3, r.k3)
		s.M.AddScaled(dt/6, r.k4)
	}
	r.renormalize()
	s.Time += dt
}

// Run advances the solver by duration (rounded down to whole steps),
// invoking each (if non-nil) after every step with the step count taken
// during this call (starting at 1); returning false stops the run.
func (r *Stepper) Run(duration float64, each func(step int) bool) {
	n := int(duration / r.s.Dt)
	for i := 1; i <= n; i++ {
		r.Step()
		if each != nil && !each(i) {
			return
		}
	}
}

// RunAdaptiveUntil advances the solver to the absolute time end with the
// Bogacki–Shampine RK23 pair and the same step-size controller as
// llg.Solver.RunAdaptiveUntil, restated here so the comparison checks
// the fused controller too. It returns the accepted and rejected step
// counts and leaves Dt at the proposed next step.
func (r *Stepper) RunAdaptiveUntil(end float64, cfg llg.AdaptiveConfig) (accepted, rejected int, err error) {
	s := r.s
	if cfg.MaxErr == 0 {
		cfg.MaxErr = 1e-5
	}
	if cfg.MinDt == 0 {
		cfg.MinDt = s.Dt / 100
	}
	if cfg.MaxDt == 0 {
		cfg.MaxDt = 10 * s.Dt
	}
	if cfg.Headroom == 0 {
		cfg.Headroom = 0.8
	}
	dt := math.Min(math.Max(s.Dt, cfg.MinDt), cfg.MaxDt)
	m2, e3 := r.mtmp, r.k4
	for s.Time < end {
		if s.Time+dt > end {
			dt = end - s.Time
		}
		t := s.Time
		// k1 at t, k2 at t+dt/2, k3 at t+3dt/4, the 3rd-order solution
		// y3, then the embedded error stage at t+dt.
		r.rhs(t, s.M, r.k1)
		m2.Copy(s.M)
		m2.AddScaled(dt/2, r.k1)
		r.rhs(t+dt/2, m2, r.k2)
		m2.Copy(s.M)
		m2.AddScaled(3*dt/4, r.k2)
		r.rhs(t+3*dt/4, m2, r.k3)
		// y3 = y + dt(2/9 k1 + 1/3 k2 + 4/9 k3)
		m2.Copy(s.M)
		m2.AddScaled(2*dt/9, r.k1)
		m2.AddScaled(dt/3, r.k2)
		m2.AddScaled(4*dt/9, r.k3)
		r.rhs(t+dt, m2, e3)
		// err = dt·‖(−5/72)k1 + (1/12)k2 + (1/9)k3 + (−1/8)k4‖∞
		worst := 0.0
		for i := range s.M {
			if !s.Region[i] {
				continue
			}
			ex := (-5.0/72)*r.k1[i].X + (1.0/12)*r.k2[i].X + (1.0/9)*r.k3[i].X - (1.0/8)*e3[i].X
			ey := (-5.0/72)*r.k1[i].Y + (1.0/12)*r.k2[i].Y + (1.0/9)*r.k3[i].Y - (1.0/8)*e3[i].Y
			ez := (-5.0/72)*r.k1[i].Z + (1.0/12)*r.k2[i].Z + (1.0/9)*r.k3[i].Z - (1.0/8)*e3[i].Z
			if e := math.Sqrt(ex*ex + ey*ey + ez*ez); e > worst {
				worst = e
			}
		}
		worst *= dt
		committed := worst <= cfg.MaxErr || dt <= cfg.MinDt
		if committed {
			s.M.Copy(m2)
			r.renormalize()
			s.Time = t + dt
			accepted++
		} else {
			rejected++
		}
		if worst > 0 {
			factor := math.Min(math.Max(cfg.Headroom*math.Cbrt(cfg.MaxErr/worst), 0.2), 5)
			dt = math.Min(math.Max(dt*factor, cfg.MinDt), cfg.MaxDt)
		} else {
			dt = math.Min(dt*2, cfg.MaxDt)
		}
		if accepted+rejected > 50_000_000 {
			return accepted, rejected, fmt.Errorf("llgref: adaptive run exceeded step budget")
		}
	}
	s.Dt = dt
	return accepted, rejected, nil
}
