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
// Region, Alpha, Gamma, Eval, Time and Dt — and owns its scratch
// fields. It does not advance Solver.Steps and calls no step observer.
// Optionally it adds an exact magnetostatic convolution (demag.Kernel)
// after Eval.Field in place of the local thin-film term; that is how the
// full-demag validation runs check the thin-film substitution.
package llgref

import (
	"spinwave/internal/demag"
	"spinwave/internal/llg"
	"spinwave/internal/vec"
)

// Stepper advances an llg.Solver with the term-by-term RK4 scheme.
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

// Step advances the solver by one fixed RK4 step Dt.
func (r *Stepper) Step() {
	s := r.s
	dt, t := s.Dt, s.Time
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
