package llg

import (
	"time"

	"spinwave/internal/mag"
	"spinwave/internal/tile"
	"spinwave/internal/vec"
)

// This file implements the tiled, fused stepping core (DESIGN.md §10).
//
// Each Runge–Kutta stage is one banded pass over the precomputed active
// runs: the fused kernel evaluates the local effective field, overlays
// the time-dependent sources, computes the LLG torque and applies the
// stage update cell by cell. The mesh is split into horizontal row bands
// (tile.Split) executed on a persistent worker pool; the exchange
// stencil reads a one-row halo from the stage-input field, which is
// never written during the pass, and each band writes only its own rows
// of the stage-output field, so bands are data-race free by
// construction. A barrier (tile.Pool.Run returning) separates stages.
//
// Stage inputs and outputs ping-pong between two scratch fields (mtmp,
// mtmp2) instead of updating in place: an in-place update would
// overwrite cells that a neighboring cell's stencil — in this band or
// the adjacent one — still has to read. This is the shared-slice
// aliasing hazard the term-by-term stepper (internal/llg/llgref) avoids
// only by recomputing full-field copies every stage.
//
// Determinism: band boundaries depend only on (Ny, workers) and per-cell
// arithmetic is band-independent, so trajectories are bit-for-bit
// identical for every worker count (pinned by TestWorkerCountInvariance).
//
// The steady-state loop allocates nothing: all scratch lives in a
// per-solver vec.Arena, pass closures are prebuilt at construction, and
// stage parameters travel through the solver's stage field.

// stage carries the parameters of the in-flight banded pass.
type stage struct {
	t   float64   // field evaluation time of this stage
	in  vec.Field // stage-input magnetization (stencil + torque source)
	num uint8     // RK4 stage number, 1–4

	// doField/doTorque select the halves of the fused kernel. Both are
	// true in the common single-pass case; when a non-bandable source is
	// installed the stage runs as field pass → serial source sweep →
	// torque pass.
	doField  bool
	doTorque bool
}

// SetWorkers sets the number of stepping workers. n ≤ 1 selects inline
// serial execution; n > 1 starts a persistent tile.Pool of n goroutines
// that also accelerates the Energy reduction. Callers that set n > 1
// own the pool's lifetime and must call Close when done with the
// solver. The magnetization trajectory is bit-identical for every n.
func (s *Solver) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	if n == s.workers {
		return
	}
	s.workers = n
	if s.pool != nil {
		s.pool.Close()
		s.pool = nil
	}
	if n > 1 {
		s.pool = tile.NewPool(n)
	}
	s.Eval.SetPool(s.pool)
	s.prepared = false
}

// Workers returns the configured worker count (at least 1).
func (s *Solver) Workers() int {
	if s.workers < 1 {
		return 1
	}
	return s.workers
}

// Close releases the worker pool, if any. The solver remains usable
// afterwards in serial mode. Close is idempotent.
func (s *Solver) Close() {
	if s.pool != nil {
		s.pool.Close()
		s.pool = nil
		s.Eval.SetPool(nil)
		s.workers = 1
		s.prepared = false
	}
}

// SetMirrorBoundary makes row 1 of the mesh a mirror axis: row 0 is a
// ghost row that holds row 2's values, with mx and my negated when
// negate is set, refilled before every stage and after every step, and
// is never stepped itself. The solver then computes, cell for cell and
// bit for bit, the rows at and above the axis of a solve on the mesh
// mirrored about row 1, provided its field sums a cell's two vertical
// exchange neighbors as one commutative pair (mag.Evaluator.FieldRows
// does) and the damping of that solve is mirror-symmetric. Its drive
// must be mirror-symmetric, or with negate mirror-antisymmetric: the
// image of every source field is that field rotated by π about z, so
// the image cell holds (−mx, −my, mz). The mesh needs at least 3 rows.
func (s *Solver) SetMirrorBoundary(negate bool) {
	s.mirror, s.negateGhost = true, negate
	s.prepared = false
	s.fillGhost(s.M)
}

// fillGhost copies row 2 of f into the ghost row 0 of a mirror boundary,
// rotated by π about z for an antisymmetric one.
func (s *Solver) fillGhost(f vec.Field) {
	if !s.mirror {
		return
	}
	nx := s.Mesh.Nx
	for i := 0; i < nx; i++ {
		if s.Region[i] {
			v := f[2*nx+i]
			if s.negateGhost {
				v.X, v.Y = -v.X, -v.Y
			}
			f[i] = v
		}
	}
}

// InvalidatePrep discards the precomputed stepping state (bands, active
// runs, torque prefactors, source classification) so the next step
// rebuilds it. The mutating methods (SetWorkers, SetAlphaProfile,
// AddAbsorberTowards) call it automatically; call it manually after
// assigning Alpha, Gamma, Region or Eval.Sources directly between steps.
func (s *Solver) InvalidatePrep() { s.prepared = false }

// ensurePrep builds the fused-stepping state: band decomposition, the
// run/mask geometry shared with the evaluator, per-cell torque
// prefactors −γ/(1+α²), and the source classification (cell sources
// sampled inline, sparse sources gathered into an overlay, anything
// else handled by a serial sweep between the field and torque passes).
func (s *Solver) ensurePrep() {
	if s.prepared {
		return
	}
	initMetrics() // band timings may be observed from Step without a Run
	s.runs = s.Eval.Prepare()
	if s.mirror { // the ghost row 0 is never stepped
		s.bands = tile.Split(s.Mesh.Ny-1, s.Workers())
		for i := range s.bands {
			s.bands[i].J0++
			s.bands[i].J1++
		}
	} else {
		s.bands = tile.Split(s.Mesh.Ny, s.Workers())
	}
	if s.alphaPref == nil {
		s.alphaPref = make([]float64, len(s.Alpha))
	}
	for i, a := range s.Alpha {
		s.alphaPref[i] = -s.Gamma / (1 + a*a)
	}
	s.cellSrcs = s.cellSrcs[:0]
	s.sparseSrcs = s.sparseSrcs[:0]
	s.otherSrcs = s.otherSrcs[:0]
	for _, src := range s.Eval.Sources {
		switch x := src.(type) {
		case mag.CellSource:
			s.cellSrcs = append(s.cellSrcs, x)
		case mag.SparseSource:
			s.sparseSrcs = append(s.sparseSrcs, x)
		default:
			s.otherSrcs = append(s.otherSrcs, src)
		}
	}
	// Union of sparse-source cells, deduplicated, and its per-band split.
	seen := make(map[int]bool)
	s.srcCells = s.srcCells[:0]
	for _, src := range s.sparseSrcs {
		for _, c := range src.SourceCells() {
			if !seen[c] {
				seen[c] = true
				s.srcCells = append(s.srcCells, c)
			}
		}
	}
	s.srcCellsBand = make([][]int, len(s.bands))
	for bi, b := range s.bands {
		lo, hi := b.J0*s.Mesh.Nx, b.J1*s.Mesh.Nx
		var cells []int
		for _, c := range s.srcCells {
			if c >= lo && c < hi {
				cells = append(cells, c)
			}
		}
		s.srcCellsBand[bi] = cells
	}
	s.prepared = true
}

// Step advances the solver by one RK4 time step Dt with the banded
// fused kernel.
func (s *Solver) Step() {
	s.ensurePrep()
	dt, t := s.Dt, s.Time
	s.timeBands = s.steps&63 == 0 // sample band timings every 64 steps
	s.runStage(1, t, s.M)
	s.runStage(2, t+dt/2, s.mtmp)
	s.runStage(3, t+dt/2, s.mtmp2)
	s.runStage(4, t+dt, s.mtmp)
	s.timeBands = false
	s.fillGhost(s.M)
	s.Time += dt
	s.steps++
}

// runStage executes one RK stage across all bands. In the common case
// the field and torque halves run fused in a single barrier; when
// non-bandable sources are installed the stage splits into a field
// pass, a serial source sweep over the full field, and a torque pass.
func (s *Solver) runStage(num uint8, t float64, in vec.Field) {
	s.st.num, s.st.t, s.st.in = num, t, in
	s.fillGhost(in)
	s.applySparse(t)
	if len(s.otherSrcs) == 0 {
		s.st.doField, s.st.doTorque = true, true
		s.pool.Run(len(s.bands), s.passRK4)
		return
	}
	s.st.doField, s.st.doTorque = true, false
	s.pool.Run(len(s.bands), s.passRK4)
	for _, src := range s.otherSrcs {
		src.AddTo(t, s.b)
	}
	s.st.doField, s.st.doTorque = false, true
	s.pool.Run(len(s.bands), s.passRK4)
}

// applySparse rebuilds the sparse-source overlay for one stage time:
// the union cells are zeroed and every sparse source accumulates its
// contribution. The overlay is merged into the field inside each band's
// kernel, so overlapping antennas still sum in declaration order.
func (s *Solver) applySparse(t float64) {
	if len(s.sparseSrcs) == 0 {
		return
	}
	for _, c := range s.srcCells {
		s.srcB[c] = vec.Zero
	}
	for _, src := range s.sparseSrcs {
		src.AddTo(t, s.srcB)
	}
}

// fieldBand computes the effective field of one band's rows into s.b:
// the fused local terms (mag.Evaluator.FieldRows), then cell sources
// sampled per cell, then the sparse overlay.
func (s *Solver) fieldBand(bi int, t float64, in vec.Field) {
	band := s.bands[bi]
	s.Eval.FieldRows(in, s.b, band.J0, band.J1)
	if len(s.cellSrcs) > 0 {
		runs := s.runs.RowRuns(band.J0, band.J1)
		for _, src := range s.cellSrcs {
			for _, r := range runs {
				for c := int(r.Start); c < int(r.End); c++ {
					s.b[c] = s.b[c].Add(src.FieldAt(t, c))
				}
			}
		}
	}
	for _, c := range s.srcCellsBand[bi] {
		s.b[c] = s.b[c].Add(s.srcB[c])
	}
}

// torqueCell computes dm/dt for one cell from magnetization m and field
// b, using the precomputed prefactor −γ/(1+α²).
func (s *Solver) torqueCell(m, b vec.Vector, c int) vec.Vector {
	mxb := m.Cross(b)
	mxmxb := m.Cross(mxb)
	return mxb.MAdd(s.Alpha[c], mxmxb).Scale(s.alphaPref[c])
}

// rk4Band is the fused RK4 kernel for one band.
func (s *Solver) rk4Band(bi int) {
	var t0 time.Time
	if s.timeBands {
		t0 = time.Now()
	}
	st := &s.st
	if st.doField {
		s.fieldBand(bi, st.t, st.in)
	}
	if st.doTorque {
		band := s.bands[bi]
		runs := s.runs.RowRuns(band.J0, band.J1)
		dt := s.Dt
		switch st.num {
		case 1: // k1 from M; mtmp = M + dt/2·k1
			for _, r := range runs {
				for c := int(r.Start); c < int(r.End); c++ {
					k := s.torqueCell(s.M[c], s.b[c], c)
					s.k1[c] = k
					s.mtmp[c] = s.M[c].MAdd(dt/2, k)
				}
			}
		case 2: // k2 from mtmp; mtmp2 = M + dt/2·k2
			for _, r := range runs {
				for c := int(r.Start); c < int(r.End); c++ {
					k := s.torqueCell(s.mtmp[c], s.b[c], c)
					s.k2[c] = k
					s.mtmp2[c] = s.M[c].MAdd(dt/2, k)
				}
			}
		case 3: // k3 from mtmp2; mtmp = M + dt·k3
			for _, r := range runs {
				for c := int(r.Start); c < int(r.End); c++ {
					k := s.torqueCell(s.mtmp2[c], s.b[c], c)
					s.k3[c] = k
					s.mtmp[c] = s.M[c].MAdd(dt, k)
				}
			}
		case 4: // k4 from mtmp (in registers); final update + renormalize
			for _, r := range runs {
				for c := int(r.Start); c < int(r.End); c++ {
					k4 := s.torqueCell(s.mtmp[c], s.b[c], c)
					s.M[c] = s.M[c].
						MAdd(dt/6, s.k1[c]).
						MAdd(dt/3, s.k2[c]).
						MAdd(dt/3, s.k3[c]).
						MAdd(dt/6, k4).
						Normalized()
				}
			}
		}
	}
	if s.timeBands {
		mBandSeconds.Observe(time.Since(t0).Seconds())
	}
}
