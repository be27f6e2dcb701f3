// Package mag computes the effective magnetic field (in Tesla) entering
// the Landau–Lifshitz–Gilbert equation for a 2-D thin-film mesh:
//
//	B_eff = B_exchange + B_anisotropy + B_demag + B_bias + Σ B_sources(t)
//
// Terms:
//   - Exchange: B_ex = (2·Aex/Ms)·∇²m with a 5-point Laplacian and free
//     (Neumann) boundary conditions at geometry edges — missing neighbors
//     simply do not contribute, the same convention MuMax3 uses.
//   - Uniaxial anisotropy: B_anis = (2·Ku1/Ms)·(m·u)·u.
//   - Demagnetization: the film is 1 nm thick, far thinner than any lateral
//     feature, so the demag tensor is ≈ diag(0, 0, 1) and the field reduces
//     to the local term B_demag = −µ0·Ms·mz·ẑ. This is the documented
//     substitution for MuMax3's FFT-based convolution (see DESIGN.md §2);
//     it preserves forward-volume spin-wave propagation, which is the only
//     physics the gates rely on.
//   - Bias: a uniform static field.
//   - Sources: time-dependent contributions (antennas, thermal field)
//     via the Source interface.
//
// Units are SI throughout (see internal/units): fields in Tesla, lengths
// in meters, energies in Joules.
//
// # Concurrency
//
// An Evaluator is driven by one goroutine at a time (the solver), but
// its banded entry point FieldRows may run concurrently for disjoint
// row bands: each band writes only its own rows while the magnetization
// input is read-only, so the exchange stencil's one-row halo reads are
// safe without locks (DESIGN.md §10).
// All local terms are evaluated per cell with band-independent
// arithmetic, so results are bit-for-bit identical for any banding.
package mag

import (
	"fmt"
	"sync"

	"spinwave/internal/grid"
	"spinwave/internal/material"
	"spinwave/internal/tile"
	"spinwave/internal/units"
	"spinwave/internal/vec"
)

// Coeffs are the per-material field coefficients in Tesla-compatible form.
type Coeffs struct {
	ExFactor float64    // 2·Aex/Ms, T·m²
	BAnis    float64    // 2·Ku1/Ms, T
	AnisAxis vec.Vector // unit easy axis
	BDemag   float64    // µ0·Ms, T
	BBias    vec.Vector // uniform external field, T
	Ms       float64    // saturation magnetization, A/m (for energies)
}

// CoeffsFor derives the field coefficients from material parameters.
func CoeffsFor(mat material.Params) Coeffs {
	return Coeffs{
		ExFactor: 2 * mat.Aex / mat.Ms,
		BAnis:    2 * mat.Ku1 / mat.Ms,
		AnisAxis: mat.AnisU.Normalized(),
		BDemag:   units.Mu0 * mat.Ms,
		Ms:       mat.Ms,
	}
}

// Source is a time-dependent field contribution (antenna, thermal field).
type Source interface {
	// AddTo adds the source's field at time t (seconds) into B (Tesla).
	AddTo(t float64, B vec.Field)
}

// SparseSource is a Source confined to a small fixed set of cells (an
// antenna). The parallel stepper accumulates sparse sources into an
// overlay field once per stage instead of sweeping the full mesh.
type SparseSource interface {
	Source
	// SourceCells returns the flat indices the source writes; the set
	// must not change between calls.
	SourceCells() []int
}

// CellSource is a Source whose value at a cell is an independent pure
// function of (t, cell) — the counter-based thermal field. The fused
// stepper samples it per cell inside the stencil pass; because the value
// does not depend on evaluation order, banding leaves results
// bit-identical.
type CellSource interface {
	Source
	// FieldAt returns the source field at one cell.
	FieldAt(t float64, cell int) vec.Vector
}

// Evaluator assembles the effective field for a fixed mesh/geometry.
type Evaluator struct {
	Mesh    grid.Mesh
	Region  grid.Region
	Coeffs  Coeffs
	Sources []Source

	// DisableExchange, DisableAnisotropy and DisableDemag switch off
	// individual terms; used by ablation benchmarks and tests.
	DisableExchange   bool
	DisableAnisotropy bool
	DisableDemag      bool

	// runs is the lazily built iteration geometry (active runs and
	// stencil neighbor masks). It caches the Region contents: call
	// Invalidate after mutating Region in place.
	runs     *grid.RunSet
	runsOnce sync.Once

	// pool, when set, parallelizes Energy row partials.
	pool *tile.Pool
}

// NewEvaluator constructs an evaluator after validating shapes.
func NewEvaluator(mesh grid.Mesh, region grid.Region, mat material.Params) (*Evaluator, error) {
	if len(region) != mesh.NCells() {
		return nil, fmt.Errorf("mag: region has %d cells, mesh has %d", len(region), mesh.NCells())
	}
	if err := mat.Validate(); err != nil {
		return nil, err
	}
	return &Evaluator{Mesh: mesh, Region: region, Coeffs: CoeffsFor(mat)}, nil
}

// Prepare builds the precomputed iteration geometry (active-cell runs
// and per-cell stencil neighbor masks) if it has not been built yet. It
// is called implicitly by Field/FieldRows; call it explicitly to move
// the one-time cost out of the first step. The geometry snapshots the
// Region contents — mutate the region only before Prepare, or call
// Invalidate afterwards.
func (e *Evaluator) Prepare() *grid.RunSet {
	e.runsOnce.Do(func() { e.runs = grid.NewRunSet(e.Mesh, e.Region) })
	return e.runs
}

// Invalidate discards the precomputed geometry so the next evaluation
// rebuilds it from the current Region contents.
func (e *Evaluator) Invalidate() {
	e.runs = nil
	e.runsOnce = sync.Once{}
}

// SetPool installs a persistent worker pool used to parallelize the
// Energy reduction. A nil pool restores serial evaluation. (Field-term
// banding is driven by the caller via FieldRows; it does not use this
// pool.)
func (e *Evaluator) SetPool(p *tile.Pool) { e.pool = p }

// Field evaluates B_eff at time t for magnetization m, writing into B:
// FieldRows over every row, then the sources. Cells outside the region
// are set to zero. It is the serial whole-mesh evaluation; the LLG
// solver drives FieldRows band by band instead.
func (e *Evaluator) Field(t float64, m, B vec.Field) {
	B.Zero()
	e.FieldRows(m, B, 0, e.Mesh.Ny)
	for _, s := range e.Sources {
		s.AddTo(t, B)
	}
}

// FieldRows writes the fused local field — exchange, anisotropy,
// thin-film demag and bias — into B for every region cell of rows
// [j0, j1), overwriting previous contents of those cells. Cells outside
// the region are not touched. Disjoint row ranges may run concurrently;
// m must not be mutated while any FieldRows call is in flight.
//
// This is the hot kernel of the parallel stepper: one sweep over the
// precomputed active runs replaces the zero + exchange + anisotropy +
// demag + bias sweeps of the term-by-term path, with the per-cell
// arithmetic kept in the exact same order so results are bit-identical.
func (e *Evaluator) FieldRows(m, B vec.Field, j0, j1 int) {
	rs := e.Prepare()
	masks := rs.Masks()
	nx := e.Mesh.Nx
	wx := e.Coeffs.ExFactor / (e.Mesh.Dx * e.Mesh.Dx)
	wy := e.Coeffs.ExFactor / (e.Mesh.Dy * e.Mesh.Dy)
	doEx := !e.DisableExchange
	bAnis, axis := e.Coeffs.BAnis, e.Coeffs.AnisAxis
	doAnis := !e.DisableAnisotropy && bAnis != 0
	bDemag := e.Coeffs.BDemag
	doDemag := !e.DisableDemag
	bias := e.Coeffs.BBias
	doBias := bias != vec.Zero
	for _, run := range rs.RowRuns(j0, j1) {
		for c := int(run.Start); c < int(run.End); c++ {
			mc := m[c]
			var acc vec.Vector
			if doEx {
				mask := masks[c]
				if mask&grid.MaskLeft != 0 {
					acc = acc.MAdd(wx, m[c-1].Sub(mc))
				}
				if mask&grid.MaskRight != 0 {
					acc = acc.MAdd(wx, m[c+1].Sub(mc))
				}
				// The down and up differences are summed as one pair before
				// scaling: IEEE addition commutes, so a cell and its mirror
				// image across a row see the same bits (DESIGN.md §13).
				switch mask & (grid.MaskDown | grid.MaskUp) {
				case grid.MaskDown | grid.MaskUp:
					acc = acc.MAdd(wy, m[c-nx].Sub(mc).Add(m[c+nx].Sub(mc)))
				case grid.MaskDown:
					acc = acc.MAdd(wy, m[c-nx].Sub(mc))
				case grid.MaskUp:
					acc = acc.MAdd(wy, m[c+nx].Sub(mc))
				}
			}
			if doAnis {
				acc = acc.MAdd(bAnis*mc.Dot(axis), axis)
			}
			if doDemag {
				acc.Z -= bDemag * mc.Z
			}
			if doBias {
				acc = acc.Add(bias)
			}
			B[c] = acc
		}
	}
}

// AddExchange adds the exchange field B_ex = factor·∇²m, with factor in
// T·m². Neighbors outside the region or the mesh contribute nothing
// (free boundary condition).
func AddExchange(mesh grid.Mesh, region grid.Region, m, B vec.Field, factor float64) {
	nx, ny := mesh.Nx, mesh.Ny
	wx := factor / (mesh.Dx * mesh.Dx)
	wy := factor / (mesh.Dy * mesh.Dy)
	for j := 0; j < ny; j++ {
		row := j * nx
		for i := 0; i < nx; i++ {
			c := row + i
			if !region[c] {
				continue
			}
			mc := m[c]
			var acc vec.Vector
			if i > 0 && region[c-1] {
				acc = acc.MAdd(wx, m[c-1].Sub(mc))
			}
			if i < nx-1 && region[c+1] {
				acc = acc.MAdd(wx, m[c+1].Sub(mc))
			}
			down, up := j > 0 && region[c-nx], j < ny-1 && region[c+nx]
			switch {
			case down && up: // one pair, as in FieldRows
				acc = acc.MAdd(wy, m[c-nx].Sub(mc).Add(m[c+nx].Sub(mc)))
			case down:
				acc = acc.MAdd(wy, m[c-nx].Sub(mc))
			case up:
				acc = acc.MAdd(wy, m[c+nx].Sub(mc))
			}
			B[c] = B[c].Add(acc)
		}
	}
}

// AddUniaxial adds the uniaxial anisotropy field bAnis·(m·u)·u.
func AddUniaxial(region grid.Region, m, B vec.Field, bAnis float64, axis vec.Vector) {
	for c := range m {
		if !region[c] {
			continue
		}
		proj := m[c].Dot(axis)
		B[c] = B[c].MAdd(bAnis*proj, axis)
	}
}

// AddThinFilmDemag adds the local thin-film demagnetization field
// −bDemag·mz·ẑ with bDemag = µ0·Ms.
func AddThinFilmDemag(region grid.Region, m, B vec.Field, bDemag float64) {
	for c := range m {
		if !region[c] {
			continue
		}
		B[c].Z -= bDemag * m[c].Z
	}
}

// AddUniform adds a spatially uniform field over the region.
func AddUniform(region grid.Region, B vec.Field, b vec.Vector) {
	for c := range B {
		if region[c] {
			B[c] = B[c].Add(b)
		}
	}
}

// Energy returns the total magnetic energy (J) of configuration m,
// composed of exchange, anisotropy, demag and Zeeman contributions. It
// is used for diagnostics and for the damping/energy-dissipation tests.
//
// The sum is assembled from per-row partials merged in row order — a
// fixed reduction order independent of the worker count — so the value
// is bit-identical whether it is computed serially or on the pool
// installed with SetPool.
func (e *Evaluator) Energy(m vec.Field) float64 {
	ny := e.Mesh.Ny
	rows := make([]float64, ny)
	if e.pool != nil && e.pool.Workers() > 1 {
		bands := tile.Split(ny, e.pool.Workers())
		e.pool.Run(len(bands), func(b int) {
			for j := bands[b].J0; j < bands[b].J1; j++ {
				rows[j] = e.rowEnergy(m, j)
			}
		})
	} else {
		for j := 0; j < ny; j++ {
			rows[j] = e.rowEnergy(m, j)
		}
	}
	return tile.SumFloat64s(rows)
}

// rowEnergy accumulates the energy contributions of row j in cell order.
func (e *Evaluator) rowEnergy(m vec.Field, j int) float64 {
	mesh, reg, c := e.Mesh, e.Region, e.Coeffs
	vol := mesh.CellVolume()
	nx := mesh.Nx
	row := j * nx
	var etot float64
	for i := 0; i < nx; i++ {
		idx := row + i
		if !reg[idx] {
			continue
		}
		mc := m[idx]
		// Exchange: A·|∇m|², one-sided differences counted once per bond.
		if !e.DisableExchange {
			aex := c.ExFactor * c.Ms / 2 // back to Aex
			if i < nx-1 && reg[idx+1] {
				d := m[idx+1].Sub(mc)
				etot += aex * d.Norm2() / (mesh.Dx * mesh.Dx) * vol
			}
			if j < mesh.Ny-1 && reg[idx+nx] {
				d := m[idx+nx].Sub(mc)
				etot += aex * d.Norm2() / (mesh.Dy * mesh.Dy) * vol
			}
		}
		// Anisotropy: Ku1·(1 − (m·u)²).
		if !e.DisableAnisotropy && c.BAnis != 0 {
			ku := c.BAnis * c.Ms / 2
			p := mc.Dot(c.AnisAxis)
			etot += ku * (1 - p*p) * vol
		}
		// Thin-film demag: ½·µ0·Ms²·mz².
		if !e.DisableDemag {
			etot += 0.5 * c.BDemag * c.Ms * mc.Z * mc.Z * vol
		}
		// Zeeman: −Ms·(m·B_bias).
		if c.BBias != vec.Zero {
			etot -= c.Ms * mc.Dot(c.BBias) * vol
		}
	}
	return etot
}
