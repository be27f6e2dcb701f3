package core

import (
	"math"
	"slices"

	"spinwave/internal/detect"
	"spinwave/internal/grid"
	"spinwave/internal/layout"
)

// mirror is the gate's exact mirror symmetry about its axis, the cell
// row through the first crossing point X that AlignAxisToCells snaps
// onto (DESIGN.md §13). Row axis+k of the mesh is the image of row
// axis−k; every material cell's image is a material cell, and every
// input and output has a partner node at its image position (a node on
// the axis is its own partner).
type mirror struct {
	axis   int               // the axis row of the full mesh
	nx     int               // mesh row length
	input  []int             // input index → its partner's index
	output map[string]string // output name → its partner's name

	// half is the mesh a mirror-symmetric drive steps: the ghost row
	// axis−1, the axis row and every row above it. It starts at flat
	// index off of the full mesh.
	half grid.Mesh
	off  int
}

// findMirror returns the layout's mirror symmetry on the rasterized
// region, or nil when the region or the node set is not mirror-exact.
func findMirror(kind GateKind, l *layout.Layout, mesh grid.Mesh, region grid.Region) *mirror {
	xi, err := l.NodeByName("X")
	if err != nil {
		return nil
	}
	y0 := l.Nodes[xi].Pos.Y
	axis := int(math.Round(y0/mesh.Dy - 0.5))
	tol := 1e-3 * mesh.Dy
	if axis < 1 || axis > mesh.Ny-2 || math.Abs((float64(axis)+0.5)*mesh.Dy-y0) > tol {
		return nil
	}
	for j := 0; j < mesh.Ny; j++ {
		for i := 0; i < mesh.Nx; i++ {
			if !region[mesh.Idx(i, j)] {
				continue
			}
			if jm := 2*axis - j; jm < 0 || jm >= mesh.Ny || !region[mesh.Idx(i, jm)] {
				return nil
			}
		}
	}
	// partner finds the node of the same kind at n's image position.
	partner := func(n layout.Node) (string, bool) {
		for _, p := range l.Nodes {
			if p.Kind == n.Kind && math.Abs(p.Pos.X-n.Pos.X) <= tol && math.Abs(p.Pos.Y+n.Pos.Y-2*y0) <= tol {
				return p.Name, true
			}
		}
		return "", false
	}
	names := kind.InputNames()
	mr := &mirror{axis: axis, nx: mesh.Nx, input: make([]int, len(names)), output: map[string]string{}}
	for k, name := range names {
		ni, err := l.NodeByName(name)
		if err != nil {
			return nil
		}
		p, ok := partner(l.Nodes[ni])
		if !ok {
			return nil
		}
		if mr.input[k] = slices.Index(names, p); mr.input[k] < 0 {
			return nil
		}
	}
	for _, oi := range l.Outputs() {
		p, ok := partner(l.Nodes[oi])
		if !ok {
			return nil
		}
		mr.output[l.Nodes[oi].Name] = p
	}
	mr.off = (axis - 1) * mesh.Nx
	half, err := grid.NewMesh(mesh.Nx, mesh.Ny-axis+1, mesh.Dx, mesh.Dy, mesh.Dz)
	if err != nil {
		return nil
	}
	mr.half = half
	return mr
}

// partnerOutput returns the output's partner, "" without a mirror.
func (mr *mirror) partnerOutput(name string) string {
	if mr == nil {
		return ""
	}
	return mr.output[name]
}

// row returns the mesh row of flat index c.
func (mr *mirror) row(c int) int { return c / mr.nx }

// reflect returns the flat index of c's image cell.
func (mr *mirror) reflect(c int) int {
	j := mr.row(c)
	return c + (2*mr.axis-2*j)*mr.nx
}

// reflectAll returns the images of cells, in the same order.
func (mr *mirror) reflectAll(cells []int) []int {
	out := make([]int, len(cells))
	for i, c := range cells {
		out[i] = mr.reflect(c)
	}
	return out
}

// symmetrize returns the cells at or above the axis plus the images of
// those above it, in flat-index order: the mirror-exact footprint of a
// node on the axis.
func (mr *mirror) symmetrize(cells []int) []int {
	var out []int
	for _, c := range cells {
		if j := mr.row(c); j >= mr.axis {
			out = append(out, c)
			if j > mr.axis {
				out = append(out, mr.reflect(c))
			}
		}
	}
	slices.Sort(out)
	return out
}

// mirrorAlpha overwrites the damping below the axis with that of the
// image cells above it.
func (mr *mirror) mirrorAlpha(alpha []float64) {
	for c := 0; c < mr.axis*mr.nx; c++ {
		alpha[c] = alpha[mr.reflect(c)]
	}
}

// symmetric reports whether a drive is its own mirror image: every input
// has its partner's level and muting.
func (mr *mirror) symmetric(inputs []bool, names []string, mute map[string]bool) bool {
	for k, p := range mr.input {
		if inputs[k] != inputs[p] || mute[names[k]] != mute[names[p]] {
			return false
		}
	}
	return true
}

// swapInputs returns the mirror image of an input case: every input
// takes its partner's level.
func (mr *mirror) swapInputs(inputs []bool) []bool {
	out := make([]bool, len(inputs))
	for k, p := range mr.input {
		out[k] = inputs[p]
	}
	return out
}

// swapReadouts returns the readouts of the mirrored run: every output
// reads what its partner read.
func (mr *mirror) swapReadouts(out map[string]detect.Readout) map[string]detect.Readout {
	res := make(map[string]detect.Readout, len(out))
	for name, r := range out {
		p := mr.output[name]
		r.Probe = p
		res[p] = r
	}
	return res
}

// sourceCells returns the half-mesh indices of the cells at or above the
// axis: the part of a drive footprint the half mesh steps.
func (mr *mirror) sourceCells(cells []int) []int {
	var out []int
	for _, c := range cells {
		if mr.row(c) >= mr.axis {
			out = append(out, c-mr.off)
		}
	}
	return out
}

// probeCells returns the half-mesh index of every cell, a cell below the
// axis read at its image: the same values in the same order as the full
// mesh holds on a mirror-symmetric run.
func (mr *mirror) probeCells(cells []int) []int {
	out := make([]int, len(cells))
	for i, c := range cells {
		if mr.row(c) < mr.axis {
			c = mr.reflect(c)
		}
		out[i] = c - mr.off
	}
	return out
}
