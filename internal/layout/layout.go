// Package layout builds the gate geometries of the paper: the triangle
// shape fan-out-of-2 Majority gate (Figure 3), the triangle XOR gate
// (Figure 4), a straight reference waveguide, and the supporting graph
// structure consumed by both evaluation backends.
//
// A layout is both a geometric object (waveguide centerlines that can be
// rasterized onto a mesh) and a signal-flow graph (nodes and directed
// edges with path lengths) consumed by the behavioral phasor backend.
//
// # Reconstructed triangle geometry
//
// The paper specifies the dimension set {d1, d2, d3, d4} and the design
// rules that all interfering path lengths be integer multiples of the
// wavelength λ and the structure be mirror-symmetric (see DESIGN.md §5).
// The reconstruction used here follows the paper's two-stage interference
// description (§III-A, steps (ii)–(iii)):
//
//   - Input arms I1→X and I2→X of length d1 at a shallow half-angle
//     (Spec.MergeDeg) meet adiabatically at the first crossing point X.
//   - A short straight body X→X2 (length = BodyN·λ) carries the combined
//     wave. The body is the mode filter: for a single-mode waveguide the
//     antisymmetric (destructive) combination cannot propagate through
//     it, which is what makes the interference pattern clean — the
//     paper's "width ≤ λ" rule serves the same purpose.
//   - Fan-out arms X2→Y1 and X2→Y2 of length d1 each, elevated so that
//     the half-separation of Y1/Y2 equals HalfFrac·d3.
//   - I3 feed: a horizontal trunk I3→S of length d2 on the symmetry
//     axis (approaching from the right), splitting at S into the two
//     arms S→Y1 and S→Y2 of length d3 — the second crossing points,
//     where the I1⊕I2 wave interferes with I3's.
//   - Output stubs Y1→O1 and Y2→O2 of length d4 continue straight along
//     the fan-arm directions, followed by absorbing tails that emulate
//     the matched continuation into a next gate stage (assumption (v)).
//
// With the paper's dimensions (d1,d2,d3,d4) = (6,16,4,1)·λ and a 2λ body,
// every interfering path is an integer number of wavelengths:
// I1→O1 = I2→O1 = 15λ and I3→O1 = 21λ.
package layout

import (
	"fmt"
	"math"

	"spinwave/internal/geom"
	"spinwave/internal/grid"
	"spinwave/internal/units"
)

// NodeKind classifies layout graph nodes.
type NodeKind int

const (
	// Input marks a transducer node that excites spin waves.
	Input NodeKind = iota
	// Output marks a detection node.
	Output
	// Junction marks an interference/splitting point.
	Junction
	// Termination marks an absorbing waveguide end (matched load).
	Termination
)

// String names the node kind.
func (k NodeKind) String() string {
	switch k {
	case Input:
		return "input"
	case Output:
		return "output"
	case Junction:
		return "junction"
	case Termination:
		return "termination"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is a named point of the layout graph.
type Node struct {
	Name string
	Kind NodeKind
	Pos  geom.Point
}

// Edge is a waveguide arm between two nodes. Direction follows signal
// flow (From closer to the inputs).
type Edge struct {
	From, To int     // node indices
	Length   float64 // centerline length in meters
}

// Layout is a complete gate geometry plus its signal-flow graph.
type Layout struct {
	Name   string
	Lambda float64 // design wavelength, m
	Width  float64 // waveguide width, m
	Nodes  []Node
	Edges  []Edge
}

// Spec parameterizes the triangle gates. All dN are integer multiples of
// the wavelength, matching the paper's design rule (§III-A).
type Spec struct {
	Lambda float64 // spin-wave wavelength λ, m
	Width  float64 // waveguide width (≤ λ per §III-A), m

	D1N   int // input and fan-out arm length d1, in λ
	D2N   int // I3 trunk length d2, in λ
	D3N   int // I3 split arm length d3, in λ
	D4N   int // output stub length d4, in λ (Majority gate)
	BodyN int // straight body between merge and split, in λ

	// MergeDeg is the half-angle (degrees) of the I1/I2 input arms with
	// respect to the body axis. Shallow angles give adiabatic, low-loss
	// merging; 45° reproduces a textbook Y-junction.
	MergeDeg float64
	// HalfFrac sets the Y1/Y2 half-separation as a fraction of d3
	// (0 < HalfFrac < 1); smaller values flatten both the fan-out arms
	// and the I3 split arms.
	HalfFrac float64

	XORStub float64 // XOR output stub length (not λ-constrained, paper: 40 nm)
	Tail    float64 // absorbing tail beyond each output, m
	Margin  float64 // vacuum margin around the device when meshed, m

	// OutputHalfWave lengthens the Majority output stubs to (D4N+½)·λ,
	// the paper's §III-A rule for an inverting output ("if the desired
	// output has to give logic inversion then d4 must be (n+1/2)λ").
	OutputHalfWave bool
}

// Validate checks the physical and geometric constraints.
func (s Spec) Validate() error {
	if s.Lambda <= 0 {
		return fmt.Errorf("layout: wavelength %g must be positive", s.Lambda)
	}
	if s.Width <= 0 {
		return fmt.Errorf("layout: width %g must be positive", s.Width)
	}
	if s.Width > s.Lambda {
		return fmt.Errorf("layout: width %g exceeds wavelength %g (paper §III-A requires w ≤ λ)", s.Width, s.Lambda)
	}
	if s.D1N < 1 || s.D2N < 1 || s.D3N < 1 || s.D4N < 1 || s.BodyN < 1 {
		return fmt.Errorf("layout: arm lengths (%d,%d,%d,%d,%d)λ must all be ≥ 1λ", s.D1N, s.D2N, s.D3N, s.D4N, s.BodyN)
	}
	if s.MergeDeg <= 0 || s.MergeDeg > 60 {
		return fmt.Errorf("layout: merge half-angle %g° must be in (0, 60]", s.MergeDeg)
	}
	if s.HalfFrac <= 0 || s.HalfFrac >= 1 {
		return fmt.Errorf("layout: HalfFrac %g must be in (0, 1)", s.HalfFrac)
	}
	// The fan-out arm elevation requires sin θ2 = HalfFrac·d3/d1 ≤ 1.
	if s.HalfFrac*float64(s.D3N) > float64(s.D1N) {
		return fmt.Errorf("layout: d3 = %dλ too long for d1 = %dλ (need HalfFrac·d3 ≤ d1)", s.D3N, s.D1N)
	}
	// The Y1/Y2 junctions must clear the axis trunk: half-separation > width.
	if s.HalfFrac*float64(s.D3N)*s.Lambda <= s.Width {
		return fmt.Errorf("layout: Y-rail separation %.3g too small for width %.3g", s.HalfFrac*float64(s.D3N)*s.Lambda, s.Width)
	}
	if s.XORStub <= 0 {
		return fmt.Errorf("layout: XOR stub %g must be positive", s.XORStub)
	}
	if s.Tail < 0 || s.Margin < 0 {
		return fmt.Errorf("layout: tail/margin must be non-negative")
	}
	return nil
}

// D1 returns the input/fan-out arm length in meters.
func (s Spec) D1() float64 { return float64(s.D1N) * s.Lambda }

// D2 returns the I3 trunk length in meters.
func (s Spec) D2() float64 { return float64(s.D2N) * s.Lambda }

// D3 returns the I3 split arm length in meters.
func (s Spec) D3() float64 { return float64(s.D3N) * s.Lambda }

// D4 returns the Majority output stub length in meters: D4N·λ, plus a
// half wavelength when OutputHalfWave selects the inverting output.
func (s Spec) D4() float64 {
	d := float64(s.D4N) * s.Lambda
	if s.OutputHalfWave {
		d += s.Lambda / 2
	}
	return d
}

// Body returns the merge-to-split body length in meters.
func (s Spec) Body() float64 { return float64(s.BodyN) * s.Lambda }

// SingleModeWidth returns the waveguide width 0.45·λ below the
// antisymmetric-mode cutoff λ/2 of the exchange-dominated dispersion used
// by the micromagnetic backend. The paper's 50 nm guide is effectively
// single-mode at its operating point thanks to the dipolar gap; our
// solver's local-demag dispersion lacks that gap, so micromagnetic runs
// use this width to preserve the single-mode property the gate logic
// relies on (see DESIGN.md §2).
func SingleModeWidth(lambda float64) float64 { return 0.45 * lambda }

// PaperSpec returns the dimensions of the paper's §IV-A setup:
// λ = 55 nm, w = 50 nm, d1 = 330 nm, d2 = 880 nm, d3 = 220 nm, d4 = 55 nm,
// XOR stub 40 nm, plus a 2λ interference body (BodyN).
func PaperSpec() Spec {
	return Spec{
		Lambda:   units.NM(55),
		Width:    units.NM(50),
		D1N:      6,
		D2N:      16,
		D3N:      4,
		D4N:      1,
		BodyN:    2,
		MergeDeg: 25,
		HalfFrac: 0.6,
		XORStub:  units.NM(40),
		Tail:     units.NM(220),
		Margin:   units.NM(60),
	}
}

// PaperMicromagSpec is PaperSpec with the single-mode waveguide width for
// in-repo micromagnetic runs.
func PaperMicromagSpec() Spec {
	s := PaperSpec()
	s.Width = SingleModeWidth(s.Lambda)
	return s
}

// ReducedSpec returns a geometrically similar but smaller device
// (d1 = 3λ, d2 = 3λ, d3 = 2λ, d4 = 1λ) with single-mode width, used for
// CI-scale micromagnetic runs. All interfering path lengths remain
// integer multiples of λ, the property the gate logic depends on.
func ReducedSpec() Spec {
	s := PaperMicromagSpec()
	s.D1N, s.D2N, s.D3N, s.D4N = 3, 3, 2, 1
	s.Tail = units.NM(165)
	return s
}

// BuildMAJ3 constructs the fan-out-of-2 3-input Majority gate layout
// (paper Figure 3). When singleOutput is true the lower side is removed,
// giving the simplified single-output Majority gate mentioned in §III-A.
func BuildMAJ3(s Spec, singleOutput bool) (*Layout, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	d1, d2, d3, d4 := s.D1(), s.D2(), s.D3(), s.D4()

	cosM := math.Cos(s.MergeDeg * math.Pi / 180)
	sinM := math.Sin(s.MergeDeg * math.Pi / 180)
	half := s.HalfFrac * d3 // vertical half-separation of Y1/Y2
	dxFan := math.Sqrt(d1*d1 - half*half)
	dxSplit := math.Sqrt(d3*d3 - half*half)
	// Unit vector of the upper fan arm; outputs continue along it so the
	// through-gate wave keeps a straight path (low-loss).
	fanU := geom.P(dxFan/d1, half/d1)

	x := geom.P(0, 0)
	x2 := geom.P(s.Body(), 0)
	i1 := geom.P(-d1*cosM, +d1*sinM)
	i2 := geom.P(-d1*cosM, -d1*sinM)
	y1 := geom.P(x2.X+dxFan, +half)
	y2 := geom.P(x2.X+dxFan, -half)
	sp := geom.P(y1.X+dxSplit, 0) // split point S on the axis, right of Y1/Y2
	i3 := geom.P(sp.X+d2, 0)
	o1 := y1.Add(fanU.Scale(d4))
	o2 := geom.MirrorY(o1, 0)
	t1 := o1.Add(fanU.Scale(s.Tail))
	t2 := geom.MirrorY(t1, 0)

	l := &Layout{Name: "triangle-maj3-fo2", Lambda: s.Lambda, Width: s.Width}
	nI1 := l.addNode("I1", Input, i1)
	nI2 := l.addNode("I2", Input, i2)
	nI3 := l.addNode("I3", Input, i3)
	nX := l.addNode("X", Junction, x)
	nX2 := l.addNode("X2", Junction, x2)
	nS := l.addNode("S", Junction, sp)
	nY1 := l.addNode("Y1", Junction, y1)
	nO1 := l.addNode("O1", Output, o1)
	nT1 := l.addNode("T1", Termination, t1)

	l.addEdge(nI1, nX, d1)
	l.addEdge(nI2, nX, d1)
	l.addEdge(nX, nX2, s.Body())
	l.addEdge(nX2, nY1, d1)
	l.addEdge(nI3, nS, d2)
	l.addEdge(nS, nY1, d3)
	l.addEdge(nY1, nO1, d4)
	l.addEdge(nO1, nT1, s.Tail)

	if !singleOutput {
		nY2 := l.addNode("Y2", Junction, y2)
		nO2 := l.addNode("O2", Output, o2)
		nT2 := l.addNode("T2", Termination, t2)
		l.addEdge(nX2, nY2, d1)
		l.addEdge(nS, nY2, d3)
		l.addEdge(nY2, nO2, d4)
		l.addEdge(nO2, nT2, s.Tail)
	} else {
		l.Name = "triangle-maj3-single"
	}
	l.shiftPositive(s.Margin)
	return l, nil
}

// BuildMAJ5 constructs a fan-in-of-5, fan-out-of-2 Majority gate: the
// §III-A extension "more inputs can be added below I2 or above I1 and
// I3". Two extra data inputs I4 (above I1) and I5 (below I2) join the
// first crossing point X through d1-long arms at twice the merge
// half-angle; I3 keeps its trunk route. All interfering paths remain
// integer multiples of λ.
func BuildMAJ5(s Spec) (*Layout, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if 2*s.MergeDeg > 60 {
		return nil, fmt.Errorf("layout: MAJ5 needs merge half-angle ≤ 30°, got %g", s.MergeDeg)
	}
	l, err := BuildMAJ3(s, false)
	if err != nil {
		return nil, err
	}
	l.Name = "triangle-maj5-fo2"
	d1 := s.D1()
	xIdx, err := l.NodeByName("X")
	if err != nil {
		return nil, err
	}
	x := l.Nodes[xIdx].Pos
	cos2 := math.Cos(2 * s.MergeDeg * math.Pi / 180)
	sin2 := math.Sin(2 * s.MergeDeg * math.Pi / 180)
	nI4 := l.addNode("I4", Input, geom.P(x.X-d1*cos2, x.Y+d1*sin2))
	nI5 := l.addNode("I5", Input, geom.P(x.X-d1*cos2, x.Y-d1*sin2))
	l.addEdge(nI4, xIdx, d1)
	l.addEdge(nI5, xIdx, d1)
	// The steeper arms may extend past the original bounding margin;
	// re-shift so everything stays positive.
	l.shiftPositive(s.Margin)
	return l, nil
}

// BuildXOR constructs the fan-out-of-2 2-input XOR gate layout (paper
// Figure 4): the Majority structure with the third input removed and
// short output stubs for strong threshold readout.
func BuildXOR(s Spec) (*Layout, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	d1 := s.D1()
	cosM := math.Cos(s.MergeDeg * math.Pi / 180)
	sinM := math.Sin(s.MergeDeg * math.Pi / 180)
	half := s.HalfFrac * s.D3()
	dxFan := math.Sqrt(d1*d1 - half*half)
	fanU := geom.P(dxFan/d1, half/d1)

	x := geom.P(0, 0)
	x2 := geom.P(s.Body(), 0)
	i1 := geom.P(-d1*cosM, +d1*sinM)
	i2 := geom.P(-d1*cosM, -d1*sinM)
	y1 := geom.P(x2.X+dxFan, +half)
	y2 := geom.P(x2.X+dxFan, -half)
	o1 := y1.Add(fanU.Scale(s.XORStub))
	o2 := geom.MirrorY(o1, 0)
	t1 := o1.Add(fanU.Scale(s.Tail))
	t2 := geom.MirrorY(t1, 0)

	l := &Layout{Name: "triangle-xor-fo2", Lambda: s.Lambda, Width: s.Width}
	nI1 := l.addNode("I1", Input, i1)
	nI2 := l.addNode("I2", Input, i2)
	nX := l.addNode("X", Junction, x)
	nX2 := l.addNode("X2", Junction, x2)
	nY1 := l.addNode("Y1", Junction, y1)
	nY2 := l.addNode("Y2", Junction, y2)
	nO1 := l.addNode("O1", Output, o1)
	nO2 := l.addNode("O2", Output, o2)
	nT1 := l.addNode("T1", Termination, t1)
	nT2 := l.addNode("T2", Termination, t2)

	l.addEdge(nI1, nX, d1)
	l.addEdge(nI2, nX, d1)
	l.addEdge(nX, nX2, s.Body())
	l.addEdge(nX2, nY1, d1)
	l.addEdge(nX2, nY2, d1)
	l.addEdge(nY1, nO1, s.XORStub)
	l.addEdge(nY2, nO2, s.XORStub)
	l.addEdge(nO1, nT1, s.Tail)
	l.addEdge(nO2, nT2, s.Tail)
	l.shiftPositive(s.Margin)
	return l, nil
}

// BuildStraight constructs a straight reference waveguide of the given
// length with one input, one mid detector at detectorAt from the input,
// and an absorbing tail. It is used for calibration and the Figure 1/2
// demonstrations.
func BuildStraight(s Spec, length, detectorAt float64) (*Layout, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if length <= 0 || detectorAt <= 0 || detectorAt >= length {
		return nil, fmt.Errorf("layout: need 0 < detectorAt < length, got %g, %g", detectorAt, length)
	}
	l := &Layout{Name: "straight", Lambda: s.Lambda, Width: s.Width}
	nI := l.addNode("I1", Input, geom.P(0, 0))
	nO := l.addNode("O1", Output, geom.P(detectorAt, 0))
	nT := l.addNode("T1", Termination, geom.P(length+s.Tail, 0))
	l.addEdge(nI, nO, detectorAt)
	l.addEdge(nO, nT, length+s.Tail-detectorAt)
	l.shiftPositive(s.Margin)
	return l, nil
}

func (l *Layout) addNode(name string, kind NodeKind, p geom.Point) int {
	l.Nodes = append(l.Nodes, Node{Name: name, Kind: kind, Pos: p})
	return len(l.Nodes) - 1
}

func (l *Layout) addEdge(from, to int, length float64) {
	l.Edges = append(l.Edges, Edge{From: from, To: to, Length: length})
}

// shiftPositive translates all nodes so the device (including waveguide
// width and margin) sits in positive coordinates.
func (l *Layout) shiftPositive(margin float64) {
	minX, minY := math.Inf(1), math.Inf(1)
	for _, n := range l.Nodes {
		minX = math.Min(minX, n.Pos.X)
		minY = math.Min(minY, n.Pos.Y)
	}
	l.Translate(-minX+l.Width/2+margin, -minY+l.Width/2+margin)
}

// Translate shifts every node by (dx, dy).
func (l *Layout) Translate(dx, dy float64) {
	for i := range l.Nodes {
		l.Nodes[i].Pos = l.Nodes[i].Pos.Add(geom.P(dx, dy))
	}
}

// AlignAxisToCells vertically shifts the layout so that its mirror
// symmetry axis (the y coordinate of node X, or of the first node if
// there is no X) lies exactly on a cell-center row of a mesh with cell
// size dx. Without this, rasterization can break the top/bottom symmetry
// that makes O1 ≡ O2.
func (l *Layout) AlignAxisToCells(dx float64) {
	if len(l.Nodes) == 0 {
		return
	}
	axis := l.Nodes[0].Pos.Y
	if i, err := l.NodeByName("X"); err == nil {
		axis = l.Nodes[i].Pos.Y
	}
	// Nearest y of form (j+0.5)·dx at or above the current axis.
	j := math.Round(axis/dx - 0.5)
	target := (j + 0.5) * dx
	l.Translate(0, target-axis)
}

// NodeByName returns the index of the named node, or an error.
func (l *Layout) NodeByName(name string) (int, error) {
	for i, n := range l.Nodes {
		if n.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("layout %s: %w: no node %q", l.Name, ErrUnknownComponent, name)
}

// Inputs returns the input node indices in declaration order.
func (l *Layout) Inputs() []int { return l.nodesOfKind(Input) }

// Outputs returns the output node indices in declaration order.
func (l *Layout) Outputs() []int { return l.nodesOfKind(Output) }

// Terminations returns the absorbing end node indices.
func (l *Layout) Terminations() []int { return l.nodesOfKind(Termination) }

func (l *Layout) nodesOfKind(k NodeKind) []int {
	var out []int
	for i, n := range l.Nodes {
		if n.Kind == k {
			out = append(out, i)
		}
	}
	return out
}

// Shape returns the union of waveguide capsules of the layout.
func (l *Layout) Shape() geom.Shape {
	shapes := make([]geom.Shape, 0, len(l.Edges))
	for _, e := range l.Edges {
		shapes = append(shapes, geom.Capsule{
			A: l.Nodes[e.From].Pos,
			B: l.Nodes[e.To].Pos,
			W: l.Width,
		})
	}
	return geom.Union(shapes...)
}

// Bounds returns the bounding box of the layout shape.
func (l *Layout) Bounds() geom.BBox { return l.Shape().Bounds() }

// Mesh constructs a simulation mesh with square cells of size dx covering
// the layout bounds plus its margin (already included by the builders via
// shiftPositive; a symmetric margin is added on the far sides here).
func (l *Layout) Mesh(dx, thickness float64) (grid.Mesh, error) {
	b := l.Bounds()
	// Mirror the near-side margin (distance from origin to bbox min).
	nx := int(math.Ceil((b.Max.X + b.Min.X) / dx))
	ny := int(math.Ceil((b.Max.Y + b.Min.Y) / dx))
	return grid.NewMesh(nx, ny, dx, dx, thickness)
}

// Rasterize marks the mesh cells covered by the layout's waveguides.
func (l *Layout) Rasterize(m grid.Mesh) grid.Region {
	return geom.Rasterize(m, l.Shape())
}

// PathLengthInLambda reports the total centerline length of the directed
// path through the named nodes, in units of λ. It is used by tests to
// verify the paper's design rule that interfering paths are integer
// multiples of the wavelength.
func (l *Layout) PathLengthInLambda(names ...string) (float64, error) {
	if len(names) < 2 {
		return 0, fmt.Errorf("layout: path needs at least two nodes")
	}
	total := 0.0
	for i := 0; i+1 < len(names); i++ {
		from, err := l.NodeByName(names[i])
		if err != nil {
			return 0, err
		}
		to, err := l.NodeByName(names[i+1])
		if err != nil {
			return 0, err
		}
		found := false
		for _, e := range l.Edges {
			if (e.From == from && e.To == to) || (e.From == to && e.To == from) {
				total += e.Length
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("layout %s: no edge %s–%s", l.Name, names[i], names[i+1])
		}
	}
	return total / l.Lambda, nil
}

// String summarizes the layout.
func (l *Layout) String() string {
	b := l.Bounds()
	return fmt.Sprintf("%s: %d nodes, %d arms, %.0f×%.0f nm, λ=%.0f nm, w=%.0f nm",
		l.Name, len(l.Nodes), len(l.Edges),
		b.Width()*1e9, b.Height()*1e9, l.Lambda*1e9, l.Width*1e9)
}
