// Package circuit builds logic circuits out of spin-wave gates and rolls
// up their energy, delay and fan-out requirements — the "larger circuits"
// motivation of the paper's introduction: a multi-output gate lets one
// structure feed several next-stage inputs without replication.
//
// Components carry the transducer-level cost model of internal/energy.
// The netlist checker enforces the physical fan-out limit: a spin-wave
// gate output may drive at most FanOut() next-stage inputs; exceeding it
// requires Splitter (directional coupler [36]) and Repeater [37]
// components, or gate replication — both of which cost energy, which is
// exactly the overhead the FO2 triangle gate avoids.
package circuit

import (
	"fmt"

	"spinwave/internal/energy"
)

// Component is a circuit element with logic behaviour and costs.
type Component interface {
	// Name identifies the component type.
	Name() string
	// NumInputs and NumOutputs give the port counts.
	NumInputs() int
	// NumOutputs returns the number of output ports.
	NumOutputs() int
	// FanOut returns how many next-stage inputs each output PORT may
	// drive. An FO2 gate exposes two output ports of fan-out 1 each: two
	// physical waveguides, each feeding one next-stage transducer.
	FanOut() int
	// Eval computes the outputs for the given inputs.
	Eval(in []bool) ([]bool, error)
	// Energy returns the per-operation energy in joules.
	Energy() float64
	// Delay returns the stage delay in seconds.
	Delay() float64
}

// swGate adapts an energy.SWGate cost model plus a truth function into a
// Component. The logic behaviour of each gate type is validated against
// the micromagnetic/behavioral backends by the core package tests.
type swGate struct {
	cost energy.SWGate
	nin  int
	nout int
	fn   func(in []bool) bool
}

func (g swGate) Name() string    { return g.cost.Name }
func (g swGate) NumInputs() int  { return g.nin }
func (g swGate) NumOutputs() int { return g.nout }
func (g swGate) FanOut() int     { return 1 } // one consumer per physical output waveguide
func (g swGate) Energy() float64 { return g.cost.Energy() }
func (g swGate) Delay() float64  { return g.cost.Delay() }

func (g swGate) Eval(in []bool) ([]bool, error) {
	if len(in) != g.nin {
		return nil, fmt.Errorf("circuit: %s needs %d inputs, got %d", g.Name(), g.nin, len(in))
	}
	v := g.fn(in)
	out := make([]bool, g.nout)
	for i := range out {
		out[i] = v
	}
	return out, nil
}

// MAJ3 returns a triangle FO2 Majority component.
func MAJ3() Component {
	return swGate{cost: energy.TriangleMAJ3(), nin: 3, nout: 2, fn: majority}
}

// XOR returns a triangle FO2 XOR component.
func XOR() Component {
	return swGate{cost: energy.TriangleXOR(), nin: 2, nout: 2, fn: func(in []bool) bool { return in[0] != in[1] }}
}

// XNOR returns a triangle FO2 XNOR component (flipped threshold, §III-B).
func XNOR() Component {
	c := energy.TriangleXOR()
	c.Name = "triangle XNOR (this work)"
	return swGate{cost: c, nin: 2, nout: 2, fn: func(in []bool) bool { return in[0] == in[1] }}
}

// AND returns the derived AND gate (MAJ3 with I3 pinned to 0, §III-A).
// The control transducer still consumes excitation energy.
func AND() Component {
	c := energy.TriangleMAJ3()
	c.Name = "triangle AND (MAJ3, I3=0)"
	return swGate{cost: c, nin: 2, nout: 2, fn: func(in []bool) bool { return in[0] && in[1] }}
}

// OR returns the derived OR gate (MAJ3 with I3 pinned to 1).
func OR() Component {
	c := energy.TriangleMAJ3()
	c.Name = "triangle OR (MAJ3, I3=1)"
	return swGate{cost: c, nin: 2, nout: 2, fn: func(in []bool) bool { return in[0] || in[1] }}
}

// MAJ3Single returns the single-output Majority variant (§III-A).
func MAJ3Single() Component {
	return swGate{cost: energy.TriangleMAJ3Single(), nin: 3, nout: 1, fn: majority}
}

func majority(in []bool) bool {
	n := 0
	for _, b := range in {
		if b {
			n++
		}
	}
	return n*2 > len(in)
}

// Splitter is a passive directional coupler [36] that splits one wave
// into ways outputs. It consumes no transducer energy but each branch is
// weaker, so it is normally followed by repeaters.
type Splitter struct{ Ways int }

// Name implements Component.
func (s Splitter) Name() string { return fmt.Sprintf("coupler-1x%d", s.Ways) }

// NumInputs implements Component.
func (s Splitter) NumInputs() int { return 1 }

// NumOutputs implements Component.
func (s Splitter) NumOutputs() int { return s.Ways }

// FanOut implements Component.
func (s Splitter) FanOut() int { return 1 }

// Eval implements Component.
func (s Splitter) Eval(in []bool) ([]bool, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("circuit: splitter needs 1 input, got %d", len(in))
	}
	out := make([]bool, s.Ways)
	for i := range out {
		out[i] = in[0]
	}
	return out, nil
}

// Energy implements Component: passive, no transducer energy.
func (s Splitter) Energy() float64 { return 0 }

// Delay implements Component: negligible next to the ME cells.
func (s Splitter) Delay() float64 { return 0 }

// Repeater regenerates a weak spin wave [37]; it costs one ME excitation.
type Repeater struct{}

// Name implements Component.
func (Repeater) Name() string { return "repeater" }

// NumInputs implements Component.
func (Repeater) NumInputs() int { return 1 }

// NumOutputs implements Component.
func (Repeater) NumOutputs() int { return 1 }

// FanOut implements Component.
func (Repeater) FanOut() int { return 1 }

// Eval implements Component.
func (Repeater) Eval(in []bool) ([]bool, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("circuit: repeater needs 1 input, got %d", len(in))
	}
	return []bool{in[0]}, nil
}

// Energy implements Component: one exciting ME cell.
func (Repeater) Energy() float64 {
	me := energy.DefaultMECell()
	return me.Power * energy.DefaultPulse
}

// Delay implements Component.
func (Repeater) Delay() float64 { return energy.DefaultMECell().Delay }
