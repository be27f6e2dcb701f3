package circuit

import (
	"math"
	"testing"
)

func TestComponentBasics(t *testing.T) {
	cases := []struct {
		c         Component
		nin, nout int
		energyAJ  float64
	}{
		{MAJ3(), 3, 2, 10.32},
		{XOR(), 2, 2, 6.88},
		{XNOR(), 2, 2, 6.88},
		{AND(), 2, 2, 10.32},
		{OR(), 2, 2, 10.32},
		{MAJ3Single(), 3, 1, 10.32},
	}
	for _, c := range cases {
		if c.c.NumInputs() != c.nin || c.c.NumOutputs() != c.nout {
			t.Errorf("%s ports = %d/%d", c.c.Name(), c.c.NumInputs(), c.c.NumOutputs())
		}
		if got := c.c.Energy() / 1e-18; math.Abs(got-c.energyAJ) > 0.01 {
			t.Errorf("%s energy = %g aJ, want %g", c.c.Name(), got, c.energyAJ)
		}
		if c.c.Delay() <= 0 {
			t.Errorf("%s zero delay", c.c.Name())
		}
		if c.c.FanOut() != 1 {
			t.Errorf("%s per-port fan-out = %d", c.c.Name(), c.c.FanOut())
		}
	}
}

func TestComponentTruthFunctions(t *testing.T) {
	for _, in := range [][]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
		a, b := in[0], in[1]
		check := func(c Component, want bool) {
			t.Helper()
			out, err := c.Eval(in)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range out {
				if o != want {
					t.Errorf("%s(%v,%v) = %v, want %v", c.Name(), a, b, o, want)
				}
			}
		}
		check(XOR(), a != b)
		check(XNOR(), a == b)
		check(AND(), a && b)
		check(OR(), a || b)
	}
	for c := 0; c < 8; c++ {
		in := []bool{c&1 != 0, c&2 != 0, c&4 != 0}
		cnt := 0
		for _, b := range in {
			if b {
				cnt++
			}
		}
		want := cnt >= 2
		for _, g := range []Component{MAJ3(), MAJ3Single()} {
			out, err := g.Eval(in)
			if err != nil {
				t.Fatal(err)
			}
			if out[0] != want {
				t.Errorf("%s(%v) = %v, want %v", g.Name(), in, out[0], want)
			}
		}
	}
}

func TestComponentEvalArity(t *testing.T) {
	if _, err := MAJ3().Eval([]bool{true}); err == nil {
		t.Error("bad arity accepted")
	}
	if _, err := (Splitter{Ways: 2}).Eval([]bool{true, false}); err == nil {
		t.Error("splitter bad arity accepted")
	}
	if _, err := (Repeater{}).Eval(nil); err == nil {
		t.Error("repeater bad arity accepted")
	}
}

func TestSplitterAndRepeater(t *testing.T) {
	s := Splitter{Ways: 3}
	out, err := s.Eval([]bool{true})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || !out[0] || !out[1] || !out[2] {
		t.Errorf("splitter out = %v", out)
	}
	if s.Energy() != 0 {
		t.Error("passive splitter consumes energy")
	}
	r := Repeater{}
	out, err = r.Eval([]bool{true})
	if err != nil || len(out) != 1 || !out[0] {
		t.Errorf("repeater out = %v, %v", out, err)
	}
	if got := r.Energy() / 1e-18; math.Abs(got-3.44) > 0.01 {
		t.Errorf("repeater energy = %g aJ, want 3.44", got)
	}
}

func TestNetlistWiringErrors(t *testing.T) {
	n := NewNetlist("t", "a", "b")
	if err := n.Add(XOR(), []Net{"a"}, []Net{"x", ""}); err == nil {
		t.Error("wrong input count accepted")
	}
	if err := n.Add(XOR(), []Net{"a", "b"}, []Net{"x"}); err == nil {
		t.Error("wrong output count accepted")
	}
	if err := n.Add(XOR(), []Net{"a", "b"}, []Net{"a", ""}); err == nil {
		t.Error("re-driving a net accepted")
	}
	if err := n.Add(XOR(), []Net{"a", "b"}, []Net{"x", ""}); err != nil {
		t.Fatal(err)
	}
	if err := n.Add(XOR(), []Net{"a", "b"}, []Net{"x", ""}); err == nil {
		t.Error("duplicate driver accepted")
	}
}

func TestNetlistEvaluateAndErrors(t *testing.T) {
	n := NewNetlist("t", "a", "b")
	if err := n.Add(XOR(), []Net{"a", "b"}, []Net{"x", ""}); err != nil {
		t.Fatal(err)
	}
	n.MarkOutput("x")
	out, err := n.Evaluate(map[Net]bool{"a": true, "b": false})
	if err != nil {
		t.Fatal(err)
	}
	if !out["x"] {
		t.Error("XOR(1,0) = 0")
	}
	if _, err := n.Evaluate(map[Net]bool{"a": true}); err == nil {
		t.Error("missing input accepted")
	}
	// Undriven consumed net.
	bad := NewNetlist("bad", "a")
	_ = bad.Add(Repeater{}, []Net{"ghost"}, []Net{"x"})
	bad.MarkOutput("x")
	if _, err := bad.Evaluate(map[Net]bool{"a": true}); err == nil {
		t.Error("undriven net accepted")
	}
}

func TestCheckFanOut(t *testing.T) {
	n := NewNetlist("t", "a", "b", "c")
	_ = n.Add(XOR(), []Net{"a", "b"}, []Net{"x1", "x2"})
	_ = n.Add(XOR(), []Net{"x1", "c"}, []Net{"y", ""})
	_ = n.Add(Repeater{}, []Net{"x2"}, []Net{"z"})
	n.MarkOutput("y", "z")
	if err := n.CheckFanOut(1); err != nil {
		t.Errorf("legal wiring rejected: %v", err)
	}
	// Overloading one output port.
	over := NewNetlist("over", "a", "b")
	_ = over.Add(XOR(), []Net{"a", "b"}, []Net{"x", ""})
	_ = over.Add(Repeater{}, []Net{"x"}, []Net{"p"})
	_ = over.Add(Repeater{}, []Net{"x"}, []Net{"q"})
	over.MarkOutput("p", "q")
	if err := over.CheckFanOut(1); err == nil {
		t.Error("port overload not detected")
	}
	// Primary input overload.
	pin := NewNetlist("pin", "a")
	_ = pin.Add(Repeater{}, []Net{"a"}, []Net{"x"})
	_ = pin.Add(Repeater{}, []Net{"a"}, []Net{"y"})
	pin.MarkOutput("x", "y")
	if err := pin.CheckFanOut(1); err == nil {
		t.Error("input overload not detected")
	}
	if err := pin.CheckFanOut(2); err != nil {
		t.Errorf("input fan-out 2 rejected: %v", err)
	}
	// Consumed-but-undriven net.
	ghost := NewNetlist("ghost", "a")
	_ = ghost.Add(Repeater{}, []Net{"phantom"}, []Net{"x"})
	if err := ghost.CheckFanOut(1); err == nil {
		t.Error("undriven net not detected")
	}
}

// TestCriticalDelayLinearInBits: the critical path of a balanced XOR
// reduction is one gate stage per tree level, so the 8-input tree (depth
// 3) is slower than the 4-input one (depth 2), by one stage.
func TestCriticalDelayLinearInBits(t *testing.T) {
	d4, err := delayOf(t, 4)
	if err != nil {
		t.Fatal(err)
	}
	d8, err := delayOf(t, 8)
	if err != nil {
		t.Fatal(err)
	}
	if d8 <= d4 {
		t.Errorf("delay not growing with depth: %g vs %g", d4, d8)
	}
	if stage := XOR().Delay(); math.Abs(d8-d4-stage) > 1e-6*stage {
		t.Errorf("depth 3 - depth 2 = %g s, want one stage %g s", d8-d4, stage)
	}
}

func delayOf(t *testing.T, inputs int) (float64, error) {
	t.Helper()
	n, err := ParityTree(inputs)
	if err != nil {
		return 0, err
	}
	if got := len(n.Inputs()); got != inputs {
		t.Fatalf("parity%d has %d primary inputs", inputs, got)
	}
	return n.CriticalDelay()
}
