package main

import (
	"fmt"
	"math"
	"strings"
)

// The oracle decodes every answer itself, from the raw lock-in
// amplitudes and phases, against the benchmark's own truth tables: XOR
// (and XNOR), 3-input and 5-input majority. It never trusts the
// server's Expected/Correct fields, and it checks the paper's fan-out
// claim — O1 and O2 decode to identical logic — on every row.

// readout is one output's lock-in result as the API returns it.
type readout struct {
	Amplitude float64
	Phase     float64
}

// tableOutput is one decoded output of a /v1/table row.
type tableOutput struct {
	Name      string
	Amplitude float64
	Phase     float64
	Logic     bool
}

// tableRow is one row of a /v1/table response.
type tableRow struct {
	Inputs  []bool
	Outputs []tableOutput
}

// tableResponse is the /v1/table response body (and the table of a
// completed fleet table request).
type tableResponse struct {
	Gate   string
	Cases  []tableRow
	Source string `json:"source"`
}

// evalResult is one case of a /v1/eval response or a fleet request.
type evalResult struct {
	Inputs  []bool             `json:"inputs"`
	Outputs map[string]readout `json:"outputs"`
	Source  string             `json:"source"`
}

// evalResponse is the /v1/eval response body.
type evalResponse struct {
	Results []evalResult `json:"results"`
}

// gateInfo is what the oracle needs to know about a gate.
type gateInfo struct {
	inputs  int
	outputs []string
	// majority gates decode by phase against the all-zeros row; XOR
	// decodes by amplitude threshold 0.5 of the all-zeros row.
	majority bool
}

var gates = map[string]gateInfo{
	"xor":  {inputs: 2, outputs: []string{"O1", "O2"}},
	"maj3": {inputs: 3, outputs: []string{"O1", "O2"}, majority: true},
	"maj5": {inputs: 5, outputs: []string{"O1", "O2"}, majority: true},
}

// expected is the ideal logic value of a gate for one input case.
func expected(gate string, inverted bool, in []bool) bool {
	if gates[gate].majority {
		n := 0
		for _, b := range in {
			if b {
				n++
			}
		}
		return 2*n > len(in)
	}
	return (in[0] != in[1]) != inverted
}

// decodeOutput decodes one readout against the all-zeros reference of
// the same output: phase detection (logic 1 when more than π/2 from the
// reference phase) for majority gates, threshold detection (logic 1 at
// or below half the reference amplitude, inverted for XNOR) for XOR.
func decodeOutput(gate string, inverted bool, ref, r readout) bool {
	if gates[gate].majority {
		d := math.Mod(r.Phase-ref.Phase, 2*math.Pi)
		if d > math.Pi {
			d -= 2 * math.Pi
		} else if d <= -math.Pi {
			d += 2 * math.Pi
		}
		return math.Abs(d) > math.Pi/2
	}
	above := ref.Amplitude > 0 && r.Amplitude/ref.Amplitude > 0.5
	return above == inverted
}

// checkCase decodes one case's outputs against ref and returns a
// description of every wrong bit (empty when the case is right): each
// expected output must exist, decode to the expected value, and — the
// fan-out claim — agree with every other output.
func checkCase(gate string, inverted bool, ref, out map[string]readout, in []bool) []string {
	g, ok := gates[gate]
	if !ok {
		return []string{fmt.Sprintf("unknown gate %q", gate)}
	}
	if len(in) != g.inputs {
		return []string{fmt.Sprintf("%s case %v has %d inputs, want %d", gate, bits(in), len(in), g.inputs)}
	}
	want := expected(gate, inverted, in)
	var bad []string
	var first *bool
	for _, name := range g.outputs {
		r, ok := out[name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s %s missing output %s", gate, bits(in), name))
			continue
		}
		rf, ok := ref[name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s reference lacks output %s", gate, name))
			continue
		}
		got := decodeOutput(gate, inverted, rf, r)
		if got != want {
			bad = append(bad, fmt.Sprintf("%s %s %s decodes %d, want %d", gate, bits(in), name, b2i(got), b2i(want)))
		}
		if first == nil {
			first = &got
		} else if *first != got {
			bad = append(bad, fmt.Sprintf("%s %s fan-out broken: outputs decode differently", gate, bits(in)))
		}
	}
	return bad
}

// checkTable decodes a whole truth table against its own all-zeros row
// and returns every wrong bit. It requires every input case exactly
// once and also checks the Logic the server reported, since that is the
// bit a user reads.
func checkTable(gate string, inverted bool, t *tableResponse) []string {
	g, ok := gates[gate]
	if !ok {
		return []string{fmt.Sprintf("unknown gate %q", gate)}
	}
	if len(t.Cases) != 1<<g.inputs {
		return []string{fmt.Sprintf("%s table has %d rows, want %d", gate, len(t.Cases), 1<<g.inputs)}
	}
	ref, err := tableRef(t)
	if err != nil {
		return []string{fmt.Sprintf("%s table: %v", gate, err)}
	}
	seen := map[string]bool{}
	var bad []string
	for _, row := range t.Cases {
		key := bits(row.Inputs)
		if seen[key] {
			bad = append(bad, fmt.Sprintf("%s table repeats case %s", gate, key))
		}
		seen[key] = true
		out := map[string]readout{}
		want := expected(gate, inverted, row.Inputs)
		for _, o := range row.Outputs {
			out[o.Name] = readout{Amplitude: o.Amplitude, Phase: o.Phase}
			if o.Logic != want {
				bad = append(bad, fmt.Sprintf("%s %s %s reported %d, want %d", gate, key, o.Name, b2i(o.Logic), b2i(want)))
			}
		}
		bad = append(bad, checkCase(gate, inverted, ref, out, row.Inputs)...)
	}
	return bad
}

// tableRef returns the all-zeros row of a table: the normalization and
// phase reference for decoding, and for later single-case answers of the
// same backend.
func tableRef(t *tableResponse) (map[string]readout, error) {
	for _, row := range t.Cases {
		if strings.Contains(bits(row.Inputs), "1") {
			continue
		}
		ref := map[string]readout{}
		for _, o := range row.Outputs {
			ref[o.Name] = readout{Amplitude: o.Amplitude, Phase: o.Phase}
		}
		return ref, nil
	}
	return nil, fmt.Errorf("no all-zeros row")
}

// checkTier reports a wrong-tier answer: source must be one of want.
func checkTier(source string, want ...string) string {
	for _, w := range want {
		if source == w {
			return ""
		}
	}
	return fmt.Sprintf("answered by tier %q, want %s", source, strings.Join(want, "|"))
}

// bits renders an input vector in I1..In order, e.g. "10".
func bits(in []bool) string {
	var b strings.Builder
	for _, v := range in {
		b.WriteByte("01"[b2i(v)])
	}
	return b.String()
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}
