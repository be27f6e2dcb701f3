package spinwave_test

import (
	"fmt"
	"log"
	"math"

	"spinwave"
)

// The Figure 2 phenomenon: equal-phase waves add, opposite-phase waves
// cancel.
func ExampleInterfere() {
	constructive, _ := spinwave.Interfere(1, 0, 1, 0)
	destructive, _ := spinwave.Interfere(1, 0, 1, math.Pi)
	fmt.Printf("constructive: %.1f\n", constructive)
	fmt.Printf("destructive: %.1f\n", destructive)
	// Output:
	// constructive: 2.0
	// destructive: 0.0
}

// Evaluate the paper's XOR gate with the behavioral backend and print
// the Table II reproduction.
func ExampleXORTruthTable() {
	gate, err := spinwave.NewBehavioral(spinwave.XOR, spinwave.PaperSpec(), spinwave.FeCoB())
	if err != nil {
		log.Fatal(err)
	}
	tt, err := spinwave.XORTruthTable(gate, false)
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range tt.Cases {
		fmt.Printf("I1=%v I2=%v -> O1 normalized %.2f, logic %v\n",
			b2i(c.Inputs[0]), b2i(c.Inputs[1]), c.Outputs[0].Normalized, b2i(c.Outputs[0].Logic))
	}
	// Output:
	// I1=0 I2=0 -> O1 normalized 1.00, logic 0
	// I1=1 I2=0 -> O1 normalized 0.00, logic 1
	// I1=0 I2=1 -> O1 normalized 0.00, logic 1
	// I1=1 I2=1 -> O1 normalized 1.00, logic 0
}

// The triangle Majority gate decodes by phase; its two outputs are
// identical (fan-out of 2).
func ExampleMajorityTruthTable() {
	gate, err := spinwave.NewBehavioral(spinwave.MAJ3, spinwave.PaperSpec(), spinwave.FeCoB())
	if err != nil {
		log.Fatal(err)
	}
	tt, err := spinwave.MajorityTruthTable(gate)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("all correct:", tt.AllCorrect())
	fmt.Printf("worst |O1-O2|: %.3f\n", tt.FanOutMatched())
	// Output:
	// all correct: true
	// worst |O1-O2|: 0.000
}

// The drive frequency that realizes the paper's λ = 55 nm in this repo's
// solver.
func ExampleDriveFrequency() {
	f, err := spinwave.DriveFrequency(spinwave.FeCoB(), 1e-9, 55e-9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%.1f GHz\n", f/1e9)
	// Output:
	// 15.9 GHz
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
