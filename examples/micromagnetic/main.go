// Micromagnetic example: run the full LLG simulation of the reduced-size
// triangle XOR gate, print the Table II reproduction and draw the wave
// pattern of the constructive and destructive cases — the in-terminal
// version of the paper's Figure 5 panels.
//
//	go run ./examples/micromagnetic        (~15 s on a laptop core)
package main

import (
	"fmt"
	"log"

	"spinwave"
)

func main() {
	log.SetFlags(0)

	m, err := spinwave.NewMicromagnetic(spinwave.XOR,
		spinwave.WithSpec(spinwave.ReducedSpec()), spinwave.WithMaterial(spinwave.FeCoB()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("drive frequency: %.2f GHz (λ = 55 nm via the solver-matched dispersion)\n", m.Freq/1e9)
	fmt.Printf("time step: %.3g ps, simulated time per case: %.2f ns\n\n", m.Dt()*1e12, m.Duration()*1e9)

	tt, err := spinwave.XORTruthTable(m, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(spinwave.FormatTruthTable(tt))
	fmt.Printf("\nfan-out of 2: worst |O1-O2| = %.4f, all cases correct: %v\n\n",
		tt.FanOutMatched(), tt.AllCorrect())

	fmt.Println("wave pattern, inputs {0,0} (constructive — strong wave at both outputs):")
	art, err := spinwave.RenderSnapshotASCII(m, []bool{false, false}, "mx", 110)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(art)

	fmt.Println("\nwave pattern, inputs {0,1} (destructive — the merged wave vanishes):")
	art, err = spinwave.RenderSnapshotASCII(m, []bool{true, false}, "mx", 110)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(art)
}
