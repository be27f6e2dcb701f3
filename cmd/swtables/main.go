// Command swtables regenerates the paper's tables.
//
//	swtables -table 1              Table I  (MAJ3 FO2 normalized output)
//	swtables -table 2              Table II (XOR FO2 normalized output)
//	swtables -table 3              Table III (performance comparison)
//	swtables -table derived        §III-A derived (N)AND/(N)OR gates
//	swtables -table ratios         §IV-D derived comparison ratios
//	swtables -table all            everything
//
// Tables I/II default to the fast behavioral backend; -backend micromag
// runs the full solver (reduced-scale device by default, -full for the
// paper's dimensions — slow).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"spinwave"
	"spinwave/internal/backendspec"
)

// eng fans the truth-table cases of every printed table over a worker
// pool; sized by -workers.
var eng *spinwave.Engine

var ctx = context.Background()

func main() {
	log.SetFlags(0)
	log.SetPrefix("swtables: ")
	os.Exit(run())
}

// run holds the real main body so deferred cleanup (journal sink,
// stats summary) executes before the process exits with the code it
// returns.
func run() int {
	table := flag.String("table", "all", "which table: 1, 2, 3, derived, ratios, all")
	backend := flag.String("backend", "behavioral", "backend for tables 1/2: behavioral or micromag")
	full := flag.Bool("full", false, "use the paper's full dimensions for micromagnetic runs (slow)")
	workers := flag.Int("workers", 0, "evaluation worker-pool size (0 = NumCPU)")
	stats := flag.Bool("stats", false, "print a timing/metrics summary to stderr when done")
	flag.Parse()

	var opts []spinwave.EngineOption
	if *workers > 0 {
		opts = append(opts, spinwave.WithEngineWorkers(*workers))
	}
	eng = spinwave.NewEngine(opts...)
	if *stats {
		spinwave.EnableSpanMetrics()
		defer func() { fmt.Fprint(os.Stderr, "\n"+spinwave.SnapshotMetrics().Summary()) }()
	}
	defer setupFlight()()

	switch *table {
	case "1":
		printTableI(*backend, *full)
	case "2":
		printTableII(*backend, *full)
	case "3":
		printTableIII()
	case "derived":
		printDerived()
	case "maj5":
		printMAJ5(*backend, *full)
	case "ratios":
		printRatios()
	case "all":
		printTableI(*backend, *full)
		fmt.Println()
		printTableII(*backend, *full)
		fmt.Println()
		printTableIII()
		fmt.Println()
		printRatios()
		fmt.Println()
		printDerived()
	default:
		log.Fatalf("unknown table %q", *table)
	}
	return healthExit()
}

// resolveBackend resolves gate on the -backend and -full flags and
// builds it through the shared resolver, so a Majority micromagnetic
// device carries its committed I3 trim. -full selects the paper's
// dimensions for the solver only: the behavioral model always runs
// them.
func resolveBackend(gate, backend string, full bool) spinwave.Backend {
	k, err := backendspec.Resolve(backendspec.Request{Gate: gate, Backend: backend})
	if err != nil {
		log.Fatal(err)
	}
	if full && k.Backend == backendspec.Micromagnetic {
		k.Spec = "paper-micromag"
	}
	// No abort on critical health alerts: tables still print so a
	// partially-broken sweep remains inspectable; the process exit code
	// carries the verdict instead.
	b, err := k.Build(backendspec.Options{Probe: *flagProbe, Health: *flagHealth})
	if err != nil {
		log.Fatal(err)
	}
	return b
}

func printTableI(backend string, full bool) {
	b := resolveBackend("maj3", backend, full)
	tt, err := eng.MajorityTable(ctx, b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Table I: fan-in of 3 fan-out of 2 Majority gate normalized output magnetization")
	fmt.Print(spinwave.FormatTruthTable(tt))
	fmt.Printf("fan-out mismatch |O1-O2|: %.4f, all cases correct: %v\n", tt.FanOutMatched(), tt.AllCorrect())
}

func printTableII(backend string, full bool) {
	b := resolveBackend("xor", backend, full)
	tt, err := eng.XORTable(ctx, b, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Table II: fan-in of 2 fan-out of 2 XOR gate normalized output magnetization")
	fmt.Print(spinwave.FormatTruthTable(tt))
	fmt.Printf("fan-out mismatch |O1-O2|: %.4f, all cases correct: %v\n", tt.FanOutMatched(), tt.AllCorrect())

	xnor, err := eng.XORTable(ctx, b, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nXNOR (flipped threshold, §III-B):")
	fmt.Print(spinwave.FormatTruthTable(xnor))
}

func printTableIII() {
	fmt.Print(spinwave.TableIII().String())
}

func printRatios() {
	fmt.Print(spinwave.TableIIIRatios().String())
}

func printMAJ5(backend string, full bool) {
	b := resolveBackend("maj5", backend, full)
	tt, err := eng.MajorityTable(ctx, b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Fan-in of 5 fan-out of 2 Majority gate (§III-A extension)")
	fmt.Print(spinwave.FormatTruthTable(tt))
	fmt.Printf("fan-out mismatch |O1-O2|: %.4f, all cases correct: %v\n", tt.FanOutMatched(), tt.AllCorrect())
}

func printDerived() {
	b := resolveBackend("maj3", "behavioral", false)
	for _, d := range []spinwave.DerivedGate{spinwave.AND, spinwave.OR, spinwave.NAND, spinwave.NOR} {
		tt, err := eng.DerivedTable(ctx, b, d)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(spinwave.FormatTruthTable(tt))
		fmt.Println()
	}
}
