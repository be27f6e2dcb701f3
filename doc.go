// Package spinwave is a from-scratch Go reproduction of
//
//	A. Mahmoud, F. Vanderveken, F. Ciubotaru, C. Adelmann, S. Cotofana,
//	S. Hamdioui: "Fan-out of 2 Triangle Shape Spin Wave Logic Gates",
//	DATE 2021, pp. 948–953. DOI 10.23919/DATE51398.2021.9474089
//
// It provides:
//
//   - a pure-Go 2-D micromagnetic solver for perpendicular-anisotropy
//     thin films (LLG with exchange, uniaxial anisotropy, thin-film
//     demagnetization, antenna excitation, absorbing boundaries and an
//     optional stochastic thermal field), validated against the
//     Kalinikos–Slavin forward-volume dispersion;
//   - the paper's triangle-shape fan-out-of-2 Majority and X(N)OR gates
//     as parameterized layouts, evaluated either by full micromagnetic
//     simulation or by a fast behavioral phasor network;
//   - the ladder-shape baseline of refs [22,23], the derived
//     (N)AND/(N)OR gates, and a gate-level netlist layer with
//     energy/delay/fan-out accounting, splitters and repeaters;
//   - the paper's §IV-D performance model (ME transducers, CMOS
//     references) regenerating Table III and its derived claims;
//   - harnesses that regenerate every table and figure of the paper's
//     evaluation (see EXPERIMENTS.md), MuMax3 script generation for
//     cross-validation, OVF 2.0 snapshot I/O, and field rendering;
//   - a concurrent evaluation engine (bounded worker pool, LRU result
//     cache with request coalescing, context cancellation plumbed into
//     the integrator loop) and an HTTP JSON service (cmd/swserve);
//   - a dependency-free observability layer (Prometheus-format
//     counters/gauges/histograms, zero-cost span tracing) instrumented
//     through the engine, solver and serving layers;
//   - a fused, tiled LLG stepping core: each Runge–Kutta stage is one
//     pass over row bands executed by a persistent worker pool, with
//     zero per-step allocations and trajectories that are bit-for-bit
//     identical for every worker count (see DESIGN.md §10 and
//     WithWorkers);
//   - a flight recorder and judging tier: a structured JSONL run
//     journal with Chrome-trace export, a streaming numerical health
//     monitor (alerts, per-run verdicts), and a rolling-window SLO
//     tracker in the server (DESIGN.md §§11–12);
//   - tiered serving: an in-memory LRU, a disk-backed result store,
//     and an admitted linear-superposition surrogate in front of the
//     full solver, each answer labelled with the tier that produced it
//     (DESIGN.md §13);
//   - a distributed evaluation fleet: a durable one-file-per-job
//     queue, a coordinator with leased claims and idempotent result
//     ingestion, and worker processes (cmd/swworker) that survive
//     SIGKILL through lease expiry and requeue (DESIGN.md §14);
//   - checkpoint/resume for long transients (CheckpointConfig,
//     WithCheckpoint): periodic OVF-plus-manifest snapshots with
//     atomic commit and digest-verified, bit-exact resume, a durable
//     run-artifact store behind the server, and fleet segmentation
//     that resumes an interrupted segment on a peer (DESIGN.md §15).
//
// This package is the public facade: it re-exports the types and
// constructors a downstream user needs, while the implementation lives
// in internal/ packages (one per subsystem; see ARCHITECTURE.md for
// the package map and DESIGN.md for the physics and design decisions).
//
// # Quick start
//
//	b, err := spinwave.NewBehavioral(spinwave.XOR, spinwave.PaperSpec(), spinwave.FeCoB())
//	if err != nil { ... }
//	tt, err := spinwave.XORTruthTable(b, false)
//	fmt.Print(spinwave.FormatTruthTable(tt))
//
// For the full physics, swap NewBehavioral for NewMicromagnetic (slower;
// use ReducedSpec for laptop-scale runs, PaperMicromagSpec for the
// paper's dimensions).
package spinwave
