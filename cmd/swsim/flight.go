package main

import (
	"flag"
	"log"
	"log/slog"
	"os"

	"spinwave"
)

// Flight-recorder flags (DESIGN.md §11): in-situ probes, the JSONL run
// journal, slog verbosity, and the Chrome trace export.
var (
	flagProbe    = flag.Bool("probe", false, "record in-situ probe time-series at the detector cells")
	flagJournal  = flag.String("journal", "", "write the structured run journal (JSON lines) to this file")
	flagLogLevel = flag.String("log-level", "info", "slog level: debug, info, warn, error")
	flagTraceOut = flag.String("trace-out", "", "write a Chrome trace (chrome://tracing JSON) to this file")
	flagHealth   = flag.Bool("health", false, "monitor numerical health invariants (DESIGN.md §12); exit non-zero on a violated run")
	flagDtScale  = flag.Float64("dt-scale", 1, "multiply the default time step (the reduced tables still decode up to about 1.75 and read wrong from 2; 20 blows the integrator up, as make health-smoke does)")
)

// setupFlight wires the flight-recorder flags after flag.Parse; the
// returned cleanup flushes and detaches the sinks and must run before
// process exit. stats reports whether -stats already installed the
// histogram span sink, so the trace sink tees instead of replacing it.
func setupFlight(stats bool) (cleanup func()) {
	var cleanups []func()
	cleanup = func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}
	lvl, err := spinwave.ParseLogLevel(*flagLogLevel)
	if err != nil {
		log.Fatal(err)
	}
	slog.SetDefault(spinwave.NewLogger(os.Stderr, lvl))

	if *flagJournal != "" {
		f, err := os.Create(*flagJournal)
		if err != nil {
			log.Fatal(err)
		}
		detach := spinwave.AttachJournalSink(spinwave.NewJournalWriter(f))
		cleanups = append(cleanups, func() {
			detach()
			if err := f.Close(); err != nil {
				log.Printf("journal close: %v", err)
			}
		})
	}
	if *flagTraceOut != "" {
		trace := &spinwave.ChromeTraceSink{}
		if stats {
			// -stats installed the histogram sink; keep both.
			prev := spinwave.SetSpanSink(nil)
			spinwave.SetSpanSink(spinwave.TeeSpanSink{prev, trace})
		} else {
			spinwave.SetSpanSink(trace)
		}
		cleanups = append(cleanups, func() {
			f, err := os.Create(*flagTraceOut)
			if err != nil {
				log.Printf("trace-out: %v", err)
				return
			}
			if err := trace.Export(f); err == nil {
				err = f.Close()
			}
			if err != nil {
				log.Printf("trace-out: %v", err)
				return
			}
			slog.Info("wrote chrome trace", "file", *flagTraceOut, "spans", trace.Len(), "dropped", trace.Dropped())
		})
	}
	return cleanup
}

// healthExit summarizes the health verdicts of every monitored run and
// returns the process exit code: 1 when any run was violated, else 0 —
// the -health flag's contract, relied on by `make health-smoke`.
func healthExit() int {
	if !*flagHealth {
		return 0
	}
	runs := spinwave.MonitoredRuns()
	violated, degraded := 0, 0
	for _, id := range runs {
		rep, ok := spinwave.HealthFor(id)
		if !ok {
			continue
		}
		switch rep.Verdict {
		case spinwave.VerdictViolated.String():
			violated++
			slog.Error("run violated health invariants", "run", id, "alerts", len(rep.Alerts))
		case spinwave.VerdictDegraded.String():
			degraded++
			slog.Warn("run degraded", "run", id, "alerts", len(rep.Alerts))
		}
	}
	slog.Info("health summary", "runs", len(runs), "violated", violated, "degraded", degraded)
	if violated > 0 {
		return 1
	}
	return 0
}

// reportProbes logs where the probe data of the finished runs went.
func reportProbes() {
	if !*flagProbe {
		return
	}
	runs := spinwave.ProbedRuns()
	if len(runs) == 0 {
		return
	}
	last := runs[len(runs)-1]
	if rec, ok := spinwave.ProbesFor(last); ok {
		slog.Info("probe time-series recorded", "runs", len(runs), "last_run", last,
			"samples", rec.Samples(), "probes", rec.Names())
	}
}
