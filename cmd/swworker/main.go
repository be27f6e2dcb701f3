// Command swworker is the fleet worker: it registers with a
// coordinator (swserve started with -fleet-queue), claims jobs,
// evaluates their cases through its own tiered engine — so the memory
// cache, disk store, and admitted surrogates apply per node — and posts
// results plus node health back over HTTP. A claim waits at the
// coordinator until a job is queued, so an idle worker starts new work
// at once and runs no poll timer; -poll is only the pause before
// retrying a failed call.
//
//	swworker -coordinator http://127.0.0.1:8080 -workers 8 -store /var/lib/spinwave
//
// The worker is stateless beyond its engine tiers: kill it at any
// moment and the coordinator's lease expiry requeues whatever it held;
// restart it and it re-registers under a fresh (or the -id pinned) name.
//
// Observability (DESIGN.md §16): the worker batch-forwards its journal
// events to the coordinator's durable fleet journal (disable with
// -ship-journal=false), stamping each with its node name and the
// claimed job's trace ID — so a killed worker's flight-recorder tail
// survives at the coordinator. -metrics-addr opens a second listener
// with /metrics, /debug/vars and /debug/pprof for direct scrapes.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"spinwave"
	"spinwave/internal/backendspec"
	"spinwave/internal/fleet"
	"spinwave/internal/obsplane"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("swworker: ")
	coordinator := flag.String("coordinator", "http://127.0.0.1:8080", "coordinator base URL (swserve with -fleet-queue)")
	id := flag.String("id", "", "worker ID to register under (empty = coordinator-assigned)")
	workers := flag.Int("workers", 0, "engine worker-pool size (0 = NumCPU)")
	cacheSize := flag.Int("cache", 4096, "engine LRU capacity in cached case readouts (0 disables)")
	storeDir := flag.String("store", "", "disk-backed result store directory (per-node tier; empty disables)")
	poll := flag.Duration("poll", 0, "pause before retrying a failed coordinator call: register, an errored claim, a result post (0 = 500ms). Idle workers do not poll, a claim waits at the coordinator; the flag stays only because the benchmark's fleet-table workload passes it")
	caseDelay := flag.Duration("case-delay", 0, "artificial per-case delay (test/smoke aid: makes mid-job kills reliable)")
	journalFile := flag.String("journal", "", "write the structured run journal (JSON lines) to this file")
	shipJournal := flag.Bool("ship-journal", true, "batch-forward journal events to the coordinator's durable fleet journal")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (empty disables)")
	flag.Parse()

	if *journalFile != "" {
		f, err := os.Create(*journalFile)
		if err != nil {
			log.Fatal(err)
		}
		detach := spinwave.AttachJournalSink(spinwave.NewJournalWriter(f))
		defer func() {
			detach()
			f.Close()
		}()
	}

	var opts []spinwave.EngineOption
	if *workers > 0 {
		opts = append(opts, spinwave.WithEngineWorkers(*workers))
	}
	opts = append(opts, spinwave.WithEngineCacheSize(*cacheSize))
	if *storeDir != "" {
		store, err := spinwave.OpenDiskStore(*storeDir)
		if err != nil {
			log.Fatal(err)
		}
		opts = append(opts, spinwave.WithEngineDiskStore(store))
	}
	eng := spinwave.NewEngine(opts...)

	var shipper *obsplane.Shipper
	if *shipJournal {
		shipper = obsplane.NewShipper(obsplane.ShipperConfig{
			BaseURL: strings.TrimRight(*coordinator, "/"),
			Node:    *id, // empty until registration assigns one; Flush holds
		})
		defer spinwave.AttachJournalSink(shipper)()
	}

	w := &fleet.Worker{
		BaseURL:   *coordinator,
		Eval:      newEvaluator(eng, &backendspec.Memo{}, *coordinator),
		ID:        *id,
		Poll:      *poll,
		CaseDelay: *caseDelay,
		Health:    func() map[string]any { return nodeHealth(eng, shipper) },
	}
	if shipper != nil {
		// Each claim retargets the shipper: events emitted while serving
		// the job carry its trace (and the registered node name — the
		// coordinator may have assigned one at registration).
		w.OnClaim = func(j *fleet.Job) {
			shipper.SetNode(w.ID)
			shipper.SetTrace(j.Trace)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *metricsAddr != "" {
		actual, err := startMetricsServer(*metricsAddr, eng, shipper)
		if err != nil {
			log.Fatal(err)
		}
		// The log line names the actual port so -metrics-addr :0 is usable
		// by the smoke harness.
		log.Printf("metrics on http://%s/metrics", actual)
	}

	shipDone := make(chan struct{})
	if shipper != nil {
		go func() {
			defer close(shipDone)
			shipper.Run(ctx)
		}()
	} else {
		close(shipDone)
	}

	log.Printf("worker starting, coordinator %s", *coordinator)
	err := w.Run(ctx)
	stop() // end the shipper loop too, triggering its final flush
	<-shipDone
	if shipper != nil {
		log.Printf("journal shipper: %v", shipper.Stats())
	}
	log.Printf("worker %s stopping after %d jobs: %v", w.ID, w.JobsDone(), err)
	if ctx.Err() == nil && err != nil {
		os.Exit(1)
	}
}

// nodeHealth is the per-node health snapshot attached to heartbeats:
// the engine tier statistics (cache/disk/surrogate hits, evaluations,
// coalesced calls) plus the journal shipper's delivery counters. The
// coordinator forwards it to /v1/fleet/workers and deep healthz, and
// federates the numeric engine leaves into its own /metrics as
// spinwave_fleet_node_engine{node,stat} gauges.
func nodeHealth(eng *spinwave.Engine, shipper *obsplane.Shipper) map[string]any {
	h := map[string]any{
		"engine": eng.Stats(),
		"pid":    os.Getpid(),
		"time":   time.Now().UTC().Format(time.RFC3339),
	}
	if shipper != nil {
		h["journal_shipper"] = shipper.Stats()
	}
	return h
}
