// Command swserve serves the spin-wave gate simulator over HTTP.
//
//	swserve -addr :8080 -workers 8 -cache 4096
//
// Endpoints:
//
//	POST /v1/eval     evaluate one input case or a batch of cases
//	POST /v1/table    evaluate a full truth table (paper Tables I/II)
//	GET  /v1/spec     machine-readable API description (endpoints,
//	                  gates, modes, error codes, build info)
//	GET  /v1/healthz  liveness probe (build info, uptime, drain state;
//	                  ?deep=1 adds a behavioral canary eval + pool ping
//	                  and the surrogate admission state)
//	GET  /v1/slo      rolling-window SLO state with burn rates
//	GET  /v1/history  run-history catalog query: completed evals, tables
//	                  and fleet requests with file pointers (-history)
//	GET  /v1/runs                 run IDs with retained probe data
//	GET  /v1/runs/{id}/events     NDJSON live tail of the run journal
//	GET  /v1/runs/{id}/probes     probe time-series (JSON, ?format=csv)
//	POST /v1/fleet/journal            worker journal-batch ingestion
//	GET  /v1/fleet/jobs/{id}/events   merged multi-node NDJSON journal
//	                                  tail (?follow=false for snapshot)
//	GET  /v1/fleet/jobs/{id}/trace    assembled Chrome-trace timeline
//	GET  /metrics     Prometheus text exposition (engine, solver, HTTP)
//	GET  /debug/vars  expvar metrics (engine + server counters)
//	GET  /debug/pprof/*  runtime profiles (only with -pprof)
//
// /v1/eval and /v1/table are POST-only (anything else answers 405 with
// an Allow header) and accept a "mode" field selecting the serving
// tiers: "behavioral" or "micromag" pin the exact solver, "auto" serves
// the cheapest tier that can answer (memory cache, disk store, admitted
// superposition surrogate, full recompute), "surrogate" serves
// exclusively from an admitted surrogate model. Responses carry the
// tier that answered ("source") and the backend fingerprint. Failures
// on every /v1 endpoint use one envelope:
// {"error":{"code","message","retryable"}}.
//
// All evaluations run through one shared concurrent engine, so repeated
// requests for the same (gate, spec, material, inputs) are served from
// its result store (LRU, plus the -store disk tier) and identical
// in-flight requests are coalesced. Each request gets a deadline (the
// smaller of -timeout and the request's own timeout_ms);
// SIGINT/SIGTERM drains in-flight requests before exiting.
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"spinwave"
	"spinwave/internal/backendspec"
	"spinwave/internal/checkpoint"
	"spinwave/internal/core"
	"spinwave/internal/fleet"
	"spinwave/internal/journal"
	"spinwave/internal/obsplane"
	"spinwave/internal/runhistory"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("swserve: ")
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "engine worker-pool size (0 = NumCPU)")
	cacheSize := flag.Int("cache", 4096, "engine LRU capacity in cached case readouts (0 disables)")
	timeout := flag.Duration("timeout", 120*time.Second, "server-side per-request deadline")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	probeOn := flag.Bool("probe", false, "record in-situ probe time-series for micromag runs (served at /v1/runs/{id}/probes)")
	healthOn := flag.Bool("health", false, "attach the numerical health monitor to micromag runs (alerts + verdicts, DESIGN.md §12)")
	storeDir := flag.String("store", "", "disk-backed result store directory (persists expensive readouts across restarts; empty disables)")
	surrogateGates := flag.String("surrogate", "", "comma-separated gates to build micromag superposition surrogates for at startup (e.g. xor,maj3)")
	fleetQueue := flag.String("fleet-queue", "", "durable fleet job-queue directory; enables the coordinator and the /v1/fleet endpoints")
	fleetLease := flag.Duration("fleet-lease", fleet.DefaultLease, "fleet claim lease; a worker silent this long loses its job to a peer")
	fleetShard := flag.Int("fleet-shard", 4, "default cases per fleet job (submissions may pick their own shard)")
	fleetJournal := flag.String("fleet-journal", "", "durable fleet journal directory for shipped worker journals and the coordinator mirror (default <fleet-queue>/fleet-journal when the fleet is enabled)")
	artifactsDir := flag.String("artifacts", "", "durable run-artifact store directory (checkpoints, probe CSVs, journals; serves /v1/runs/{id}/artifacts)")
	journalFile := flag.String("journal", "", "append journal events as JSONL to this file (fleet.*, alert, run lifecycle)")
	historyDir := flag.String("history", "", "durable run-history catalog directory; indexes every served eval, table and fleet request and serves GET /v1/history")
	retainTraces := flag.Int("retain-traces", 0, "retention: keep at most this many fleet-journal traces, newest first (0 = keep all)")
	retainEvery := flag.Duration("retain-every", time.Minute, "retention: sweep cadence of the periodic GC")
	flag.Parse()

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
	srv := newServer(spinwave.NewEngine(opts...), *timeout)
	defer srv.close()
	srv.backends.Options = backendspec.Options{Probe: *probeOn, Health: *healthOn}
	srv.pprofOn = *pprofOn
	srv.publishVars()
	if *journalFile != "" {
		// Attach before anything emits, so fleet/alert events from queue
		// recovery land in the file too.
		f, err := os.OpenFile(*journalFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		defer journal.Default().Attach(journal.NewWriterSink(f))()
	}
	if *surrogateGates != "" {
		// Build and gate the surrogates before accepting traffic, so a
		// "surrogate"-mode request never races the admission verdict.
		if err := srv.initSurrogates(context.Background(), *surrogateGates, "micromag"); err != nil {
			log.Printf("surrogate: %v (serving exact tiers only; deep health degraded)", err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *artifactsDir != "" {
		if err := srv.initArtifacts(*artifactsDir); err != nil {
			log.Fatal(err)
		}
	}
	if *fleetQueue != "" {
		// The fleet journal opens (and its coordinator mirror attaches)
		// before the queue, so trace-stamped events from queue recovery —
		// requeues, quarantine alerts — land in the durable fleet journal
		// too.
		jdir := *fleetJournal
		if jdir == "" {
			jdir = filepath.Join(*fleetQueue, "fleet-journal")
		}
		if err := srv.initFleetJournal(jdir); err != nil {
			log.Fatal(err)
		}
		if err := srv.initFleet(*fleetQueue, *fleetShard, fleet.WithLease(*fleetLease)); err != nil {
			log.Fatal(err)
		}
		// Background lease sweeper: recovery must not depend on a worker
		// happening to poll.
		go srv.fleet.Run(ctx, 0)
	}
	if *historyDir != "" {
		if err := srv.initHistory(*historyDir); err != nil {
			log.Fatal(err)
		}
		if srv.fleetEnabled() {
			// Index every completed fleet request into the catalog. Set
			// before the listener opens, so no completion can slip by.
			srv.fleet.OnComplete = srv.indexFleetRequest
		}
	}
	if gc := srv.initRetention(*retainTraces); gc != nil {
		// Periodic GC: reclaim old fleet-journal traces on a cadence,
		// never racing active fleet requests (the coordinator's in-flight
		// traces are protected).
		go gc.Run(ctx, *retainEvery)
	}

	httpSrv := &http.Server{Handler: srv.routes()}

	// Listen explicitly (rather than ListenAndServe) so -addr :0 works
	// and the log line names the actual port — the fleet smoke harness
	// parses it.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	log.Printf("listening on %s (%d workers)", ln.Addr(), srv.eng.Workers())

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Print("shutting down, draining in-flight requests ...")
	srv.drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
}

// maxBatch bounds /v1/eval batches: enough for every input
// combination of the largest gate (MAJ5, 32 cases) several times over,
// small enough that one request cannot monopolize the task pool.
const maxBatch = 256

// maxTimeoutMS rejects nonsense client deadlines (greater than an hour);
// the effective deadline is still capped by the server's -timeout flag.
const maxTimeoutMS = int64(time.Hour / time.Millisecond)

// server holds the shared engine and request counters.
type server struct {
	eng            *spinwave.Engine
	defaultTimeout time.Duration
	pprofOn        bool
	// drainCtx ends when the server starts draining after SIGTERM
	// (drain): open claim waits and live tails end with it.
	drainCtx context.Context
	drain    context.CancelFunc

	// backends memoizes the backend of every resolved request, so eval
	// and table requests skip construction (rasterization) after the
	// first. Per server, not per process, so test servers do not share.
	backends backendspec.Memo

	// Flight-recorder plumbing (runs.go): recent-event replay ring, live
	// streaming hub, NDJSON heartbeat cadence, and the journal detach
	// hook released by close().
	ring          *journal.RingSink
	hub           *journal.Hub[journal.Event]
	heartbeat     time.Duration
	detachJournal func()

	// SLO tracker (slo.go), deep-health canary cache (health.go), and
	// surrogate admission ledger (surrogate.go).
	slo       *sloTracker
	canary    canaryState
	started   time.Time
	surrogate surrogateLedger

	// Fleet coordinator (fleet.go); nil unless -fleet-queue is set.
	fleet      *fleet.Coordinator
	fleetShard int

	// Fleet journal store and its coordinator mirror detach hook
	// (obsplane.go); nil unless the fleet journal is enabled.
	fjournal     *obsplane.Store
	detachMirror func()

	// Run-artifact store (artifacts.go); nil unless -artifacts is set.
	artifacts *checkpoint.ArtifactStore

	// Run-history catalog and retention engine (history.go); nil unless
	// -history / -retain-traces are set.
	history *runhistory.Catalog
	gc      *runhistory.GC

	requests  atomic.Int64
	errors    atomic.Int64
	evalCases atomic.Int64
	tables    atomic.Int64
}

func newServer(eng *spinwave.Engine, defaultTimeout time.Duration) *server {
	s := &server{eng: eng, defaultTimeout: defaultTimeout,
		heartbeat: 5 * time.Second,
		slo:       newSLOTracker(defaultSLOWindow, defaultSLOObjective, defaultSLOLatency),
		started:   time.Now()}
	s.drainCtx, s.drain = context.WithCancel(context.Background())
	s.detachJournal = s.attachJournal()
	return s
}

// close detaches the server's journal sinks; deferred in main and in
// test cleanup so sinks do not accumulate on the process journal.
func (s *server) close() {
	if s.detachMirror != nil {
		s.detachMirror()
		s.detachMirror = nil
	}
	if s.detachJournal != nil {
		s.detachJournal()
		s.detachJournal = nil
	}
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/eval", s.withMetrics("/v1/eval", s.handleEval))
	mux.HandleFunc("/v1/table", s.withMetrics("/v1/table", s.handleTable))
	mux.HandleFunc("GET /v1/spec", s.withMetrics("/v1/spec", s.handleSpec))
	mux.HandleFunc("/v1/healthz", s.withMetrics("/v1/healthz", s.handleHealthz))
	mux.HandleFunc("GET /v1/slo", s.withMetrics("/v1/slo", s.handleSLO))
	mux.HandleFunc("/metrics", s.withMetrics("/metrics", s.handleMetrics))
	mux.HandleFunc("/debug/vars", s.withMetrics("/debug/vars", s.handleVars))
	mux.HandleFunc("GET /v1/runs", s.withMetrics("/v1/runs", s.handleRuns))
	mux.HandleFunc("GET /v1/runs/{id}/events", s.withMetrics(runTailRoute, s.handleRunEvents))
	mux.HandleFunc("GET /v1/runs/{id}/probes", s.withMetrics("/v1/runs/probes", s.handleRunProbes))
	if s.fleetEnabled() {
		s.fleetRoutes(mux)
	}
	if s.fleetJournalEnabled() {
		s.fleetJournalRoutes(mux)
	}
	if s.artifactsEnabled() {
		s.artifactRoutes(mux)
	}
	if s.historyEnabled() {
		s.historyRoutes(mux)
	}
	if s.pprofOn {
		registerPprof(mux)
	}
	return mux
}

// handleVars serves expvar. Like /metrics it is deliberately exempt
// from the drain 503: read-only observability must stay scrapeable
// while in-flight work finishes, so the final counter values of a
// dying process are not lost (the shutdown-scrape regression test pins
// this).
func (s *server) handleVars(w http.ResponseWriter, r *http.Request) {
	expvar.Handler().ServeHTTP(w, r)
}

// publishVars registers the engine and server counters with expvar. Safe
// to call once per process; tests share the same registry, so the
// publication is process-global.
var publishOnce sync.Once

func (s *server) publishVars() {
	publishOnce.Do(func() {
		expvar.Publish("spinwave_engine", expvar.Func(func() any { return s.eng.Stats() }))
		expvar.Publish("spinwave_server", expvar.Func(func() any {
			return map[string]int64{
				"requests":   s.requests.Load(),
				"errors":     s.errors.Load(),
				"eval_cases": s.evalCases.Load(),
				"tables":     s.tables.Load(),
			}
		}))
	})
}

// backendRequest is the backend and serving-mode selection common to
// eval and table requests. Omitted fields default to the paper's
// configuration.
type backendRequest struct {
	Gate string `json:"gate"` // maj3, maj3single, xor, maj5
	// Mode selects the serving tiers: "behavioral" or "micromag" pin
	// the exact solver; "auto" answers from the cheapest tier (cache,
	// disk, admitted surrogate, recompute); "surrogate" serves only
	// from an admitted surrogate model. Empty keeps the legacy
	// contract: the backend field picks the solver, exact tiers only.
	Mode     string `json:"mode,omitempty"`
	Backend  string `json:"backend,omitempty"`  // behavioral (default) or micromag
	Spec     string `json:"spec,omitempty"`     // paper (default), reduced, paper-micromag
	Material string `json:"material,omitempty"` // fecob (default), yig, permalloy
	// TimeoutMS caps this request's evaluation time; the effective
	// deadline is min(TimeoutMS, the server's -timeout flag).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

type evalRequest struct {
	backendRequest
	Inputs []bool   `json:"inputs,omitempty"` // single case ...
	Cases  [][]bool `json:"cases,omitempty"`  // ... or a batch
}

type caseResponse struct {
	Inputs  []bool                      `json:"inputs"`
	Outputs map[string]spinwave.Readout `json:"outputs"`
	// Source is the result-store tier that answered this case: cache,
	// disk, surrogate, micromag or behavioral.
	Source string `json:"source,omitempty"`
	// Run is the journal/probe run ID assigned to this case — the ID to
	// tail at /v1/runs/{id}/events or fetch at /v1/runs/{id}/probes.
	Run string `json:"run,omitempty"`
}

type evalResponse struct {
	Gate    string `json:"gate"`
	Backend string `json:"backend"`
	// Mode echoes the effective serving mode of the request.
	Mode string `json:"mode"`
	// Fingerprint is the canonical model fingerprint the results are
	// keyed under (empty for unfingerprintable backends).
	Fingerprint string         `json:"fingerprint,omitempty"`
	Results     []caseResponse `json:"results"`
}

type tableRequest struct {
	backendRequest
	Derived  string `json:"derived,omitempty"`  // and, or, nand, nor (MAJ3 backends)
	Inverted bool   `json:"inverted,omitempty"` // XNOR decoding for XOR tables
}

// tableResponse is the truth table inline (unchanged wire shape) plus
// the serving-mode metadata of the redesigned contract.
type tableResponse struct {
	*spinwave.TruthTable
	Mode string `json:"mode"`
	// Source is the aggregate tier of the table's rows ("mixed" when
	// cases were answered by different tiers).
	Source      string `json:"source,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
}

func (s *server) handleEval(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req evalRequest
	if !s.decode(w, r, &req) {
		return
	}
	cases := req.Cases
	if len(req.Inputs) > 0 {
		cases = append([][]bool{req.Inputs}, cases...)
	}
	if len(cases) == 0 {
		s.badRequest(w, fmt.Errorf("need inputs or cases"))
		return
	}
	if len(cases) > maxBatch {
		s.badRequest(w, fmt.Errorf("batch of %d cases exceeds the limit of %d", len(cases), maxBatch))
		return
	}
	if !s.validTimeout(w, req.TimeoutMS) {
		return
	}
	engMode, modeLabel, k, err := req.resolve()
	if err != nil {
		s.fail(w, err)
		return
	}
	b, err := s.backends.Get(k)
	if err != nil {
		s.fail(w, err)
		return
	}
	ctx, cancel := s.deadline(r.Context(), req.TimeoutMS)
	defer cancel()
	resp := evalResponse{Gate: b.Kind().String(), Backend: b.Name(), Mode: modeLabel,
		Results: make([]caseResponse, len(cases))}
	// Mint the run IDs here (rather than letting the engine do it) so
	// the response can tell the client which ID to tail or fetch probes
	// for.
	runIDs := make([]string, len(cases))
	for i := range runIDs {
		runIDs[i] = spinwave.NewRunID()
	}
	evalStart := time.Now()
	results, err := s.eng.EvalBatch(ctx, b, cases, engMode, runIDs)
	if err != nil {
		s.fail(w, err)
		return
	}
	fps := make([]string, len(cases))
	for i, res := range results {
		resp.Results[i] = caseResponse{Inputs: cases[i], Outputs: res.Readouts,
			Source: string(res.Source), Run: runIDs[i]}
		fps[i] = res.Fingerprint
	}
	resp.Fingerprint = fps[0]
	s.evalCases.Add(int64(len(cases)))
	s.indexEval(k.Gate, resp, cases, fps, time.Since(evalStart))
	s.reply(w, resp)
}

func (s *server) handleTable(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req tableRequest
	if !s.decode(w, r, &req) {
		return
	}
	if !s.validTimeout(w, req.TimeoutMS) {
		return
	}
	engMode, modeLabel, k, err := req.resolve()
	if err != nil {
		s.fail(w, err)
		return
	}
	b, err := s.backends.Get(k)
	if err != nil {
		s.fail(w, err)
		return
	}
	ctx, cancel := s.deadline(r.Context(), req.TimeoutMS)
	defer cancel()
	tableStart := time.Now()
	var tt *spinwave.TruthTable
	var src spinwave.EvalSource
	switch {
	case req.Derived != "":
		d, derr := parseDerived(req.Derived)
		if derr != nil {
			s.fail(w, derr)
			return
		}
		if b.Kind() == spinwave.XOR {
			s.badRequest(w, fmt.Errorf("derived gates need a MAJ3-family backend, not xor"))
			return
		}
		tt, src, err = s.eng.DerivedTableTiered(ctx, b, d, engMode)
	case b.Kind() == spinwave.XOR:
		tt, src, err = s.eng.XORTableTiered(ctx, b, req.Inverted, engMode)
	default:
		tt, src, err = s.eng.MajorityTableTiered(ctx, b, engMode)
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	s.tables.Add(1)
	fp := backendFingerprint(b)
	s.indexTable(k.Gate, b.Name(), fp, string(src),
		len(tt.Cases), time.Since(tableStart))
	s.reply(w, tableResponse{TruthTable: tt, Mode: modeLabel,
		Source: string(src), Fingerprint: fp})
}

func (s *server) decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.failAs(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, false,
			fmt.Sprintf("%s requires POST, got %s", r.URL.Path, r.Method))
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		s.badRequest(w, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// validTimeout rejects out-of-range timeout_ms values with a 400;
// reports whether the request may proceed.
func (s *server) validTimeout(w http.ResponseWriter, timeoutMS int64) bool {
	if timeoutMS < 0 || timeoutMS > maxTimeoutMS {
		s.badRequest(w,
			fmt.Errorf("timeout_ms %d out of range [0, %d]", timeoutMS, maxTimeoutMS))
		return false
	}
	return true
}

// deadline derives the request context: the server default, tightened by
// the request's own timeout_ms when given.
func (s *server) deadline(ctx context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.defaultTimeout
	if timeoutMS > 0 {
		if rd := time.Duration(timeoutMS) * time.Millisecond; rd < d {
			d = rd
		}
	}
	return context.WithTimeout(ctx, d)
}

func (s *server) reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.errors.Add(1)
	}
}

// resolve maps the request onto its engine mode, the mode label
// responses echo, and its backend key.
func (r backendRequest) resolve() (spinwave.EvalMode, string, backendspec.Key, error) {
	mode, label, backend, err := backendspec.ResolveMode(r.Mode, r.Backend)
	if err != nil {
		return "", "", backendspec.Key{}, err
	}
	k, err := backendspec.Resolve(backendspec.Request{Gate: r.Gate, Backend: backend, Spec: r.Spec, Material: r.Material})
	return mode, label, k, err
}

// backendFingerprint returns the backend's canonical fingerprint, empty
// when it has none.
func backendFingerprint(b spinwave.Backend) string {
	if fper, ok := b.(core.Fingerprinter); ok {
		if fp, ok := fper.Fingerprint(); ok {
			return fp
		}
	}
	return ""
}

func parseDerived(name string) (spinwave.DerivedGate, error) {
	switch strings.ToLower(name) {
	case "and":
		return spinwave.AND, nil
	case "or":
		return spinwave.OR, nil
	case "nand":
		return spinwave.NAND, nil
	case "nor":
		return spinwave.NOR, nil
	default:
		return 0, fmt.Errorf("%w: derived gate %q (want and, or, nand, nor)", spinwave.ErrUnknownGate, name)
	}
}
