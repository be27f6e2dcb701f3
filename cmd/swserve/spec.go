package main

import (
	"net/http"

	"spinwave"
	"spinwave/internal/backendspec"
)

// GET /v1/spec: a machine-readable description of the v1 API — the
// endpoints, the vocabulary of every enum-like request field (gates,
// modes, backends, specs, materials, error codes, sources) and the
// server's build identity. Clients and tooling discover the contract
// here instead of hard-coding it.

// endpointSpec describes one route.
type endpointSpec struct {
	Method      string `json:"method"`
	Path        string `json:"path"`
	Description string `json:"description"`
}

// specResponse is the GET /v1/spec body.
type specResponse struct {
	Service     string `json:"service"`
	GoVersion   string `json:"go_version"`
	VCSRevision string `json:"vcs_revision"`

	Endpoints []endpointSpec `json:"endpoints"`

	Gates      []string `json:"gates"`
	Modes      []string `json:"modes"`
	Backends   []string `json:"backends"`
	Specs      []string `json:"specs"`
	Materials  []string `json:"materials"`
	Derived    []string `json:"derived"`
	Sources    []string `json:"sources"`
	ErrorCodes []string `json:"error_codes"`

	MaxBatch         int   `json:"max_batch"`
	DefaultTimeoutMS int64 `json:"default_timeout_ms"`
	MaxTimeoutMS     int64 `json:"max_timeout_ms"`
}

// handleSpec serves the API description. Read-only and cheap, so (like
// /metrics) it stays available while draining.
func (s *server) handleSpec(w http.ResponseWriter, r *http.Request) {
	goVersion, revision := buildVersion()
	endpoints := []endpointSpec{
		{"POST", "/v1/eval", "evaluate one input case or a batch of cases"},
		{"POST", "/v1/table", "evaluate a full truth table (paper Tables I/II)"},
		{"GET", "/v1/spec", "this API description"},
		{"GET", "/v1/healthz", "liveness probe; ?deep=1 adds canary, pool, fleet and surrogate state"},
		{"GET", "/v1/slo", "rolling-window SLO state with burn rates"},
		{"GET", "/v1/runs", "run IDs with retained probe data"},
		{"GET", "/v1/runs/{id}/events", "NDJSON live tail of the run journal"},
		{"GET", "/v1/runs/{id}/probes", "probe time-series (JSON, ?format=csv)"},
		{"GET", "/metrics", "Prometheus text exposition"},
		{"GET", "/debug/vars", "expvar counters"},
	}
	if s.artifactsEnabled() {
		endpoints = append(endpoints,
			endpointSpec{"GET", "/v1/runs/{id}/artifacts", "list a run's durable artifacts"},
			endpointSpec{"GET", "/v1/runs/{id}/artifacts/{name}", "download one artifact"},
			endpointSpec{"PUT", "/v1/runs/{id}/artifacts/{name}", "worker: upload one artifact (checkpoints)"},
		)
	}
	if s.historyEnabled() {
		endpoints = append(endpoints,
			endpointSpec{"GET", "/v1/history", "run-history catalog query (?gate=&verdict=&trace=&tier=&kind=&since=&limit=)"},
		)
	}
	if s.fleetEnabled() {
		endpoints = append(endpoints,
			endpointSpec{"POST", "/v1/fleet/jobs", "submit cases or a truth table to the worker fleet"},
			endpointSpec{"GET", "/v1/fleet/jobs/{id}", "fleet request status (merged results, decoded table)"},
			endpointSpec{"GET", "/v1/fleet/workers", "registered workers with liveness and node health"},
			endpointSpec{"POST", "/v1/fleet/register", "worker: register with the coordinator"},
			endpointSpec{"POST", "/v1/fleet/claim", "worker: claim the next job (204 when idle)"},
			endpointSpec{"POST", "/v1/fleet/heartbeat", "worker: extend a job lease, report node health"},
			endpointSpec{"POST", "/v1/fleet/results", "worker: post a job's results (idempotent)"},
		)
	}
	s.reply(w, specResponse{
		Service:     "swserve",
		GoVersion:   goVersion,
		VCSRevision: revision,
		Endpoints:   endpoints,
		Gates:       backendspec.Gates,
		Modes:       backendspec.Modes,
		Backends:    backendspec.Backends,
		Specs:       backendspec.Specs,
		Materials:   backendspec.Materials,
		Derived:     []string{"and", "or", "nand", "nor"},
		Sources: []string{
			string(spinwave.EvalSourceCache), string(spinwave.EvalSourceDisk),
			string(spinwave.EvalSourceSurrogate), string(spinwave.EvalSourceMicromag),
			string(spinwave.EvalSourceBehavioral), "mixed",
		},
		ErrorCodes: []string{
			codeBadRequest, codeUnknownGate, codeMethodNotAllowed, codeNotFound,
			codeDraining, codeDeadline, codeCancelled, codeSurrogateUnavailable,
			codeHealthAbort, codeStaleClaim, codeInternal,
		},
		MaxBatch:         maxBatch,
		DefaultTimeoutMS: s.defaultTimeout.Milliseconds(),
		MaxTimeoutMS:     maxTimeoutMS,
	})
}
