package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"spinwave"
	"spinwave/internal/backendspec"
	"spinwave/internal/core"
	"spinwave/internal/detect"
	"spinwave/internal/fleet"
	"spinwave/internal/obsplane"
)

// Fleet surface (-fleet-queue): swserve doubles as the fleet
// coordinator. Clients submit work at POST /v1/fleet/jobs and poll
// GET /v1/fleet/jobs/{id}; workers (cmd/swworker) talk to the
// worker-facing endpoints (register/claim/heartbeat/results). All of
// them answer failures with the v1 error envelope. The drain rules are
// asymmetric on purpose: submission, registration and claims refuse
// while draining (no new work enters a dying coordinator, and a drain
// ends every waiting claim), but heartbeats and result posts stay open
// so in-flight compute is not lost at shutdown.

// initFleet opens the durable queue at dir and mounts the coordinator
// on the server. shard is the default cases-per-job split applied to
// submissions that do not pick their own.
func (s *server) initFleet(dir string, shard int, opts ...fleet.QueueOption) error {
	q, err := fleet.OpenQueue(dir, opts...)
	if err != nil {
		return err
	}
	s.fleet = fleet.NewCoordinator(q)
	s.fleetShard = shard
	return nil
}

// fleetEnabled reports whether the fleet surface is mounted; handlers
// answer 404 otherwise (the routes only exist when enabled, but tests
// may call handlers directly).
func (s *server) fleetEnabled() bool { return s.fleet != nil }

// fleetRoutes mounts the fleet endpoints on mux.
func (s *server) fleetRoutes(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/fleet/jobs", s.withMetrics("/v1/fleet/jobs", s.handleFleetSubmit))
	mux.HandleFunc("GET /v1/fleet/jobs/{id}", s.withMetrics("/v1/fleet/jobs/id", s.handleFleetStatus))
	mux.HandleFunc("GET /v1/fleet/workers", s.withMetrics("/v1/fleet/workers", s.handleFleetWorkers))
	mux.HandleFunc("POST /v1/fleet/register", s.withMetrics("/v1/fleet/register", s.handleFleetRegister))
	mux.HandleFunc("POST "+claimRoute, s.withMetrics(claimRoute, s.handleFleetClaim))
	mux.HandleFunc("POST /v1/fleet/heartbeat", s.withMetrics("/v1/fleet/heartbeat", s.handleFleetHeartbeat))
	mux.HandleFunc("POST /v1/fleet/results", s.withMetrics("/v1/fleet/results", s.handleFleetResults))
}

// fleetJobsRequest is the client-facing submission body: the usual
// backend selection plus either explicit cases or table=true (the
// gate's full truth table). Shard picks cases-per-job; 0 takes the
// server's -fleet-shard default.
type fleetJobsRequest struct {
	backendRequest
	Cases    [][]bool `json:"cases,omitempty"`
	Table    bool     `json:"table,omitempty"`
	Inverted bool     `json:"inverted,omitempty"` // XNOR decoding for XOR tables
	Shard    int      `json:"shard,omitempty"`
	// Segments > 0 submits the single case as a checkpointed transient
	// split into that many resumable segments (DESIGN.md §15): each
	// segment is one chained fleet job bounded by a checkpoint, so a
	// killed worker's segment resumes on a peer. Requires the micromag
	// backend, exactly one case, and the server's -artifacts store.
	Segments int `json:"segments,omitempty"`
	// EverySteps is the transient's checkpoint cadence in solver steps
	// (0 = the checkpoint default).
	EverySteps int `json:"every_steps,omitempty"`
	// DtScale multiplies the micromag time step (0 = 1) of a segmented
	// transient; only the segment path honors it, so a submission
	// without segments that sets it is refused. The fleet smoke uses
	// values < 1 to stretch a transient's wall-clock.
	DtScale float64 `json:"dt_scale,omitempty"`
}

// fleetStatusResponse is the request status plus, for completed table
// requests, the decoded truth table (same shape as POST /v1/table).
type fleetStatusResponse struct {
	*fleet.RequestStatus
	Table *spinwave.TruthTable `json:"table,omitempty"`
}

// fleetNotFound answers the envelope 404 for unknown fleet IDs.
func (s *server) fleetNotFound(w http.ResponseWriter, err error) {
	s.failAs(w, http.StatusNotFound, codeNotFound, false, err.Error())
}

func (s *server) handleFleetSubmit(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if s.refuseDraining(w) {
		return
	}
	var req fleetJobsRequest
	if !s.decode(w, r, &req) {
		return
	}
	// Validate the whole vocabulary eagerly, so a typo fails the
	// submission instead of burning worker attempts, and queue the
	// canonical names the local path uses.
	engMode, _, k, err := req.resolve()
	if err != nil {
		s.fail(w, err)
		return
	}
	if req.DtScale != 0 && req.Segments <= 0 {
		s.badRequest(w, fmt.Errorf("dt_scale applies only to segmented transients (segments > 0)"))
		return
	}
	kind := k.Kind()
	cases := req.Cases
	if req.Table {
		if len(cases) > 0 {
			s.badRequest(w, fmt.Errorf("table and cases are mutually exclusive"))
			return
		}
		cases = core.EnumerateInputs(kind.NumInputs())
	}
	if len(cases) == 0 {
		s.badRequest(w, fmt.Errorf("need cases or table=true"))
		return
	}
	for i, c := range cases {
		if len(c) != kind.NumInputs() {
			s.badRequest(w, fmt.Errorf("case %d has %d inputs, %s needs %d", i, len(c), kind, kind.NumInputs()))
			return
		}
	}
	shard := req.Shard
	if shard <= 0 {
		shard = s.fleetShard
	}
	spec := fleet.JobSpec{
		Gate:     k.Gate,
		Backend:  k.Backend,
		Spec:     k.Spec,
		Material: k.Material,
		Mode:     string(engMode),
		Table:    req.Table,
		Inverted: req.Inverted,
		DtScale:  req.DtScale,
	}
	var st *fleet.RequestStatus
	if req.Segments > 0 {
		switch {
		case req.Table || len(cases) != 1:
			s.badRequest(w, fmt.Errorf("a segmented transient takes exactly one case (got table=%t, %d cases)", req.Table, len(cases)))
			return
		case k.Backend != backendspec.Micromagnetic:
			s.badRequest(w, fmt.Errorf("a segmented transient needs the micromag backend, got %s", k.Backend))
			return
		case !s.artifactsEnabled():
			s.badRequest(w, fmt.Errorf("segmented transients need the run-artifact store (-artifacts)"))
			return
		}
		st, err = s.fleet.SubmitTransient(spec, cases[0], req.Segments, req.EverySteps)
	} else {
		st, err = s.fleet.Submit(spec, cases, shard)
	}
	if err != nil {
		s.badRequest(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	s.reply(w, fleetStatusResponse{RequestStatus: st})
}

func (s *server) handleFleetStatus(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	st, err := s.fleet.Status(r.PathValue("id"))
	if err != nil {
		s.fleetNotFound(w, err)
		return
	}
	resp := fleetStatusResponse{RequestStatus: st}
	if st.State == fleet.RequestComplete && st.Spec.Table {
		if tt, err := assembleFleetTable(st); err == nil {
			resp.Table = tt
		} else {
			s.fail(w, fmt.Errorf("assembling fleet table for %s: %w", st.ID, err))
			return
		}
	}
	s.reply(w, resp)
}

func (s *server) handleFleetWorkers(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.reply(w, map[string]any{
		"workers":  s.fleet.Workers(),
		"snapshot": s.fleet.Snapshot(),
	})
}

func (s *server) handleFleetRegister(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if s.refuseDraining(w) {
		return
	}
	var req fleet.RegisterRequest
	if !s.decode(w, r, &req) {
		return
	}
	id, err := s.fleet.Register(req.Worker, req.Host, req.PID)
	if err != nil {
		s.badRequest(w, err)
		return
	}
	lease := s.fleet.Queue().Lease()
	s.reply(w, fleet.RegisterResponse{
		Worker:      id,
		LeaseMS:     lease.Milliseconds(),
		HeartbeatMS: (lease / 3).Milliseconds(),
	})
}

// handleFleetClaim is a long-poll over Coordinator.Claim: it answers a
// job as soon as one is pending, or 204 when the coordinator's wait
// passes empty. The wait ends early when the worker goes away or the
// server starts draining; a drain answers 503 and hands out no job.
func (s *server) handleFleetClaim(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if s.refuseDraining(w) {
		return
	}
	var req fleet.ClaimRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Worker == "" {
		s.badRequest(w, fmt.Errorf("claim needs a worker id"))
		return
	}
	// Derived from the drain context, so a drain cancels the wait
	// before drain() returns; the worker going away cancels it too.
	ctx, cancel := context.WithCancel(s.drainCtx)
	defer cancel()
	defer context.AfterFunc(r.Context(), cancel)()
	job, err := s.fleet.Claim(ctx, req.Worker)
	if err != nil {
		s.fail(w, err)
		return
	}
	if job == nil {
		if !s.refuseDraining(w) {
			w.WriteHeader(http.StatusNoContent)
		}
		return
	}
	// Answer with the claimed job's trace in the header too, so even a
	// client that never decodes the body can pick up the correlation key.
	if job.Trace != "" {
		w.Header().Set(obsplane.TraceHeader, job.Trace)
	}
	s.reply(w, job)
}

// handleFleetHeartbeat stays open while draining: a worker mid-job must
// keep its lease alive so the result it is about to post lands.
func (s *server) handleFleetHeartbeat(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req fleet.HeartbeatRequest
	if !s.decode(w, r, &req) {
		return
	}
	if err := s.fleet.Heartbeat(req.Worker, req.Job, req.Health); err != nil {
		switch {
		case errors.Is(err, fleet.ErrStaleClaim):
			s.failAs(w, http.StatusConflict, codeStaleClaim, false, err.Error())
		case errors.Is(err, fleet.ErrNoSuchJob):
			s.fleetNotFound(w, err)
		default:
			s.fail(w, err)
		}
		return
	}
	s.reply(w, map[string]string{"status": "ok"})
}

// handleFleetResults stays open while draining: refusing a computed
// result at shutdown is the one loss leases cannot repair.
func (s *server) handleFleetResults(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req fleet.ResultRequest
	if !s.decode(w, r, &req) {
		return
	}
	applied, err := s.fleet.IngestResult(req.Worker, req.Job, req.Fingerprint, req.Results, req.Error)
	if err != nil {
		if errors.Is(err, fleet.ErrNoSuchJob) {
			s.fleetNotFound(w, err)
		} else {
			s.badRequest(w, err)
		}
		return
	}
	status := fleet.JobDone
	if j, ok := s.fleet.Queue().Get(req.Job); ok {
		status = j.Status
	}
	s.reply(w, fleet.ResultResponse{Applied: applied, Status: status})
}

// assembleFleetTable decodes a completed table request's merged case
// outcomes into the paper's truth table (Table I for majority gates,
// Table II for XOR/XNOR), exactly as POST /v1/table would have. The
// coordinator's results arrive in submission order — EnumerateInputs
// order — so row 0 is the all-zeros normalization reference.
func assembleFleetTable(st *fleet.RequestStatus) (*spinwave.TruthTable, error) {
	k, err := backendspec.Resolve(backendspec.JobRequest(st.Spec))
	if err != nil {
		return nil, err
	}
	readouts := make([]map[string]detect.Readout, len(st.Results))
	for i, out := range st.Results {
		readouts[i] = out.Outputs
	}
	if len(readouts) == 0 {
		return nil, fmt.Errorf("no merged results")
	}
	if k.Kind() == spinwave.XOR {
		return core.AssembleXORTable(k.Backend, st.Spec.Inverted, readouts[0], readouts)
	}
	return core.AssembleMajorityTable(k.Kind(), k.Backend, readouts[0], readouts)
}

// fleetHealth is the deep-healthz fleet section: queue stats, worker
// counts, and the durability probe (the queue directory must still
// accept atomic writes). An unwritable queue marks the instance
// unhealthy — it can hand out work but cannot record any outcome.
func (s *server) fleetHealth() (section map[string]any, healthy bool) {
	snap := s.fleet.Snapshot()
	section = map[string]any{
		"queue":             snap.Queue,
		"workers":           snap.Workers,
		"workers_lost":      snap.WorkersLost,
		"requests":          snap.Requests,
		"requests_complete": snap.RequestsComplete,
		"duplicate_results": snap.DuplicateResults,
	}
	if len(snap.Nodes) > 0 {
		// The federated per-node view (liveness + lifecycle counts) that
		// the heartbeat health snapshots keep fresh.
		section["nodes"] = snap.Nodes
	}
	healthy = true
	if err := s.fleet.Queue().WritableProbe(); err != nil {
		section["error"] = err.Error()
		healthy = false
	}
	if s.fleetJournalEnabled() {
		js, ok := s.fleetJournalHealth()
		section["journal"] = js
		if !ok {
			healthy = false
		}
	}
	return section, healthy
}
