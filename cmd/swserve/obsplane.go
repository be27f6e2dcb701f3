package main

import (
	"fmt"
	"net/http"

	"spinwave/internal/journal"
	"spinwave/internal/obsplane"
)

// Fleet observability plane (DESIGN.md §16): swserve is the collection
// point of the fleet-wide flight recorder. Workers batch-forward their
// journal events to POST /v1/fleet/journal; the coordinator mirrors its
// own trace-stamped events into the same durable store; and the merged
// multi-node timeline is served back as an NDJSON tail
// (GET /v1/fleet/jobs/{id}/events) and an assembled Chrome trace
// (GET /v1/fleet/jobs/{id}/trace). The {id} is a fleet request ID or a
// raw trace ID — the request map is in-memory, so post-mortems on a
// restarted coordinator can still query by the trace ID recorded in
// status responses and checkpoint manifests.
//
// Drain rules mirror the fleet's asymmetry: journal ingestion and the
// trace endpoints stay open while draining (a dying worker's final
// flush and an operator's post-mortem both must land), while new live
// tails are refused the same way /v1/runs/{id}/events refuses them.

// initFleetJournal opens the durable fleet journal at dir and attaches
// the coordinator mirror sink: every journal event this process emits
// that carries a "trace" field (the fleet.* family after the
// correlation fix) is appended to the store under the coordinator's
// node name, so claims, requeues and request lifecycle interleave with
// the workers' shipped events in one timeline.
func (s *server) initFleetJournal(dir string) error {
	st, err := obsplane.OpenStore(dir)
	if err != nil {
		return err
	}
	s.fjournal = st
	s.detachMirror = journal.Default().Attach(coordinatorMirror{store: st})
	return nil
}

// fleetJournalEnabled reports whether the fleet journal store is
// mounted.
func (s *server) fleetJournalEnabled() bool { return s.fjournal != nil }

// coordinatorMirror is the journal sink that files the coordinator's
// own trace-stamped events into the fleet journal. It runs under the
// journal's delivery mutex, which is safe only because Store.Append
// never emits journal events itself (a sink that re-entered Emit would
// deadlock). Events without a valid trace field are not fleet-scoped
// and are skipped; append errors are dropped — the mirror is a best
// effort copy, never backpressure on delivery.
type coordinatorMirror struct{ store *obsplane.Store }

func (m coordinatorMirror) Emit(e journal.Event) {
	trace, _ := e.Fields["trace"].(string)
	if !obsplane.ValidID(trace) {
		return
	}
	m.store.Append(trace, obsplane.CoordinatorNode, []journal.Event{e}) //nolint:errcheck
}

// fleetJournalRoutes mounts the observability-plane endpoints; only
// called when the fleet journal is enabled.
func (s *server) fleetJournalRoutes(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/fleet/journal", s.withMetrics("/v1/fleet/journal", s.handleFleetJournalShip))
	mux.HandleFunc("GET /v1/fleet/jobs/{id}/events", s.withMetrics(fleetTailRoute, s.handleFleetJobEvents))
	mux.HandleFunc("GET /v1/fleet/jobs/{id}/trace", s.withMetrics("/v1/fleet/jobs/trace", s.handleFleetJobTrace))
}

// handleFleetJournalShip ingests one worker's journal batch. It stays
// open while draining for the same reason result posts do: the batch in
// flight is the flight-recorder tail of compute that already happened,
// and refusing it at shutdown loses exactly the history a post-mortem
// needs. Ingestion is idempotent per (node, seq), so a worker retrying
// a batch whose ack was lost is answered with duplicates, not double
// entries.
func (s *server) handleFleetJournalShip(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req obsplane.ShipRequest
	if !s.decode(w, r, &req) {
		return
	}
	if !obsplane.ValidID(req.Node) {
		s.badRequest(w, fmt.Errorf("bad node id %q", req.Node))
		return
	}
	// Group the batch by trace, preserving each event's position within
	// its trace — a worker's batch is in emission order, and per-trace
	// subsequences of an ordered stream stay ordered.
	var ack obsplane.ShipResponse
	perTrace := make(map[string][]journal.Event)
	var traces []string
	for _, se := range req.Events {
		if se.Trace == "" || !obsplane.ValidID(se.Trace) {
			ack.Untraced++
			continue
		}
		if _, ok := perTrace[se.Trace]; !ok {
			traces = append(traces, se.Trace)
		}
		perTrace[se.Trace] = append(perTrace[se.Trace], se.Event)
	}
	for _, trace := range traces {
		events := perTrace[trace]
		accepted, err := s.fjournal.Append(trace, req.Node, events)
		if err != nil {
			s.fail(w, err)
			return
		}
		ack.Accepted += accepted
		ack.Duplicates += len(events) - accepted
		// The receipt is emitted after Append returns (never from inside
		// the store) and carries the trace, so the coordinator mirror
		// files it into the same timeline it acknowledges.
		if jd := journal.Default(); jd.Enabled() {
			jd.Emit("", "fleet.journal_shipped",
				journal.F("node", req.Node),
				journal.F("trace", trace),
				journal.F("events", accepted),
				journal.F("duplicates", len(events)-accepted))
		}
	}
	s.reply(w, ack)
}

// resolveTrace maps a request ID (the usual handle clients hold) to its
// fleet trace ID, falling through to treating id as a raw trace ID —
// the post-mortem path on a coordinator whose in-memory request map
// restarted since the job ran.
func (s *server) resolveTrace(id string) string {
	if s.fleetEnabled() {
		if st, err := s.fleet.Status(id); err == nil && st.Trace != "" {
			return st.Trace
		}
	}
	return id
}

// traceActive reports whether a fleet request that has not completed
// carries the trace.
func (s *server) traceActive(trace string) bool {
	return s.fleetEnabled() && s.fleet.ActiveTraces()[trace]
}

// fleetTerminalEvent reports whether e ends a fleet request's timeline:
// the coordinator's request-complete (or failure) lifecycle event, or
// the synthetic store-removal event the retention engine injects so a
// live tail of a reclaimed trace ends cleanly instead of erroring.
func fleetTerminalEvent(e obsplane.ShippedEvent) bool {
	if e.Name == obsplane.RemovedEventName {
		return true
	}
	if e.Name != "fleet.request" {
		return false
	}
	status, _ := e.Fields["status"].(string)
	return status == "complete" || status == "failed"
}

// handleFleetJobEvents is the fleet analogue of /v1/runs/{id}/events
// and runs through the same stream loop: the merged multi-node journal
// as an NDJSON stream — stored history first (deterministic (node, seq)
// merge order), then live events as workers ship them, until the
// request completes. ?follow=false returns the stored snapshot and
// closes — the post-mortem mode, which also stays available while
// draining.
func (s *server) handleFleetJobEvents(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	trace := s.resolveTrace(r.PathValue("id"))
	if !obsplane.ValidID(trace) {
		s.badRequest(w, fmt.Errorf("bad job or trace id %q", trace))
		return
	}
	follow := true
	switch r.URL.Query().Get("follow") {
	case "0", "false", "no":
		follow = false
	}
	if follow && s.refuseDraining(w) {
		return
	}
	// Subscribe before reading the file so no shipped batch falls between
	// snapshot and live delivery; the per-node seq guard drops the
	// overlap.
	var live <-chan obsplane.ShippedEvent
	if follow {
		events, _, cancel := s.fjournal.Subscribe(trace, 256)
		defer cancel()
		live = events
	}
	stored, err := s.fjournal.Events(trace)
	if err != nil {
		s.fail(w, err)
		return
	}
	// An empty trace is gone (retention removed it) or unknown, and no
	// event would ever end its tail — unless a request still running
	// holds it, as right after submit.
	if len(stored) == 0 && (!follow || !s.traceActive(trace)) {
		s.failAs(w, http.StatusNotFound, codeNotFound, false,
			fmt.Sprintf("no fleet journal for %q", trace))
		return
	}
	w.Header().Set(obsplane.TraceHeader, trace)
	stream(s, w, r, tail[obsplane.ShippedEvent]{
		field: "trace", id: trace, replay: stored, live: live,
		seq:      func(se obsplane.ShippedEvent) (string, uint64) { return se.Node, se.Seq },
		terminal: fleetTerminalEvent,
	})
}

// handleFleetJobTrace assembles the merged multi-node journal into a
// Chrome-trace JSON timeline (chrome://tracing, Perfetto): one thread
// row per node, job-ownership spans between claim and completion or
// requeue, instants for every other event. Deliberately exempt from the
// drain refusal — the assembled trace of a dying instance is exactly
// what the operator wants next.
func (s *server) handleFleetJobTrace(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	trace := s.resolveTrace(r.PathValue("id"))
	if !obsplane.ValidID(trace) {
		s.badRequest(w, fmt.Errorf("bad job or trace id %q", trace))
		return
	}
	events, err := s.fjournal.Events(trace)
	if err != nil {
		s.fail(w, err)
		return
	}
	if len(events) == 0 {
		s.failAs(w, http.StatusNotFound, codeNotFound, false,
			fmt.Sprintf("no fleet journal for %q", trace))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(obsplane.TraceHeader, trace)
	if err := obsplane.WriteChromeTrace(w, trace, events); err != nil {
		s.errors.Add(1)
	}
}

// fleetJournalHealth is the deep-healthz fleet_journal section: shipped
// volume, live tails, and the durability probe — an unwritable journal
// directory means shipped history is being dropped, which degrades the
// instance the same way an unwritable queue does.
func (s *server) fleetJournalHealth() (section map[string]any, healthy bool) {
	section = map[string]any{
		"dir":         s.fjournal.Dir(),
		"shipped":     s.fjournal.Shipped(),
		"subscribers": s.fjournal.Subscribers(),
	}
	healthy = true
	if err := s.fjournal.WritableProbe(); err != nil {
		section["error"] = err.Error()
		healthy = false
	}
	return section, healthy
}
