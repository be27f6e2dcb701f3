package main

import (
	"fmt"
	"net/http"
	"time"

	"spinwave"
	"spinwave/internal/journal"
)

// Run-inspection endpoints (DESIGN.md §11):
//
//	GET /v1/runs                  run IDs with retained probe data
//	GET /v1/runs/{id}/events      NDJSON live tail of the run journal
//	GET /v1/runs/{id}/probes      probe time-series as JSON or CSV
//
// The journal tail replays the recent history from an in-memory ring,
// then switches to live hub delivery (subscribing before the replay and
// de-duplicating by sequence number, so no event is lost or repeated at
// the seam). Heartbeat lines keep idle connections alive; delivery is
// backpressure-safe — a slow client's events are dropped from its own
// bounded buffer, never stalling the solver. The fleet tail
// (obsplane.go) runs through the same stream loop and hub type.

// eventRing bounds the journal replay history swserve retains.
const eventRing = 4096

// attachJournal installs the server's ring and hub on the process
// journal, returning a detach function for clean shutdown.
func (s *server) attachJournal() (detach func()) {
	s.ring = journal.NewRingSink(eventRing)
	s.hub = journal.NewHub[journal.Event]()
	d1 := spinwave.AttachJournalSink(s.ring)
	d2 := spinwave.AttachJournalSink(runSink{s.hub})
	return func() { d2(); d1() }
}

// runSink is the journal sink that publishes every event on the run
// tail's hub, keyed by run ID.
type runSink struct{ hub *journal.Hub[journal.Event] }

func (rs runSink) Emit(e journal.Event) { rs.hub.Publish(e.Run, e) }

// handleRuns lists the run IDs with retained probe recorders.
func (s *server) handleRuns(w http.ResponseWriter, r *http.Request) {
	s.reply(w, map[string]any{"runs": spinwave.ProbedRuns()})
}

// terminalEvent reports whether e is the last journal event a run
// emits: the engine's eval completion for a recompute (it follows the
// backend's own run.complete / run.error), or the tier event of a case
// answered without one — a memory, disk or surrogate hit, or a case
// coalesced onto another run's recompute.
func terminalEvent(e journal.Event) bool {
	switch e.Name {
	case "engine.eval.done":
		return true
	case "engine.cache", "engine.tier":
		result, _ := e.Fields["result"].(string)
		return result == "hit" || (result == "coalesced" && e.Name == "engine.cache")
	}
	return false
}

// handleRunEvents is the run's NDJSON live tail: replayed history, then
// live events, until the run's terminal event (see stream). A run with
// no event left in the replay ring answers 404: unknown, or finished
// with every event overwritten, so nothing would ever end its tail.
// New tails are refused while draining — the stream would be cut by
// shutdown anyway.
func (s *server) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	id := r.PathValue("id")
	if id == "" {
		s.badRequest(w, fmt.Errorf("missing run id"))
		return
	}
	// Subscribe before replaying so no event falls between ring and hub;
	// the seq guard drops the overlap.
	events, _, cancel := s.hub.Subscribe(id, 256)
	defer cancel()
	replay := s.ring.EventsFor(id)
	if len(replay) == 0 {
		s.failAs(w, http.StatusNotFound, codeNotFound, false,
			fmt.Sprintf("no retained journal events for run %q", id))
		return
	}
	stream(s, w, r, tail[journal.Event]{
		field: "run", id: id, replay: replay, live: events,
		seq:      func(e journal.Event) (string, uint64) { return "", e.Seq },
		terminal: terminalEvent,
	})
}

// tail is one NDJSON tail's own parts; stream runs the loop both tails
// share.
type tail[E interface{ MarshalJSONL() []byte }] struct {
	field, id string                   // heartbeat and drain lines carry {field: id}
	replay    []E                      // history, written before live events
	live      <-chan E                 // nil for a snapshot that closes after replay
	seq       func(E) (string, uint64) // dedup: an event whose seq is not past its key's last is skipped
	terminal  func(E) bool             // the event that completes the tail
}

// stream writes an NDJSON tail: headers, the replay, then live events
// with a heartbeat line every s.heartbeat, until a terminal event, the
// client going away, or a drain. When draining starts the stream writes
// one server_draining line and ends, so open tails never hold Shutdown
// hostage and a client can tell a drained stream from a dead run.
func stream[E interface{ MarshalJSONL() []byte }](s *server, w http.ResponseWriter, r *http.Request, t tail[E]) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)

	// write emits one event line; it reports whether the tail goes on
	// (false on client error or a terminal event).
	last := make(map[string]uint64)
	write := func(e E) bool {
		key, seq := t.seq(e)
		if seq <= last[key] {
			return true
		}
		last[key] = seq
		if _, err := w.Write(append(e.MarshalJSONL(), '\n')); err != nil || rc.Flush() != nil {
			return false
		}
		return !t.terminal(e)
	}
	for _, e := range t.replay {
		if !write(e) {
			return
		}
	}
	if t.live == nil {
		return
	}
	mark := func(event string) error {
		_, err := fmt.Fprintf(w, "{\"event\":%q,\"time_ns\":%d,%q:%q}\n",
			event, time.Now().UnixNano(), t.field, t.id)
		if err == nil {
			err = rc.Flush()
		}
		return err
	}
	hb := time.NewTicker(s.heartbeat)
	defer hb.Stop()
	done := r.Context().Done()
	for {
		select {
		case <-done:
			return
		case <-s.drainCtx.Done():
			mark("server_draining") //nolint:errcheck // the stream ends either way
			return
		case <-hb.C:
			if mark("heartbeat") != nil {
				return
			}
		case e, open := <-t.live:
			if !open || !write(e) {
				return
			}
		}
	}
}

// handleRunProbes serves a probed run's time-series. JSON by default;
// `?format=csv` (or an Accept: text/csv header) selects CSV rows of
// t, mx/my/mz per probe.
func (s *server) handleRunProbes(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := spinwave.ProbesFor(id)
	if !ok {
		s.failAs(w, http.StatusNotFound, codeNotFound, false,
			fmt.Sprintf("no probe data for run %q (probes enabled with -probe?)", id))
		return
	}
	snap := rec.Snapshot(id)
	if r.URL.Query().Get("format") == "csv" || r.Header.Get("Accept") == "text/csv" {
		w.Header().Set("Content-Type", "text/csv")
		if err := snap.WriteCSV(w); err != nil {
			s.errors.Add(1)
		}
		return
	}
	s.reply(w, snap)
}
