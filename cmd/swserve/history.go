package main

import (
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"spinwave"
	"spinwave/internal/backendspec"
	"spinwave/internal/fleet"
	"spinwave/internal/runhistory"
)

// Run-history surface (-history): the durable catalog indexing every
// completed eval case, truth table and fleet request the server serves
// (DESIGN.md §17), queryable at
//
//	GET /v1/history?gate=&verdict=&trace=&tier=&kind=&since=&limit=
//
// and the retention engine (-retain-traces, -retain-every) reclaiming
// the oldest fleet-journal traces those records point at. Indexing is
// best effort: a catalog write failure is logged and counted
// (spinwave_history_errors_total), never a served-request failure. The deep health check probes the catalog
// directory for writability — an instance that cannot remember what it
// served is not ready.

// initHistory opens (creating if needed) the run-history catalog at dir.
func (s *server) initHistory(dir string) error {
	c, err := runhistory.Open(dir)
	if err != nil {
		return err
	}
	s.history = c
	return nil
}

// historyEnabled reports whether the run-history catalog is mounted.
func (s *server) historyEnabled() bool { return s.history != nil }

// historyRoutes mounts the history endpoint; only called when the
// catalog is enabled.
func (s *server) historyRoutes(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/history", s.withMetrics("/v1/history", s.handleHistory))
}

// defaultHistoryLimit caps an unbounded /v1/history response; clients
// page further back with since= or raise limit= explicitly.
const defaultHistoryLimit = 100

// parseSince accepts an RFC3339 timestamp or integer Unix seconds and
// returns Unix nanoseconds.
func parseSince(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	if sec, err := strconv.ParseInt(s, 10, 64); err == nil {
		return sec * int64(time.Second), nil
	}
	t, err := time.Parse(time.RFC3339, s)
	if err != nil {
		return 0, fmt.Errorf("bad since %q (want RFC3339 or Unix seconds)", s)
	}
	return t.UnixNano(), nil
}

// handleHistory answers the catalog query: newest-first records under
// the requested filters. Deliberately exempt from the drain refusal —
// like the trace endpoints, the post-mortem view of a dying instance is
// exactly what the operator wants next.
func (s *server) handleHistory(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	q := r.URL.Query()
	f := runhistory.Filter{
		Gate:    q.Get("gate"),
		Verdict: q.Get("verdict"),
		Trace:   q.Get("trace"),
		Tier:    q.Get("tier"),
		Kind:    q.Get("kind"),
		Limit:   defaultHistoryLimit,
	}
	since, err := parseSince(q.Get("since"))
	if err != nil {
		s.badRequest(w, err)
		return
	}
	f.SinceNS = since
	if lim := q.Get("limit"); lim != "" {
		n, err := strconv.Atoi(lim)
		if err != nil || n < 0 {
			s.badRequest(w, fmt.Errorf("bad limit %q", lim))
			return
		}
		f.Limit = n
	}
	recs, err := s.history.Query(f)
	if err != nil {
		s.fail(w, err)
		return
	}
	if recs == nil {
		recs = []runhistory.Record{}
	}
	s.reply(w, map[string]any{
		"records": recs,
		"count":   len(recs),
		"total":   s.history.Len(),
	})
}

// indexRecords appends records to the catalog, best effort: errors are
// logged (and counted by the catalog), never propagated into the
// serving path.
func (s *server) indexRecords(recs ...runhistory.Record) {
	if !s.historyEnabled() || len(recs) == 0 {
		return
	}
	if _, err := s.history.Append(recs...); err != nil {
		log.Printf("history: %v", err)
	}
}

// indexEval catalogs one served /v1/eval response, one record per case
// keyed by the case's run ID.
func (s *server) indexEval(gate string, resp evalResponse, cases [][]bool, fps []string, wall time.Duration) {
	if !s.historyEnabled() {
		return
	}
	recs := make([]runhistory.Record, 0, len(cases))
	for i, c := range cases {
		rec := runhistory.Record{
			ID:          resp.Results[i].Run,
			Kind:        "eval",
			Gate:        gate,
			Backend:     resp.Backend,
			Fingerprint: fps[i],
			Inputs:      runhistory.InputsLabel(c),
			Tier:        resp.Results[i].Source,
			Cases:       1,
			WallNS:      wall.Nanoseconds(),
		}
		// The health monitor (when attached) published a verdict under the
		// same run ID the engine evaluated with.
		if rep, ok := spinwave.HealthFor(rec.ID); ok {
			rec.Verdict = rep.Verdict
			rec.Steps = rep.Steps
		}
		recs = append(recs, rec)
	}
	s.indexRecords(recs...)
}

// indexTable catalogs one served /v1/table response under a fresh run
// ID (tables have no per-case run handle on the wire).
func (s *server) indexTable(gate, backend, fingerprint, tier string, cases int, wall time.Duration) {
	if !s.historyEnabled() {
		return
	}
	s.indexRecords(runhistory.Record{
		ID:          spinwave.NewRunID(),
		Kind:        "table",
		Gate:        gate,
		Backend:     backend,
		Fingerprint: fingerprint,
		Tier:        tier,
		Cases:       cases,
		WallNS:      wall.Nanoseconds(),
	})
}

// indexFleetRequest catalogs one completed fleet request — the
// coordinator's OnComplete hook. The record points at the files the
// request left behind: its fleet-journal trace and, for transients, the
// run's artifacts (checkpoints, probe CSVs) — the bytes the retention
// engine will eventually reclaim.
func (s *server) indexFleetRequest(cr fleet.CompletedRequest) {
	if !s.historyEnabled() {
		return
	}
	rec := runhistory.Record{
		ID:          cr.ID,
		Kind:        "fleet",
		Trace:       cr.Trace,
		Gate:        cr.Gate,
		Backend:     cr.Backend,
		Fingerprint: cr.Fingerprint,
		Cases:       cr.Cases,
		WallNS:      cr.CompletedNS - cr.SubmittedNS,
		Tier:        cr.Tier,
	}
	// The coordinator queues canonical names; a request an older
	// coordinator queued may still carry aliases.
	if k, err := backendspec.Resolve(backendspec.Request{Gate: cr.Gate, Backend: cr.Backend}); err == nil {
		rec.Gate, rec.Backend = k.Gate, k.Backend
	}
	if cr.Run != "" {
		if rep, ok := spinwave.HealthFor(cr.Run); ok {
			rec.Verdict = rep.Verdict
			rec.Steps = rep.Steps
		}
	}
	if s.fleetJournalEnabled() && cr.Trace != "" {
		if fi, err := os.Stat(filepath.Join(s.fjournal.Dir(), cr.Trace+".jsonl")); err == nil {
			rec.Files = append(rec.Files, runhistory.FileRef{
				Class: runhistory.ClassTrace,
				Path:  cr.Trace + ".jsonl",
				Size:  fi.Size(),
			})
		}
	}
	if s.artifactsEnabled() && cr.Run != "" {
		if infos, err := s.artifacts.List(cr.Run); err == nil {
			for _, info := range infos {
				rec.Files = append(rec.Files, runhistory.FileRef{
					Class: artifactClass(info.Name),
					Path:  cr.Run + "/" + info.Name,
					Size:  info.Size,
				})
			}
		}
	}
	s.indexRecords(rec)
}

// artifactClass maps an artifact file name onto its retention class.
func artifactClass(name string) runhistory.Class {
	switch {
	case len(name) > 3 && name[:3] == "ck-":
		return runhistory.ClassCheckpoint
	case filepath.Ext(name) == ".csv":
		return runhistory.ClassProbeCSV
	default:
		return runhistory.ClassArtifact
	}
}

// initRetention constructs the GC that keeps the newest maxTraces
// fleet-journal traces, and wires the coordinator's in-flight
// protection. Returns nil when maxTraces is zero: nothing would ever be
// deleted.
func (s *server) initRetention(maxTraces int) *runhistory.GC {
	if maxTraces <= 0 {
		return nil
	}
	gc := &runhistory.GC{MaxTraces: maxTraces}
	if s.fleetJournalEnabled() {
		gc.Traces = s.fjournal
	}
	if s.fleetEnabled() {
		// Active requests' traces must never be reclaimed from under
		// the workers still writing them.
		gc.Protected = s.fleet.ActiveTraces
	}
	s.gc = gc
	return gc
}

// historyHealth is the deep-healthz history section: catalog size,
// writability (an unwritable catalog makes the instance unready — it
// serves but cannot remember), and the retention engine's last sweep.
func (s *server) historyHealth() (section map[string]any, healthy bool) {
	section = map[string]any{
		"dir":        s.history.Dir(),
		"records":    s.history.Len(),
		"duplicates": s.history.Duplicates(),
	}
	healthy = true
	if err := s.history.WritableProbe(); err != nil {
		section["error"] = err.Error()
		healthy = false
	}
	if s.gc != nil {
		last, at, err, sweeps := s.gc.LastSweep()
		ret := map[string]any{"sweeps": sweeps}
		if sweeps > 0 {
			ret["last_at"] = at.Format(time.RFC3339)
			ret["deleted"] = last.Deleted
			ret["bytes_reclaimed"] = last.BytesReclaimed
		}
		if err != nil {
			ret["error"] = err.Error()
		}
		section["retention"] = ret
	}
	return section, healthy
}
