package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spinwave"
	"spinwave/internal/fleet"
	"spinwave/internal/journal"
	"spinwave/internal/obsplane"
)

// newObsFleetServer is newFleetServer plus the fleet journal store and
// its coordinator mirror.
func newObsFleetServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	srv := newServer(spinwave.NewEngine(spinwave.WithEngineWorkers(4)), 30*time.Second)
	t.Cleanup(srv.close)
	dir := t.TempDir()
	if err := srv.initFleetJournal(filepath.Join(dir, "fleet-journal")); err != nil {
		t.Fatal(err)
	}
	if err := srv.initFleet(filepath.Join(dir, "queue"), 4); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return srv, ts
}

// fleetTrace fetches a request's status and returns its trace ID.
func fleetTrace(t *testing.T, ts *httptest.Server, reqID string) string {
	t.Helper()
	resp, raw := getJSON(t, ts.URL+"/v1/fleet/jobs/"+reqID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d %s", resp.StatusCode, raw)
	}
	var st fleetStatusResponse
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Trace == "" {
		t.Fatalf("request %s has no trace: %s", reqID, raw)
	}
	return st.Trace
}

// shipBatch posts one journal batch and returns the acknowledgement.
func shipBatch(t *testing.T, ts *httptest.Server, req obsplane.ShipRequest) obsplane.ShipResponse {
	t.Helper()
	resp, raw := postJSON(t, ts.URL+"/v1/fleet/journal", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ship: %d %s", resp.StatusCode, raw)
	}
	var ack obsplane.ShipResponse
	if err := json.Unmarshal(raw, &ack); err != nil {
		t.Fatal(err)
	}
	return ack
}

// victimEvents fabricates the journal tail of a worker that died
// mid-job: the events its shipper flushed before the kill.
func victimEvents(trace string, seqs ...uint64) []obsplane.ShippedEvent {
	out := make([]obsplane.ShippedEvent, 0, len(seqs))
	for _, seq := range seqs {
		out = append(out, obsplane.ShippedEvent{
			Trace: trace,
			Event: journal.Event{
				Seq: seq, TimeNS: time.Now().UnixNano(), Run: "r1",
				Name:   "engine.eval.start",
				Fields: map[string]any{"step": seq},
			},
		})
	}
	return out
}

// TestFleetJournalPostMortem is the acceptance scenario end to end at
// the HTTP surface: a victim worker's shipped journal tail survives at
// the coordinator after the worker is gone, a peer completes the
// request, and both the merged NDJSON journal and the assembled Chrome
// trace answer for the job — with the dead node's events present and
// the trace ID spanning multiple nodes.
func TestFleetJournalPostMortem(t *testing.T) {
	srv, ts := newObsFleetServer(t)
	reqID := submitFleet(t, ts, map[string]any{"gate": "xor", "table": true, "shard": 4})
	trace := fleetTrace(t, ts, reqID)

	// The victim's shipper forwarded three events before the kill; its
	// result post never arrives.
	ack := shipBatch(t, ts, obsplane.ShipRequest{Node: "victim", Events: victimEvents(trace, 1, 2, 3)})
	if ack.Accepted != 3 || ack.Duplicates != 0 {
		t.Fatalf("first ship ack = %+v", ack)
	}
	// A retried batch whose ack was lost re-ships overlapping sequence
	// numbers; ingestion is idempotent.
	ack = shipBatch(t, ts, obsplane.ShipRequest{Node: "victim", Events: victimEvents(trace, 2, 3, 4)})
	if ack.Accepted != 1 || ack.Duplicates != 2 {
		t.Fatalf("re-ship ack = %+v", ack)
	}
	// Untraced events are counted, not stored.
	ack = shipBatch(t, ts, obsplane.ShipRequest{Node: "victim",
		Events: []obsplane.ShippedEvent{{Event: journal.Event{Seq: 9, Name: "orphan"}}}})
	if ack.Accepted != 0 || ack.Untraced != 1 {
		t.Fatalf("untraced ack = %+v", ack)
	}

	// A live peer completes the request; the coordinator's own claim and
	// lifecycle events reach the store through the mirror sink.
	startFleetWorker(t, srv, ts, &fleet.Worker{ID: "peer"})
	waitFleetComplete(t, ts, reqID, 15*time.Second)

	// Post-mortem snapshot: the merged multi-node journal, by request ID.
	events := fetchFleetJournal(t, ts, reqID, trace)
	nodes := map[string]bool{}
	lastSeq := map[string]uint64{}
	for _, se := range events {
		if se.Trace != trace {
			t.Fatalf("event on foreign trace: %+v", se)
		}
		if se.Seq <= lastSeq[se.Node] {
			t.Fatalf("per-node seq not monotonic at %+v", se)
		}
		lastSeq[se.Node] = se.Seq
		nodes[se.Node] = true
	}
	if !nodes["victim"] {
		t.Fatalf("dead worker's journal missing from merged tail: %v", nodes)
	}
	if !nodes[obsplane.CoordinatorNode] {
		t.Fatalf("coordinator mirror missing from merged tail: %v", nodes)
	}

	// The same snapshot answers by raw trace ID — the handle that
	// survives a coordinator restart (status map is in-memory).
	if got := fetchFleetJournal(t, ts, trace, trace); len(got) != len(events) {
		t.Fatalf("query by trace ID returned %d events, by request ID %d", len(got), len(events))
	}

	// Assembled Chrome trace: one JSON document naming both nodes.
	resp, raw := getJSON(t, ts.URL+"/v1/fleet/jobs/"+reqID+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: %d %s", resp.StatusCode, raw)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &chrome); err != nil {
		t.Fatalf("chrome trace is not JSON: %v\n%s", err, raw)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("empty chrome trace")
	}
	body := string(raw)
	for _, want := range []string{"victim", obsplane.CoordinatorNode, trace} {
		if !strings.Contains(body, want) {
			t.Errorf("chrome trace missing %q", want)
		}
	}

	// Deep health reports the journal beside the queue.
	resp, raw = getJSON(t, ts.URL+"/v1/healthz?deep=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deep healthz: %d %s", resp.StatusCode, raw)
	}
	var health struct {
		Fleet struct {
			Journal map[string]any `json:"journal"`
		} `json:"fleet"`
	}
	if err := json.Unmarshal(raw, &health); err != nil {
		t.Fatal(err)
	}
	if health.Fleet.Journal == nil {
		t.Fatalf("deep healthz has no fleet.journal section: %s", raw)
	}
	if shipped, _ := health.Fleet.Journal["shipped"].(float64); shipped < 4 {
		t.Fatalf("journal health shipped = %v, want >= 4", health.Fleet.Journal["shipped"])
	}
}

// fetchFleetJournal downloads the ?follow=false NDJSON snapshot and
// parses its lines.
func fetchFleetJournal(t *testing.T, ts *httptest.Server, id, wantTrace string) []obsplane.ShippedEvent {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/fleet/jobs/" + id + "/events?follow=false")
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events snapshot: %d %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get(obsplane.TraceHeader); got != wantTrace {
		t.Fatalf("snapshot %s header = %q, want %q", obsplane.TraceHeader, got, wantTrace)
	}
	var out []obsplane.ShippedEvent
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if line == "" {
			continue
		}
		var se obsplane.ShippedEvent
		if err := json.Unmarshal([]byte(line), &se); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		out = append(out, se)
	}
	if len(out) == 0 {
		t.Fatal("empty journal snapshot")
	}
	return out
}

// TestFleetJournalLiveTail pins the tail seam: a subscriber sees events
// shipped after it connected, and the stream terminates at the
// request-complete lifecycle event.
func TestFleetJournalLiveTail(t *testing.T) {
	_, ts := newObsFleetServer(t)
	reqID := submitFleet(t, ts, map[string]any{"gate": "xor", "cases": [][]bool{{true, false}}})
	trace := fleetTrace(t, ts, reqID)

	resp, err := http.Get(ts.URL + "/v1/fleet/jobs/" + reqID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tail: %d", resp.StatusCode)
	}
	lines := make(chan string, 64)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()

	// Ship one live event, then the terminal lifecycle event.
	shipBatch(t, ts, obsplane.ShipRequest{Node: "w1", Events: victimEvents(trace, 1)})
	shipBatch(t, ts, obsplane.ShipRequest{Node: "w1", Events: []obsplane.ShippedEvent{{
		Trace: trace,
		Event: journal.Event{Seq: 2, TimeNS: time.Now().UnixNano(), Name: "fleet.request",
			Fields: map[string]any{"status": "complete"}},
	}}})

	var sawLive, sawTerminal bool
	deadline := time.After(10 * time.Second)
	for !sawTerminal {
		select {
		case line, open := <-lines:
			if !open {
				if !sawTerminal {
					t.Fatal("tail closed before the terminal event")
				}
				break
			}
			if strings.Contains(line, "engine.eval.start") {
				sawLive = true
			}
			if strings.Contains(line, "fleet.request") && strings.Contains(line, "complete") {
				sawTerminal = true
			}
		case <-deadline:
			t.Fatalf("tail timed out (live=%t terminal=%t)", sawLive, sawTerminal)
		}
	}
	if !sawLive {
		t.Fatal("live-shipped event never reached the tail")
	}
	// The terminal event ends the stream.
	select {
	case _, open := <-lines:
		if open {
			// One more buffered line is possible only if it raced the
			// terminal write; the channel must close right after.
			if _, open := <-lines; open {
				t.Fatal("stream kept flowing past the terminal event")
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not close after the terminal event")
	}
}

// TestFleetClaimAnswersTraceHeader: the claim response carries the
// claimed job's trace in X-Spinwave-Trace.
func TestFleetClaimAnswersTraceHeader(t *testing.T) {
	_, ts := newObsFleetServer(t)
	reqID := submitFleet(t, ts, map[string]any{"gate": "xor", "cases": [][]bool{{true, false}}})
	trace := fleetTrace(t, ts, reqID)

	resp, raw := postJSON(t, ts.URL+"/v1/fleet/claim", map[string]any{"worker": "manual"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("claim: %d %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get(obsplane.TraceHeader); got != trace {
		t.Fatalf("claim %s header = %q, want %q", obsplane.TraceHeader, got, trace)
	}
}

// TestFleetJournalUnknownTrace: the snapshot and trace endpoints answer
// the 404 envelope for traces the store has never seen.
func TestFleetJournalUnknownTrace(t *testing.T) {
	_, ts := newObsFleetServer(t)
	for _, path := range []string{
		"/v1/fleet/jobs/t0123456789abcdef/events?follow=false",
		"/v1/fleet/jobs/t0123456789abcdef/trace",
	} {
		resp, raw := getJSON(t, ts.URL+path)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: %d %s", path, resp.StatusCode, raw)
		}
		if e := decodeEnvelope(t, raw); e.Code != codeNotFound {
			t.Fatalf("%s code = %s", path, e.Code)
		}
	}
}

// TestFleetFollowTailOfGoneTrace: a follow tail of a trace retention
// already removed answers the 404 envelope, as the snapshot does — no
// event would ever end it. A running request's trace still follows
// even before any of its events reached the store.
func TestFleetFollowTailOfGoneTrace(t *testing.T) {
	t.Run("removed", func(t *testing.T) {
		srv, ts := newObsFleetServer(t)
		shipBatch(t, ts, obsplane.ShipRequest{Node: "w1", Events: victimEvents("tgone", 1)})
		if _, err := srv.fjournal.Remove("tgone"); err != nil {
			t.Fatal(err)
		}
		client := &http.Client{Timeout: 2 * time.Second}
		resp, err := client.Get(ts.URL + "/v1/fleet/jobs/tgone/events")
		if err != nil {
			t.Fatal(err)
		}
		raw := readAll(t, resp)
		if resp.StatusCode != http.StatusNotFound || decodeEnvelope(t, raw).Code != codeNotFound {
			t.Fatalf("follow tail of a removed trace: %d %s, want 404 %s", resp.StatusCode, raw, codeNotFound)
		}
	})

	t.Run("running request", func(t *testing.T) {
		srv, ts := newObsFleetServer(t)
		srv.heartbeat = 20 * time.Millisecond
		// Without the coordinator mirror the submission's events never
		// reach the store: the trace stays empty while the request runs.
		srv.detachMirror()
		srv.detachMirror = nil
		reqID := submitFleet(t, ts, map[string]any{"gate": "xor", "cases": [][]bool{{true, false}}})
		trace := fleetTrace(t, ts, reqID)

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/fleet/jobs/"+reqID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("follow tail of a running request: status %d, want 200", resp.StatusCode)
		}
		sc := bufio.NewScanner(resp.Body)
		var hb map[string]any
		if !sc.Scan() || json.Unmarshal(sc.Bytes(), &hb) != nil || hb["event"] != "heartbeat" || hb["trace"] != trace {
			t.Fatalf("first line %q, want a heartbeat for %s", sc.Text(), trace)
		}
	})
}
