package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spinwave"
	"spinwave/internal/journal"
	"spinwave/internal/obsplane"
	"spinwave/internal/probe"
	"spinwave/internal/vec"
)

// TestRunEventsTail drives the NDJSON tail end to end: an eval's run ID
// comes back in the response, tailing it replays the journaled
// lifecycle in strictly increasing sequence order, and the stream
// terminates by itself after the run's terminal event — the eval
// completion for a recompute, the tier event for a case the cache
// answered or its complement partner's run derived, in a batch or alone
// (a lone 11 runs 00 under its own run ID). A run whose events
// all left the replay ring answers 404: no event would ever end its
// tail.
func TestRunEventsTail(t *testing.T) {
	for _, tc := range []struct {
		name      string
		evals     int    // identical /v1/eval requests; the last one is tailed
		pair      bool   // one micromag batch of 00 and 11; the derived 11 is tailed
		lone      bool   // one micromag eval of 11 alone, derived from a run of 00
		source    string // the tailed result's source; "" skips the check
		evicted   bool   // a full ring of later events overwrites the run's
		wantStart bool   // the tail must carry engine.eval.start
		last      string // the final event
		result    string // the final event's result field; "" skips the check
		minLines  int
	}{
		{name: "recompute", evals: 1, wantStart: true, last: "engine.eval.done", minLines: 2},
		{name: "cache hit", evals: 2, source: "cache", last: "engine.cache", result: "hit", minLines: 1},
		{name: "complement", evals: 1, pair: true, source: "micromag", last: "engine.tier", result: "hit", minLines: 1},
		{name: "lone derived", evals: 1, lone: true, source: "micromag", wantStart: true, last: "engine.tier", result: "hit", minLines: 3},
		{name: "evicted from the ring", evals: 1, evicted: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t)
			var er evalResponse
			req := map[string]any{"gate": "xor", "inputs": []bool{true, true}}
			switch {
			case tc.pair:
				req = map[string]any{"gate": "xor", "backend": "micromag", "cases": [][]bool{{false, false}, {true, true}}}
			case tc.lone:
				req = map[string]any{"gate": "xor", "backend": "micromag", "inputs": []bool{true, true}}
			}
			for i := 0; i < tc.evals; i++ {
				resp, body := postJSON(t, ts.URL+"/v1/eval", req)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("eval status %d: %s", resp.StatusCode, body)
				}
				er = evalResponse{}
				if err := json.Unmarshal(body, &er); err != nil {
					t.Fatal(err)
				}
				if len(er.Results) == 0 || er.Results[len(er.Results)-1].Run == "" {
					t.Fatalf("eval response missing run ID: %s", body)
				}
			}
			tailed := er.Results[len(er.Results)-1]
			if tc.source != "" && tailed.Source != tc.source {
				t.Fatalf("tailed result source %q, want %q", tailed.Source, tc.source)
			}
			runID := tailed.Run
			if tc.evicted {
				for i := 0; i < eventRing; i++ {
					journal.Default().Emit("rfiller", "test.filler")
				}
			}

			tr, err := http.Get(ts.URL + "/v1/runs/" + runID + "/events")
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Body.Close()
			if tc.evicted {
				if tr.StatusCode != http.StatusNotFound {
					t.Fatalf("tail of an evicted run: status %d, want 404", tr.StatusCode)
				}
				if e := decodeEnvelope(t, readAll(t, tr)); e.Code != codeNotFound {
					t.Fatalf("tail of an evicted run: code %q, want %s", e.Code, codeNotFound)
				}
				return
			}
			if tr.StatusCode != http.StatusOK {
				t.Fatalf("tail status %d", tr.StatusCode)
			}
			if ct := tr.Header.Get("Content-Type"); ct != "application/x-ndjson" {
				t.Errorf("tail content-type %q", ct)
			}
			// The run is complete, so the replay must terminate the stream on
			// its own (no cancel needed) — read to EOF with a deadline guard.
			type line struct {
				Seq    uint64 `json:"seq"`
				Run    string `json:"run"`
				Event  string `json:"event"`
				Fields struct {
					Result string `json:"result"`
				} `json:"fields"`
			}
			var lines []line
			done := make(chan error, 1)
			go func() {
				sc := bufio.NewScanner(tr.Body)
				for sc.Scan() {
					var l line
					if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
						done <- err
						return
					}
					lines = append(lines, l)
				}
				done <- sc.Err()
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("tail did not terminate after run completion")
			}
			if len(lines) < tc.minLines {
				t.Fatalf("tail delivered %d events, want at least %d", len(lines), tc.minLines)
			}
			var last uint64
			for _, l := range lines {
				if l.Seq <= last {
					t.Fatalf("sequence not strictly increasing: %d after %d", l.Seq, last)
				}
				last = l.Seq
				if l.Run != runID {
					t.Errorf("event %q for run %q leaked into tail of %q", l.Event, l.Run, runID)
				}
			}
			var sawStart bool
			for _, l := range lines {
				if l.Event == "engine.eval.start" {
					sawStart = true
				}
			}
			if tc.wantStart && !sawStart {
				t.Error("tail missing engine.eval.start")
			}
			final := lines[len(lines)-1]
			if final.Event != tc.last {
				t.Errorf("last event %q, want %s", final.Event, tc.last)
			}
			if tc.result != "" && final.Fields.Result != tc.result {
				t.Errorf("last event result %q, want %s", final.Fields.Result, tc.result)
			}
		})
	}
}

// blockingOrbit is an XOR backend whose orbits are complement pairs
// and whose runs block until release closes, failing with err if set.
type blockingOrbit struct {
	release chan struct{}
	runs    atomic.Int64
	err     error
}

func (b *blockingOrbit) Name() string                { return "blocking" }
func (b *blockingOrbit) Kind() spinwave.GateKind     { return spinwave.XOR }
func (b *blockingOrbit) Fingerprint() (string, bool) { return "blocking-orbit", true }
func (b *blockingOrbit) HalfDomain(in []bool) bool   { return false }
func (b *blockingOrbit) Orbit(in []bool) [][]bool    { return [][]bool{in, {!in[0], !in[1]}} }
func (b *blockingOrbit) Run(in []bool) (map[string]spinwave.Readout, error) {
	outs, err := b.RunOrbit(context.Background(), in)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

func (b *blockingOrbit) RunOrbit(ctx context.Context, in []bool) ([]map[string]spinwave.Readout, error) {
	b.runs.Add(1)
	<-b.release
	if b.err != nil {
		return nil, b.err
	}
	r := spinwave.Readout{Amplitude: 1}
	n := spinwave.Readout{Amplitude: 1, Phase: math.Pi}
	return []map[string]spinwave.Readout{{"O1": r, "O2": r}, {"O1": n, "O2": n}}, nil
}

// TestRunEventsTailOfCoalescedCase tails a run that joined another
// run's recompute to answer a derived case: run B asks for 10 while run
// A's run of 01 is in flight. B's tail must stay open through the wait,
// deliver the coalesced event and then 10's complement hit, and end
// there. When the shared run fails, B's tail ends at the coalesced
// event, which carries the error status.
func TestRunEventsTailOfCoalescedCase(t *testing.T) {
	for _, tc := range []struct {
		name   string
		err    error
		last   string
		status string
	}{
		{name: "derived", last: "engine.tier", status: "ok"},
		{name: "shared run fails", err: errors.New("solver blew up"), last: "engine.cache", status: "error"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, ts := newTestServer(t)
			b := &blockingOrbit{release: make(chan struct{}), err: tc.err}
			ctx := context.Background()
			runA, runB := journal.NewRunID(), journal.NewRunID()
			errA, errB := make(chan error, 1), make(chan error, 1)
			go func() {
				_, err := srv.eng.EvalBatch(ctx, b, [][]bool{{false, true}}, spinwave.EvalModeDirect, []string{runA})
				errA <- err
			}()
			waitFor(t, 5*time.Second, func() bool { return b.runs.Load() == 1 }, "run A never started")
			go func() {
				_, err := srv.eng.EvalBatch(ctx, b, [][]bool{{true, false}}, spinwave.EvalModeDirect, []string{runB})
				errB <- err
			}()
			waitFor(t, 5*time.Second, func() bool { return srv.eng.Stats().Deduped == 1 }, "run B never joined run A")

			tr, err := http.Get(ts.URL + "/v1/runs/" + runB + "/events")
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Body.Close()
			if tr.StatusCode != http.StatusOK {
				t.Fatalf("tail status %d", tr.StatusCode)
			}
			close(b.release)
			if err := <-errA; (err == nil) != (tc.err == nil) {
				t.Fatalf("run A: %v", err)
			}
			if err := <-errB; (err == nil) != (tc.err == nil) {
				t.Fatalf("run B: %v", err)
			}

			type line struct {
				Event  string         `json:"event"`
				Fields map[string]any `json:"fields"`
			}
			var lines []line
			done := make(chan error, 1)
			go func() {
				sc := bufio.NewScanner(tr.Body)
				for sc.Scan() {
					var l line
					if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
						done <- err
						return
					}
					if l.Event != "heartbeat" {
						lines = append(lines, l)
					}
				}
				done <- sc.Err()
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("tail did not end after the shared run")
			}
			var coalesced *line
			for i := range lines {
				if lines[i].Event == "engine.cache" && lines[i].Fields["result"] == "coalesced" {
					coalesced = &lines[i]
				}
			}
			if coalesced == nil || coalesced.Fields["status"] != tc.status {
				t.Fatalf("tail %+v: want a coalesced event with status %s", lines, tc.status)
			}
			final := lines[len(lines)-1]
			if final.Event != tc.last {
				t.Fatalf("tail %+v ends at %s, want %s", lines, final.Event, tc.last)
			}
			if tc.err == nil && (final.Fields["tier"] != "complement" || final.Fields["partner_run"] != runA) {
				t.Fatalf("final event %+v, want the complement hit partnered with run A", final)
			}
		})
	}
}

// tailEndpoints are the two NDJSON tails, one stream loop behind
// both: each tails an ID that seedTail gives one non-terminal event and
// names it in its heartbeat and drain lines under its own field.
var tailEndpoints = []struct {
	name, path, field, id string
}{
	{"run", "/v1/runs/ridle/events", "run", "ridle"},
	{"fleet", "/v1/fleet/jobs/tidle/events", "trace", "tidle"},
}

// seedTail gives the endpoint's ID one non-terminal event, so its tail
// stays open: an ID with no events answers 404.
func seedTail(t *testing.T, ts *httptest.Server, name, id string) {
	t.Helper()
	if name == "fleet" {
		shipBatch(t, ts, obsplane.ShipRequest{Node: "w1", Events: victimEvents(id, 1)})
		return
	}
	journal.Default().Emit(id, "test.started")
}

// TestRunEventsHeartbeat tails an ID with one non-terminal event on
// both endpoints: after the replayed event the stream must carry
// periodic heartbeat lines and shut down when the client goes away.
func TestRunEventsHeartbeat(t *testing.T) {
	for _, ep := range tailEndpoints {
		t.Run(ep.name, func(t *testing.T) {
			srv, ts := newObsFleetServer(t)
			srv.heartbeat = 20 * time.Millisecond
			seedTail(t, ts, ep.name, ep.id)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+ep.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			// The replayed seed comes first, then the heartbeats.
			sc := bufio.NewScanner(resp.Body)
			var hb map[string]any
			for hb["event"] != "heartbeat" {
				if !sc.Scan() {
					t.Fatalf("no heartbeat before stream end: %v", sc.Err())
				}
				hb = nil
				if err := json.Unmarshal(sc.Bytes(), &hb); err != nil {
					t.Fatalf("line is not JSON: %q", sc.Text())
				}
			}
			if ns, _ := hb["time_ns"].(float64); hb["event"] != "heartbeat" || ns == 0 || hb[ep.field] != ep.id {
				t.Errorf("unexpected heartbeat %v", hb)
			}
			cancel()
			// After cancel the server side must unwind; draining the body ends.
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
		})
	}
}

// TestTailsBurnNoLatencyBudget: a live tail held open past the latency
// threshold is scored for availability only, on both tail endpoints —
// it streams for as long as its run lasts, which is not slow service.
func TestTailsBurnNoLatencyBudget(t *testing.T) {
	routes := map[string]string{"run": "/v1/runs/events", "fleet": "/v1/fleet/jobs/events"}
	for _, ep := range tailEndpoints {
		t.Run(ep.name, func(t *testing.T) {
			srv, ts := newObsFleetServer(t)
			srv.slo = newSLOTracker(0, 0, 50*time.Millisecond)
			seedTail(t, ts, ep.name, ep.id)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+ep.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("tail status %d, want 200", resp.StatusCode)
			}
			time.Sleep(200 * time.Millisecond) // four thresholds
			cancel()
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()

			route := routes[ep.name]
			waitFor(t, 2*time.Second, func() bool { return srv.slo.endpoint(route).Requests == 1 },
				"the closed tail was never scored")
			if e := srv.slo.endpoint(route); e.Slow != 0 || e.SlowBurnRate != 0 {
				t.Fatalf("tail SLO = %+v, want no latency burn", e)
			}
		})
	}
}

// TestRunProbesEndpoint publishes a hand-fed recorder and fetches it
// back as JSON and CSV.
func TestRunProbesEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	rec, err := probe.NewRecorder(probe.Config{Enabled: true, Stride: 1, EnergyEvery: -1, Capacity: 16},
		nil, []probe.Point{{Name: "out", Cells: []int{0}}})
	if err != nil {
		t.Fatal(err)
	}
	m := vec.Field{vec.UnitZ}
	for step := 0; step < 5; step++ {
		m[0].X = 0.1 * float64(step)
		rec.ObserveStep(step, float64(step)*1e-12, m)
	}
	runID := spinwave.NewRunID()
	probe.Default().Put(runID, rec)

	// /v1/runs lists it.
	resp, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), runID) {
		t.Fatalf("/v1/runs status %d body %s (want %s listed)", resp.StatusCode, body, runID)
	}

	// JSON snapshot.
	resp, err = http.Get(ts.URL + "/v1/runs/" + runID + "/probes")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probes status %d: %s", resp.StatusCode, body)
	}
	var snap spinwave.ProbeSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("probes body is not a snapshot: %v", err)
	}
	if snap.Run != runID || len(snap.Series) != 1 || len(snap.Series[0].Time) != 5 {
		t.Errorf("snapshot run=%q series=%d", snap.Run, len(snap.Series))
	}

	// CSV export.
	resp, err = http.Get(ts.URL + "/v1/runs/" + runID + "/probes?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv" {
		t.Errorf("csv content-type %q", ct)
	}
	rows := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(rows) != 6 || !strings.HasPrefix(rows[0], "t,out.mx") {
		t.Errorf("csv rows=%d header=%q", len(rows), rows[0])
	}

	// Unknown run → 404.
	resp, err = http.Get(ts.URL + "/v1/runs/rnope/probes")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown run status %d, want 404", resp.StatusCode)
	}
}
