package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spinwave"
	"spinwave/internal/fleet"
	"spinwave/internal/fleet/faults"
	"spinwave/internal/journal"
)

// newFleetServer is newTestServer plus a mounted fleet coordinator over
// a temp queue directory.
func newFleetServer(t *testing.T, opts ...fleet.QueueOption) (*server, *httptest.Server) {
	t.Helper()
	srv := newServer(spinwave.NewEngine(spinwave.WithEngineWorkers(4)), 30*time.Second)
	t.Cleanup(srv.close)
	if err := srv.initFleet(t.TempDir(), 4, opts...); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return srv, ts
}

// testEvaluator evaluates fleet jobs through the server's engine with
// the same backend vocabulary as cmd/swworker.
func testEvaluator(eng *spinwave.Engine) fleet.Evaluator {
	return fleet.EvaluatorFunc(func(ctx context.Context, spec fleet.JobSpec, cases [][]bool) (string, []fleet.CaseOutcome, error) {
		var mode spinwave.EvalMode
		switch strings.ToLower(spec.Mode) {
		case "", "direct":
			mode = spinwave.EvalModeDirect
		case "auto":
			mode = spinwave.EvalModeAuto
		case "surrogate":
			mode = spinwave.EvalModeSurrogateOnly
		default:
			return "", nil, fmt.Errorf("unknown mode %q", spec.Mode)
		}
		b, err := buildBackend(backendRequest{
			Gate: spec.Gate, Backend: spec.Backend, Spec: spec.Spec, Material: spec.Material,
		})
		if err != nil {
			return "", nil, err
		}
		res, err := eng.EvalBatch(ctx, b, cases, mode, nil)
		if err != nil {
			return "", nil, err
		}
		out := make([]fleet.CaseOutcome, len(cases))
		var fp string
		for i, r := range res {
			out[i] = fleet.CaseOutcome{Inputs: cases[i], Outputs: r.Readouts, Source: string(r.Source)}
			fp = r.Fingerprint
		}
		return fp, out, nil
	})
}

// startFleetWorker runs an in-process fleet worker against the test
// server until the test ends (or stop is called).
func startFleetWorker(t *testing.T, srv *server, ts *httptest.Server, w *fleet.Worker) (stop func()) {
	t.Helper()
	w.BaseURL = ts.URL
	if w.Eval == nil {
		w.Eval = testEvaluator(srv.eng)
	}
	if w.Poll <= 0 {
		w.Poll = 5 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx) //nolint:errcheck
	}()
	stop = func() { cancel(); <-done }
	t.Cleanup(stop)
	return stop
}

// submitFleet posts a fleet submission and returns the request ID.
func submitFleet(t *testing.T, ts *httptest.Server, body map[string]any) string {
	t.Helper()
	resp, raw := postJSON(t, ts.URL+"/v1/fleet/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
	}
	var st fleetStatusResponse
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" {
		t.Fatalf("submission has no request ID: %s", raw)
	}
	return st.ID
}

// waitFleetComplete polls the request until it completes (fatal on
// failed or timeout) and returns the final status response.
func waitFleetComplete(t *testing.T, ts *httptest.Server, reqID string, timeout time.Duration) fleetStatusResponse {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, raw := getJSON(t, ts.URL+"/v1/fleet/jobs/"+reqID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		var st fleetStatusResponse
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case fleet.RequestComplete:
			return st
		case fleet.RequestFailed:
			t.Fatalf("request failed: %s", raw)
		}
		if time.Now().After(deadline) {
			t.Fatalf("request %s not complete after %v: %s", reqID, timeout, raw)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp, readAll(t, resp)
}

// TestFleetE2ETables is the end-to-end integration test of the issue:
// a coordinator and three in-process workers evaluate the full XOR and
// MAJ3 truth tables over HTTP; the merged, fleet-assembled tables must
// land in the same golden bands as TestPaperTables (Tables I/II).
func TestFleetE2ETables(t *testing.T) {
	srv, ts := newFleetServer(t)
	for i := 0; i < 3; i++ {
		startFleetWorker(t, srv, ts, &fleet.Worker{ID: fmt.Sprintf("e2e-w%d", i)})
	}

	// XOR sharded one case per job, MAJ3 two per job: both fan out
	// across the worker pool.
	xorID := submitFleet(t, ts, map[string]any{"gate": "xor", "table": true, "shard": 1})
	majID := submitFleet(t, ts, map[string]any{"gate": "maj3", "table": true, "shard": 2})

	xorSt := waitFleetComplete(t, ts, xorID, 15*time.Second)
	majSt := waitFleetComplete(t, ts, majID, 15*time.Second)

	if xorSt.Table == nil || majSt.Table == nil {
		t.Fatal("completed table request without a decoded table")
	}
	checkFleetTableII(t, xorSt.Table)
	checkFleetTableI(t, majSt.Table)

	// All three workers registered and are visible.
	resp, raw := postJSON(t, ts.URL+"/v1/fleet/jobs", map[string]any{"gate": "xor", "cases": [][]bool{{true, false}}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("follow-up submit: %d %s", resp.StatusCode, raw)
	}
	wresp, err := http.Get(ts.URL + "/v1/fleet/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	var workers struct {
		Workers  []fleet.WorkerStatus `json:"workers"`
		Snapshot fleet.Snapshot       `json:"snapshot"`
	}
	if err := json.NewDecoder(wresp.Body).Decode(&workers); err != nil {
		t.Fatal(err)
	}
	if len(workers.Workers) != 3 {
		t.Fatalf("workers listed = %d, want 3", len(workers.Workers))
	}
	if workers.Snapshot.DuplicateResults != 0 {
		t.Fatalf("clean e2e run counted %d duplicate results", workers.Snapshot.DuplicateResults)
	}
}

// TestFleetWorkerKilledMidJob is the headline failure injection: a
// worker dies after claiming a job (its result post never arrives), the
// frozen heartbeat lets the lease expire, the job requeues, and a peer
// completes the request — zero case results lost, zero double-applied.
func TestFleetWorkerKilledMidJob(t *testing.T) {
	clock := faults.NewClock(time.Now())
	srv, ts := newFleetServer(t, fleet.WithClock(clock), fleet.WithLease(10*time.Second))

	ring := journal.NewRingSink(256)
	detach := journal.Default().Attach(ring)
	defer detach()

	reqID := submitFleet(t, ts, map[string]any{"gate": "xor", "table": true, "shard": 4})

	// Worker 1 kills itself the moment it claims the job — the claim is
	// registered on the coordinator, but no result (and no further
	// heartbeat) ever arrives, exactly like a SIGKILL mid-evaluation.
	// OnClaim cancels the worker's own run context (it must not wait for
	// Run to return — OnClaim is called from inside it).
	w1ctx, w1cancel := context.WithCancel(context.Background())
	w1 := &fleet.Worker{
		ID: "victim", BaseURL: ts.URL, Poll: 5 * time.Millisecond,
		Eval:    testEvaluator(srv.eng),
		OnClaim: func(*fleet.Job) { w1cancel() },
	}
	w1done := make(chan struct{})
	go func() { defer close(w1done); w1.Run(w1ctx) }() //nolint:errcheck
	t.Cleanup(func() { w1cancel(); <-w1done })

	waitFor(t, 5*time.Second, func() bool {
		return srv.fleet.Queue().Stats().Claimed == 1
	}, "worker 1 never claimed the job")

	// The clock is frozen, so nothing expires until we say so: the job
	// stays claimed by the dead worker.
	if requeued := srv.fleet.Queue().Sweep(); len(requeued) != 0 {
		t.Fatalf("lease expired early: %v", requeued)
	}
	clock.Advance(11 * time.Second)
	requeued := srv.fleet.Queue().Sweep()
	if len(requeued) != 1 {
		t.Fatalf("Sweep requeued %v, want exactly the killed worker's job", requeued)
	}

	// The peer picks it up and completes the request.
	startFleetWorker(t, srv, ts, &fleet.Worker{ID: "peer"})
	st := waitFleetComplete(t, ts, reqID, 15*time.Second)

	if st.CasesDone != st.CasesTotal || len(st.Results) != st.CasesTotal {
		t.Fatalf("cases lost: %d/%d done, %d results", st.CasesDone, st.CasesTotal, len(st.Results))
	}
	if len(st.Jobs) != 1 || st.Jobs[0].Attempts != 2 || st.Jobs[0].Worker != "peer" {
		t.Fatalf("job after requeue = %+v", st.Jobs)
	}
	if st.Table == nil {
		t.Fatal("no decoded table after peer completion")
	}
	checkFleetTableII(t, st.Table)
	if dup := srv.fleet.Snapshot().DuplicateResults; dup != 0 {
		t.Fatalf("%d case results double-applied", dup)
	}

	// The recovery is journaled: a fleet.claim for each attempt and a
	// fleet.requeue for the expiry.
	var claims, requeues int
	for _, e := range ring.Events() {
		switch e.Name {
		case "fleet.claim":
			claims++
		case "fleet.requeue":
			requeues++
			if e.Fields["worker"] != "victim" || e.Fields["reason"] != "lease_expired" {
				t.Fatalf("requeue event fields = %+v", e.Fields)
			}
		}
	}
	if claims != 2 || requeues != 1 {
		t.Fatalf("journal saw %d claims and %d requeues, want 2 and 1", claims, requeues)
	}
}

// TestFleetDuplicateResultPost proves idempotent ingestion at the HTTP
// surface: the same result posted twice applies once.
func TestFleetDuplicateResultPost(t *testing.T) {
	srv, ts := newFleetServer(t)
	reqID := submitFleet(t, ts, map[string]any{"gate": "xor", "table": true, "shard": 4})

	// Claim and evaluate by hand.
	resp, raw := postJSON(t, ts.URL+"/v1/fleet/register", map[string]any{"worker": "manual"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, raw)
	}
	resp, raw = postJSON(t, ts.URL+"/v1/fleet/claim", map[string]any{"worker": "manual"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("claim: %d %s", resp.StatusCode, raw)
	}
	var job fleet.Job
	if err := json.Unmarshal(raw, &job); err != nil {
		t.Fatal(err)
	}
	fp, results, err := testEvaluator(srv.eng).Evaluate(context.Background(), job.Spec, job.Cases)
	if err != nil {
		t.Fatal(err)
	}
	post := fleet.ResultRequest{Worker: "manual", Job: job.ID, Fingerprint: fp, Results: results}

	var first, second fleet.ResultResponse
	resp, raw = postJSON(t, ts.URL+"/v1/fleet/results", post)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first post: %d %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &first); err != nil {
		t.Fatal(err)
	}
	resp, raw = postJSON(t, ts.URL+"/v1/fleet/results", post)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate post: %d %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &second); err != nil {
		t.Fatal(err)
	}
	if !first.Applied || second.Applied {
		t.Fatalf("applied flags = %v, %v; want true, false", first.Applied, second.Applied)
	}
	if second.Status != fleet.JobDone {
		t.Fatalf("status after duplicate = %s", second.Status)
	}

	st := waitFleetComplete(t, ts, reqID, 5*time.Second)
	if len(st.Results) != st.CasesTotal {
		t.Fatalf("duplicate produced %d results for %d cases", len(st.Results), st.CasesTotal)
	}
	if dup := srv.fleet.Snapshot().DuplicateResults; dup == 0 {
		t.Fatal("duplicate post not counted")
	}
}

// TestFleetDroppedResultResponseDeduped injects the retry-storm fault:
// the transport delivers the worker's first result post but drops the
// response, so the worker retries — and the retry must be deduplicated,
// not double-applied.
func TestFleetDroppedResultResponseDeduped(t *testing.T) {
	srv, ts := newFleetServer(t)
	tr := &faults.Transport{}
	rule := tr.Add(&faults.Rule{PathContains: "/v1/fleet/results", Count: 1, Drop: true})
	startFleetWorker(t, srv, ts, &fleet.Worker{
		ID:     "flaky-net",
		Client: &http.Client{Transport: tr},
	})

	reqID := submitFleet(t, ts, map[string]any{"gate": "xor", "table": true, "shard": 4})
	st := waitFleetComplete(t, ts, reqID, 15*time.Second)

	if rule.Fired() != 1 {
		t.Fatalf("drop rule fired %d times, want 1", rule.Fired())
	}
	if len(st.Results) != st.CasesTotal {
		t.Fatalf("%d results for %d cases", len(st.Results), st.CasesTotal)
	}
	// The request completes on the first (dropped-response) post; the
	// worker's retry lands after that, so wait for it to be counted.
	deadline := time.Now().Add(10 * time.Second)
	for srv.fleet.Snapshot().DuplicateResults == 0 {
		if time.Now().After(deadline) {
			t.Fatal("retried post after a dropped response was not counted as a duplicate")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Table == nil {
		t.Fatal("no decoded table")
	}
	checkFleetTableII(t, st.Table)
}

// TestFleetEnvelopeAndValidation pins the error surface: unknown
// request IDs answer the 404 envelope, bad submissions the 400 family,
// and a foreign heartbeat the stale-claim 409.
func TestFleetEnvelopeAndValidation(t *testing.T) {
	_, ts := newFleetServer(t)

	resp, err := http.Get(ts.URL + "/v1/fleet/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown request: %d %s", resp.StatusCode, raw)
	}
	if e := decodeEnvelope(t, raw); e.Code != codeNotFound {
		t.Fatalf("code = %s, want %s", e.Code, codeNotFound)
	}

	resp2, raw2 := postJSON(t, ts.URL+"/v1/fleet/jobs", map[string]any{"gate": "frob", "table": true})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad gate: %d %s", resp2.StatusCode, raw2)
	}
	if e := decodeEnvelope(t, raw2); e.Code != codeUnknownGate {
		t.Fatalf("code = %s, want %s", e.Code, codeUnknownGate)
	}

	resp2, raw2 = postJSON(t, ts.URL+"/v1/fleet/jobs", map[string]any{"gate": "xor"})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty submission: %d %s", resp2.StatusCode, raw2)
	}

	// The backend is validated at submission too, not by a worker later.
	resp2, raw2 = postJSON(t, ts.URL+"/v1/fleet/jobs", map[string]any{"gate": "xor", "backend": "analog", "table": true})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown backend: %d %s", resp2.StatusCode, raw2)
	}

	// A heartbeat for a job the worker does not hold answers 409.
	reqID := submitFleet(t, ts, map[string]any{"gate": "xor", "cases": [][]bool{{true, false}}})
	_ = reqID
	resp2, raw2 = postJSON(t, ts.URL+"/v1/fleet/claim", map[string]any{"worker": "a"})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("claim: %d %s", resp2.StatusCode, raw2)
	}
	var job fleet.Job
	if err := json.Unmarshal(raw2, &job); err != nil {
		t.Fatal(err)
	}
	resp2, raw2 = postJSON(t, ts.URL+"/v1/fleet/heartbeat", map[string]any{"worker": "b", "job": job.ID})
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("foreign heartbeat: %d %s", resp2.StatusCode, raw2)
	}
	if e := decodeEnvelope(t, raw2); e.Code != codeStaleClaim {
		t.Fatalf("code = %s, want %s", e.Code, codeStaleClaim)
	}
}

// TestFleetHealthAndSLOSurface verifies the fleet sections appear in
// deep healthz and /v1/slo when the coordinator is mounted.
func TestFleetHealthAndSLOSurface(t *testing.T) {
	_, ts := newFleetServer(t)
	submitFleet(t, ts, map[string]any{"gate": "xor", "cases": [][]bool{{true, false}}})

	resp, err := http.Get(ts.URL + "/v1/healthz?deep=1")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	fleetSec, ok := health["fleet"].(map[string]any)
	if !ok {
		t.Fatalf("deep healthz has no fleet section: %v", health)
	}
	if _, ok := fleetSec["queue"]; !ok {
		t.Fatalf("fleet health section missing queue stats: %v", fleetSec)
	}

	resp, err = http.Get(ts.URL + "/v1/slo")
	if err != nil {
		t.Fatal(err)
	}
	var slo struct {
		Fleet *fleet.Snapshot `json:"fleet"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&slo); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if slo.Fleet == nil || slo.Fleet.Queue.Pending != 1 {
		t.Fatalf("slo fleet snapshot = %+v", slo.Fleet)
	}
}

// waitFor polls cond until true or the timeout fails the test.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf []byte
	b := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(b)
		buf = append(buf, b[:n]...)
		if err != nil {
			return buf
		}
	}
}

// checkFleetTableI mirrors the TestPaperTables Table I golden bands
// (golden_test.go) for the fleet-assembled majority table.
func checkFleetTableI(t *testing.T, tt *spinwave.TruthTable) {
	t.Helper()
	if len(tt.Cases) != 8 {
		t.Fatalf("Table I has %d cases, want 8", len(tt.Cases))
	}
	if !tt.AllCorrect() {
		t.Error("fleet Table I decodes incorrectly")
	}
	if m := tt.FanOutMatched(); m > 0.01 {
		t.Errorf("fan-out mismatch |O1-O2| = %.4f, want <= 0.01", m)
	}
	refPhase := tt.Cases[0].Outputs[0].Phase
	for _, c := range tt.Cases {
		ones := 0
		for _, in := range c.Inputs {
			if in {
				ones++
			}
		}
		unanimous := ones == 0 || ones == len(c.Inputs)
		wantLogic := ones*2 > len(c.Inputs)
		for _, o := range c.Outputs {
			if unanimous {
				if d := math.Abs(o.Normalized - 1); d > 0.1 {
					t.Errorf("case %v %s: unanimous row normalized %.3f, want 1±0.1", c.Inputs, o.Name, o.Normalized)
				}
			} else if o.Normalized < 0.02 || o.Normalized > 0.5 {
				t.Errorf("case %v %s: mixed row normalized %.3f, want [0.02, 0.5]", c.Inputs, o.Name, o.Normalized)
			}
			want := refPhase
			if wantLogic {
				want += math.Pi
			}
			if d := math.Abs(wrapTestPhase(o.Phase - want)); d > 0.2 {
				t.Errorf("case %v %s: phase %.3f rad is %.3f from the expected boundary", c.Inputs, o.Name, o.Phase, d)
			}
			if o.Logic != wantLogic {
				t.Errorf("case %v %s: decoded %v, want %v", c.Inputs, o.Name, o.Logic, wantLogic)
			}
		}
	}
}

// checkFleetTableII mirrors the TestPaperTables Table II golden bands
// for the fleet-assembled XOR table.
func checkFleetTableII(t *testing.T, tt *spinwave.TruthTable) {
	t.Helper()
	if len(tt.Cases) != 4 {
		t.Fatalf("Table II has %d cases, want 4", len(tt.Cases))
	}
	if !tt.AllCorrect() {
		t.Error("fleet Table II decodes incorrectly")
	}
	if m := tt.FanOutMatched(); m > 0.01 {
		t.Errorf("fan-out mismatch |O1-O2| = %.4f, want <= 0.01", m)
	}
	for _, c := range tt.Cases {
		destructive := c.Inputs[0] != c.Inputs[1]
		for _, o := range c.Outputs {
			if destructive {
				if o.Normalized > 0.1 {
					t.Errorf("case %v %s: destructive row normalized %.3f, want <= 0.1", c.Inputs, o.Name, o.Normalized)
				}
			} else if d := math.Abs(o.Normalized - 1); d > 0.1 {
				t.Errorf("case %v %s: constructive row normalized %.3f, want 1±0.1", c.Inputs, o.Name, o.Normalized)
			}
			if o.Logic != destructive {
				t.Errorf("case %v %s: decoded %v, want %v", c.Inputs, o.Name, o.Logic, destructive)
			}
		}
	}
}

// wrapTestPhase maps an angle to (-π, π].
func wrapTestPhase(p float64) float64 {
	for p > math.Pi {
		p -= 2 * math.Pi
	}
	for p <= -math.Pi {
		p += 2 * math.Pi
	}
	return p
}
