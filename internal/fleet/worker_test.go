package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"spinwave/internal/fleet/faults"
)

// coordMux mounts the fleet wire protocol over a Coordinator the way
// swserve does, minus the serving-layer middleware — enough for the
// Worker loop to run against in-package.
func coordMux(c *Coordinator) *http.ServeMux {
	decode := func(r *http.Request, into any) error {
		return json.NewDecoder(r.Body).Decode(into)
	}
	reply := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(v) //nolint:errcheck
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/fleet/register", func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if err := decode(r, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		id, err := c.Register(req.Worker, req.Host, req.PID)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		lease := c.Queue().Lease()
		reply(w, RegisterResponse{
			Worker: id, LeaseMS: lease.Milliseconds(), HeartbeatMS: lease.Milliseconds() / 3,
		})
	})
	mux.HandleFunc("POST /v1/fleet/claim", func(w http.ResponseWriter, r *http.Request) {
		var req ClaimRequest
		if err := decode(r, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		job, err := c.Claim(r.Context(), req.Worker)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if job == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		reply(w, job)
	})
	mux.HandleFunc("POST /v1/fleet/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if err := decode(r, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		switch err := c.Heartbeat(req.Worker, req.Job, req.Health); {
		case errors.Is(err, ErrStaleClaim):
			http.Error(w, err.Error(), http.StatusConflict)
		case err != nil:
			http.Error(w, err.Error(), http.StatusNotFound)
		default:
			reply(w, map[string]bool{"ok": true})
		}
	})
	mux.HandleFunc("POST /v1/fleet/results", func(w http.ResponseWriter, r *http.Request) {
		var req ResultRequest
		if err := decode(r, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		applied, err := c.IngestResult(req.Worker, req.Job, req.Fingerprint, req.Results, req.Error)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		status := JobStatus("")
		if j, ok := c.Queue().Get(req.Job); ok {
			status = j.Status
		}
		reply(w, ResultResponse{Applied: applied, Status: status})
	})
	return mux
}

// coordServer serves h until the test ends. Its Close is a cleanup,
// so it runs after runWorker's stop: Close waits for open requests, and
// an idle worker always holds a claim open at the coordinator.
func coordServer(t *testing.T, h http.Handler) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

// echoEvaluator fabricates per-case outcomes like a real backend would.
func echoEvaluator(fp string) Evaluator {
	return EvaluatorFunc(func(ctx context.Context, spec JobSpec, cases [][]bool) (string, []CaseOutcome, error) {
		if err := ctx.Err(); err != nil {
			return "", nil, err
		}
		return fp, testOutcomes(cases), nil
	})
}

// runWorker runs w until the returned stop is called (or the test
// ends); stop waits for Run to return, so fields like JobsDone are
// safe to read afterwards.
func runWorker(t *testing.T, w *Worker) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }() //nolint:errcheck
	stop = func() { cancel(); <-done }
	t.Cleanup(stop)
	return stop
}

func TestWorkerDrainsQueue(t *testing.T) {
	t.Parallel()
	c := newTestCoordinator(t)
	ts := coordServer(t, coordMux(c))

	st, err := c.Submit(JobSpec{Gate: "xor", Table: true}, xorCases(), 2)
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{BaseURL: ts.URL, Eval: echoEvaluator("fp-a"), Poll: 2 * time.Millisecond}
	stop := runWorker(t, w)

	deadline := time.Now().Add(5 * time.Second)
	for {
		cur, err := c.Status(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == RequestComplete {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("request stuck in %s", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	// The coordinator assigned the worker an ID and the loop counted its
	// completed jobs.
	if w.ID == "" {
		t.Error("worker never adopted an assigned ID")
	}
	// Cancellation can race the final post's response delivery (the
	// server completed the request but the client never saw the 200), so
	// the counter is only guaranteed to reach 1 of the 2 jobs.
	if w.JobsDone() < 1 {
		t.Errorf("JobsDone = %d, want >= 1", w.JobsDone())
	}
}

func TestWorkerRegisterRetries(t *testing.T) {
	t.Parallel()
	c := newTestCoordinator(t)
	mux := coordMux(c)
	var calls atomic.Int64
	ts := coordServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// First registration attempt fails; the worker must retry.
		if r.URL.Path == "/v1/fleet/register" && calls.Add(1) == 1 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		mux.ServeHTTP(w, r)
	}))

	st, err := c.Submit(JobSpec{Gate: "xor"}, xorCases(), 4)
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{BaseURL: ts.URL, Eval: echoEvaluator("fp-r"), Poll: 2 * time.Millisecond}
	runWorker(t, w)

	deadline := time.Now().Add(5 * time.Second)
	for {
		if cur, _ := c.Status(st.ID); cur != nil && cur.State == RequestComplete {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("request never completed after a failed registration")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if calls.Load() < 2 {
		t.Fatalf("register called %d times, want a retry", calls.Load())
	}
}

func TestWorkerStaleHeartbeatCancelsEvaluation(t *testing.T) {
	t.Parallel()
	clock := faults.NewClock(time.Now())
	c := newTestCoordinator(t, WithClock(clock), WithLease(10*time.Second))
	mux := coordMux(c)
	// Advertise a fast heartbeat so the 409 arrives promptly: rewrite the
	// register response instead of waiting the real lease/3.
	ts := coordServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/fleet/register" {
			var req RegisterRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			id, err := c.Register(req.Worker, req.Host, req.PID)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(RegisterResponse{ //nolint:errcheck
				Worker: id, LeaseMS: 10_000, HeartbeatMS: 20,
			})
			return
		}
		mux.ServeHTTP(w, r)
	}))

	if _, err := c.Submit(JobSpec{Gate: "xor"}, xorCases(), 4); err != nil {
		t.Fatal(err)
	}

	// The evaluator blocks until its context dies — the only way out is
	// the heartbeat loop noticing the stale claim.
	evalStarted := make(chan struct{})
	evalCancelled := make(chan struct{})
	w := &Worker{
		BaseURL: ts.URL, Poll: 2 * time.Millisecond,
		Eval: EvaluatorFunc(func(ctx context.Context, spec JobSpec, cases [][]bool) (string, []CaseOutcome, error) {
			close(evalStarted)
			<-ctx.Done()
			close(evalCancelled)
			return "", nil, ctx.Err()
		}),
	}
	runWorker(t, w)

	<-evalStarted
	// Expire the lease and hand the job to a peer: the worker's next
	// heartbeat answers 409 and must abort the evaluation.
	clock.Advance(11 * time.Second)
	if got := c.Queue().Sweep(); len(got) != 1 {
		t.Fatalf("Sweep = %v, want one requeued job", got)
	}
	if _, err := c.Register("peer", "", 0); err != nil {
		t.Fatal(err)
	}
	job, err := c.Claim(context.Background(), "peer")
	if err != nil || job == nil {
		t.Fatalf("peer claim: %v, %v", job, err)
	}

	select {
	case <-evalCancelled:
	case <-time.After(10 * time.Second):
		t.Fatal("stale heartbeat never cancelled the evaluation")
	}
	// The stale worker reported nothing: the job still belongs to the peer.
	got, ok := c.Queue().Get(job.ID)
	if !ok {
		t.Fatalf("job %s vanished", job.ID)
	}
	if got.Worker != "peer" || got.Status != JobClaimed {
		t.Fatalf("job after stale cancel = %s/%s, want claimed/peer", got.Status, got.Worker)
	}
}

func TestWorkerRetriesDroppedResultPost(t *testing.T) {
	t.Parallel()
	c := newTestCoordinator(t)
	ts := coordServer(t, coordMux(c))

	st, err := c.Submit(JobSpec{Gate: "xor"}, xorCases(), 4)
	if err != nil {
		t.Fatal(err)
	}
	tr := &faults.Transport{Under: http.DefaultTransport}
	rule := tr.Add(&faults.Rule{PathContains: "/v1/fleet/results", Count: 1, Drop: true})
	w := &Worker{
		BaseURL: ts.URL, Eval: echoEvaluator("fp-d"),
		Poll: 2 * time.Millisecond, Client: &http.Client{Transport: tr},
	}
	runWorker(t, w)

	deadline := time.Now().Add(5 * time.Second)
	for {
		if cur, _ := c.Status(st.ID); cur != nil && cur.State == RequestComplete {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("request never completed despite result retries")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rule.Fired() != 1 {
		t.Fatalf("drop rule fired %d times, want 1", rule.Fired())
	}
	// The drop loses the response after the server applied the post, so
	// the retry is a duplicate the ingestion layer must absorb. The
	// retry happens a poll interval after completion — wait for it.
	for c.Snapshot().DuplicateResults == 0 {
		if time.Now().After(deadline) {
			t.Fatal("retried result post was not deduplicated")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestWorkerReportsEvalFailure(t *testing.T) {
	t.Parallel()
	c := newTestCoordinator(t, WithMaxAttempts(1))
	ts := coordServer(t, coordMux(c))

	st, err := c.Submit(JobSpec{Gate: "xor"}, xorCases(), 4)
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{
		BaseURL: ts.URL, Poll: 2 * time.Millisecond,
		Eval: EvaluatorFunc(func(ctx context.Context, spec JobSpec, cases [][]bool) (string, []CaseOutcome, error) {
			return "", nil, errors.New("solver diverged")
		}),
	}
	stop := runWorker(t, w)

	deadline := time.Now().Add(5 * time.Second)
	for {
		cur, err := c.Status(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == RequestFailed {
			if cur.Jobs[0].Error == "" {
				t.Fatalf("failed job carries no error: %+v", cur.Jobs[0])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("request stuck in %s, want failed", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	if w.JobsDone() != 0 {
		t.Errorf("JobsDone = %d after an eval failure, want 0", w.JobsDone())
	}
}

func TestWorkerCaseDelayHonoursCancellation(t *testing.T) {
	w := &Worker{CaseDelay: time.Hour, Eval: echoEvaluator("fp")}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	job := &Job{Spec: JobSpec{Gate: "xor"}, Cases: xorCases()}
	if _, _, err := w.evaluate(ctx, job); !errors.Is(err, context.Canceled) {
		t.Fatalf("evaluate under a dead context = %v, want context.Canceled", err)
	}
}

func TestWorkerRunRequiresEvaluator(t *testing.T) {
	w := &Worker{BaseURL: "http://127.0.0.1:0"}
	if err := w.Run(context.Background()); err == nil {
		t.Fatal("Run without an Evaluator did not error")
	}
}
