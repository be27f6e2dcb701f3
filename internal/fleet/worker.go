package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"spinwave/internal/journal"
	"spinwave/internal/obsplane"
)

// Evaluator turns one job's cases into outcomes. cmd/swworker supplies
// one built on the spinwave facade and tiered engine; tests supply
// fakes. The fingerprint is the canonical backend fingerprint shared by
// every case of the job (empty when the backend has none).
type Evaluator interface {
	Evaluate(ctx context.Context, spec JobSpec, cases [][]bool) (fingerprint string, results []CaseOutcome, err error)
}

// EvaluatorFunc adapts a function to the Evaluator interface.
type EvaluatorFunc func(ctx context.Context, spec JobSpec, cases [][]bool) (string, []CaseOutcome, error)

// Evaluate implements Evaluator.
func (f EvaluatorFunc) Evaluate(ctx context.Context, spec JobSpec, cases [][]bool) (string, []CaseOutcome, error) {
	return f(ctx, spec, cases)
}

// Worker is the fleet client loop: register, claim (a long-poll that
// waits at the coordinator until a job is pending), evaluate under a
// heartbeat, post results. It is deliberately tolerant — any
// individual HTTP call may fail (or be dropped/delayed/duplicated by
// the faults harness) and the loop carries on; the queue's leases and
// idempotent ingestion make that safe.
type Worker struct {
	// BaseURL is the coordinator's base URL (e.g. http://127.0.0.1:8080).
	BaseURL string
	// Client is the HTTP client; nil means a default client. The faults
	// harness injects its Transport here.
	Client *http.Client
	// Eval evaluates claimed jobs. Required.
	Eval Evaluator
	// ID is the worker's preferred ID; empty asks the coordinator to
	// assign one. Updated to the assigned ID after registration.
	ID string
	// Poll is the delay before retrying a failed coordinator call
	// (register, an errored claim, the result post); default 500ms. An
	// idle worker does not poll: its claim waits at the coordinator.
	Poll time.Duration
	// CaseDelay stretches each case's evaluation, so tests and the smoke
	// harness can reliably kill a worker mid-job.
	CaseDelay time.Duration
	// Health reports the node's health snapshot attached to heartbeats
	// (engine stats, store tiers); nil omits it.
	Health func() map[string]any
	// OnClaim, when set, observes every claimed job before evaluation —
	// the failure-injection hook used to kill a worker mid-job.
	OnClaim func(*Job)

	heartbeat time.Duration
	jobs      int

	// traceMu guards trace, the claimed job's fleet trace ID: written by
	// serve at each claim, read by post on the main loop AND the
	// heartbeat goroutine (both stamp it as the X-Spinwave-Trace header).
	traceMu sync.Mutex
	trace   string
}

// setTrace records the trace stamped on subsequent HTTP calls.
func (w *Worker) setTrace(t string) {
	w.traceMu.Lock()
	w.trace = t
	w.traceMu.Unlock()
}

// Trace returns the trace of the job the worker currently serves ("" when
// idle) — cmd/swworker forwards it to the journal shipper.
func (w *Worker) Trace() string {
	w.traceMu.Lock()
	defer w.traceMu.Unlock()
	return w.trace
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return http.DefaultClient
}

// post sends one JSON call and decodes the response body into out (when
// out is non-nil and the status is 200). A 204 returns (204, nil).
func (w *Worker) post(ctx context.Context, path string, in, out any) (int, error) {
	buf, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.BaseURL+path, bytes.NewReader(buf))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if t := w.Trace(); t != "" {
		req.Header.Set(obsplane.TraceHeader, t)
	}
	resp, err := w.client().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode == http.StatusNoContent {
		return resp.StatusCode, nil
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("fleet: %s: %s: %s", path, resp.Status, truncate(body, 200))
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			return resp.StatusCode, fmt.Errorf("fleet: %s: decode: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(bytes.TrimSpace(b))
}

// register announces the worker, retrying until ctx ends.
func (w *Worker) register(ctx context.Context) error {
	host, _ := os.Hostname()
	for {
		var resp RegisterResponse
		_, err := w.post(ctx, "/v1/fleet/register", RegisterRequest{
			Worker: w.ID, Host: host, PID: os.Getpid(),
		}, &resp)
		if err == nil {
			w.ID = resp.Worker
			if resp.HeartbeatMS > 0 {
				w.heartbeat = time.Duration(resp.HeartbeatMS) * time.Millisecond
			}
			return nil
		}
		if err := w.retryPause(ctx); err != nil {
			return err
		}
	}
}

// retryPause waits the retry delay after a failed coordinator call; it
// returns ctx.Err() when ctx ends first. Idle workers never reach it:
// their claim waits at the coordinator.
func (w *Worker) retryPause(ctx context.Context) error {
	d := w.Poll
	if d <= 0 {
		d = 500 * time.Millisecond
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d):
		return nil
	}
}

func (w *Worker) heartbeatInterval() time.Duration {
	if w.heartbeat > 0 {
		return w.heartbeat
	}
	return DefaultLease / 3
}

// Run registers the worker and drains the queue until ctx is cancelled.
// It returns ctx.Err() on shutdown, or the registration error when the
// coordinator never became reachable.
func (w *Worker) Run(ctx context.Context) error {
	if w.Eval == nil {
		return fmt.Errorf("fleet: worker needs an Evaluator")
	}
	if err := w.register(ctx); err != nil {
		return err
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var job Job
		status, err := w.post(ctx, "/v1/fleet/claim", ClaimRequest{Worker: w.ID}, &job)
		switch {
		case err != nil:
			if err := w.retryPause(ctx); err != nil {
				return err
			}
		case status == http.StatusOK:
			w.serve(ctx, &job)
		}
		// A 204 means the coordinator's wait passed with nothing
		// pending: claim again at once.
	}
}

// serve evaluates one claimed job under a heartbeat and posts its
// outcome. A stale-claim heartbeat response cancels the evaluation (the
// coordinator requeued the job — a peer owns it now); the result post
// retries a few times because losing a computed result is the one
// failure leases cannot repair.
func (w *Worker) serve(ctx context.Context, job *Job) {
	// The claim's trace becomes the worker's current trace before any
	// other call or hook runs: the heartbeat header, the journal shipper
	// (via OnClaim) and the checkpoint writer (via the context) all stamp
	// the same ID the coordinator minted.
	w.setTrace(job.Trace)
	defer w.setTrace("")
	if w.OnClaim != nil {
		w.OnClaim(job)
	}
	// Journal the claim from the worker's side too. The coordinator's
	// fleet.claim records that the lease was granted; this marker records
	// that the worker actually started serving it — and, shipped on the
	// next flush tick, it is the traced tail a post-mortem finds when the
	// worker is killed before its evaluation emits anything.
	if jd := journal.Default(); jd.Enabled() {
		jd.Emit("", "fleet.worker", corrFields([]journal.Field{
			journal.F("worker", w.ID),
			journal.F("job", job.ID),
			journal.F("status", "serving"),
		}, job.Request, job.Trace)...)
	}
	evalCtx, cancel := context.WithCancel(obsplane.WithTrace(ctx, job.Trace))
	defer cancel()
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		t := time.NewTicker(w.heartbeatInterval())
		defer t.Stop()
		for {
			select {
			case <-evalCtx.Done():
				return
			case <-t.C:
				var health map[string]any
				if w.Health != nil {
					health = w.Health()
				}
				// post reports an error for any non-200, so the conflict is
				// detected on the status code alone.
				status, _ := w.post(evalCtx, "/v1/fleet/heartbeat", HeartbeatRequest{
					Worker: w.ID, Job: job.ID, Health: health,
				}, nil)
				if status == http.StatusConflict {
					cancel() // stale claim: stop computing, a peer owns the job
					return
				}
			}
		}
	}()

	fingerprint, results, evalErr := w.evaluate(evalCtx, job)
	// Staleness must be read before the deferred-style cancel below —
	// cancelling makes evalCtx.Err() non-nil unconditionally.
	stale := evalCtx.Err() != nil && ctx.Err() == nil
	cancel()
	<-hbDone

	if evalErr != nil && stale {
		// The claim went stale mid-evaluation; nothing to report — the
		// job is already requeued and a peer will finish it.
		return
	}
	res := ResultRequest{Worker: w.ID, Job: job.ID, Fingerprint: fingerprint, Results: results}
	if evalErr != nil {
		res.Error = evalErr.Error()
		res.Fingerprint = ""
		res.Results = nil
	}
	for attempt := 0; attempt < 3; attempt++ {
		if _, err := w.post(ctx, "/v1/fleet/results", res, nil); err == nil {
			if evalErr == nil {
				w.jobs++
			}
			return
		}
		if w.retryPause(ctx) != nil {
			return
		}
	}
	if jd := journal.Default(); jd.Enabled() {
		jd.Emit("", "fleet.worker", corrFields([]journal.Field{
			journal.F("worker", w.ID),
			journal.F("job", job.ID),
			journal.F("status", "result_post_failed"),
		}, job.Request, job.Trace)...)
	}
}

// evaluate runs the job's cases through the Evaluator, stretching each
// case by CaseDelay when configured.
func (w *Worker) evaluate(ctx context.Context, job *Job) (string, []CaseOutcome, error) {
	if w.CaseDelay <= 0 {
		return w.Eval.Evaluate(ctx, job.Spec, job.Cases)
	}
	var all []CaseOutcome
	var fp string
	for _, c := range job.Cases {
		select {
		case <-ctx.Done():
			return "", nil, ctx.Err()
		case <-time.After(w.CaseDelay):
		}
		f, out, err := w.Eval.Evaluate(ctx, job.Spec, [][]bool{c})
		if err != nil {
			return "", nil, err
		}
		fp = f
		all = append(all, out...)
	}
	return fp, all, nil
}

// JobsDone reports how many jobs this worker completed successfully
// (result post accepted). Test/diagnostic aid; not synchronized — read
// it only after Run returns.
func (w *Worker) JobsDone() int { return w.jobs }
