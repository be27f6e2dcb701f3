package fleet

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spinwave/internal/journal"
	"spinwave/internal/obsplane"
)

// Coordinator shards evaluation requests into queued jobs, tracks the
// worker pool, and merges ingested results back into per-request
// answers. It is a thin, restartable layer over the durable Queue: on
// construction it rebuilds every request (including merged results of
// already-done jobs) from the job files alone, so losing the coordinator
// process never loses fleet state. Safe for concurrent use.
type Coordinator struct {
	q     *Queue
	clock Clock

	// OnComplete, when set, is invoked (outside the coordinator's lock,
	// on the ingesting goroutine) each time a request completes — the
	// hook the run-history catalog indexes fleet requests through. Set
	// it before the coordinator serves traffic.
	OnComplete func(CompletedRequest)

	mu       sync.Mutex
	requests map[string]*request
	workers  map[string]*workerState

	dupResults atomic.Int64
}

// CompletedRequest summarizes one fleet request at the moment its last
// case result is ingested — the payload of the OnComplete hook.
type CompletedRequest struct {
	// ID is the request ID.
	ID string
	// Trace is the request's fleet trace ID.
	Trace string
	// Run is the transient run ID (empty for plain requests).
	Run string
	// Gate is the evaluated logic gate.
	Gate string
	// Backend is the solver the spec requested.
	Backend string
	// Fingerprint is the backend fingerprint results were keyed under.
	Fingerprint string
	// Cases is the number of merged case results.
	Cases int
	// SubmittedNS and CompletedNS bound the request's wall-clock life.
	SubmittedNS, CompletedNS int64
	// Tier is the result-store tier that answered every case, or
	// "mixed" when cases came from different tiers.
	Tier string
}

// request is the in-memory aggregation of one submitted request.
type request struct {
	id          string
	spec        JobSpec
	cases       [][]bool
	jobIDs      []string
	submittedNS int64
	// merged holds accepted case outcomes keyed by
	// fingerprint + "/" + bitString(inputs) — the idempotency key of
	// result ingestion. A batch repeating a case shares one slot, and
	// requeue-race duplicates land on an existing key and are dropped.
	merged      map[string]CaseOutcome
	fingerprint string
	completedAt int64 // Unix ns of the ingest that completed the request
	// run is the durable transient run ID (empty for plain requests):
	// the key under which the segments' checkpoints live in the
	// artifact store.
	run string
	// trace is the fleet trace ID minted at submission and stamped on
	// every job, journal event and checkpoint of this request.
	trace string
}

// workerState tracks one registered worker.
type workerState struct {
	id         string
	host       string
	pid        int
	registered time.Time
	lastSeen   time.Time
	done       int64
	failed     int64
	health     map[string]any
	// gaugesDropped marks that the node's federated engine gauges were
	// aged out of /metrics after the worker went lost; a fresh health
	// heartbeat clears it (and re-exports the gauges).
	gaugesDropped bool
}

// RequestState is the aggregate lifecycle state of a fleet request.
type RequestState string

// Request lifecycle states.
const (
	// RequestPending means no case has a result yet.
	RequestPending RequestState = "pending"
	// RequestRunning means some, not all, cases have results.
	RequestRunning RequestState = "running"
	// RequestComplete means every case has exactly one merged result.
	RequestComplete RequestState = "complete"
	// RequestFailed means a job exhausted its attempts; the request
	// cannot complete.
	RequestFailed RequestState = "failed"
)

// JobStatusBrief is one job's state inside a RequestStatus.
type JobStatusBrief struct {
	ID       string    `json:"id"`
	Status   JobStatus `json:"status"`
	Worker   string    `json:"worker,omitempty"`
	Attempts int       `json:"attempts"`
	Cases    int       `json:"cases"`
	Error    string    `json:"error,omitempty"`
}

// RequestStatus is the externally visible state of one request.
type RequestStatus struct {
	ID          string           `json:"request_id"`
	State       RequestState     `json:"state"`
	Spec        JobSpec          `json:"spec"`
	CasesTotal  int              `json:"cases_total"`
	CasesDone   int              `json:"cases_done"`
	Jobs        []JobStatusBrief `json:"jobs"`
	Fingerprint string           `json:"fingerprint,omitempty"`
	// Run is the transient run ID whose artifacts (checkpoints, probe
	// traces) live under /v1/runs/{id}/artifacts; empty for plain
	// requests.
	Run string `json:"run,omitempty"`
	// Trace is the fleet trace ID correlating this request's journal
	// events across nodes; key into /v1/fleet/jobs/{trace}/events.
	Trace string `json:"trace,omitempty"`
	// Results holds one outcome per submitted case, in submission order,
	// populated only when State is complete.
	Results []CaseOutcome `json:"results,omitempty"`
}

// WorkerStatus is the externally visible state of one worker.
type WorkerStatus struct {
	ID         string `json:"id"`
	Host       string `json:"host,omitempty"`
	PID        int    `json:"pid,omitempty"`
	State      string `json:"state"` // active, idle, lost
	LastSeenMS int64  `json:"last_seen_ms"`
	ActiveJobs int    `json:"active_jobs"`
	Done       int64  `json:"done"`
	Failed     int64  `json:"failed"`
	// Health is the worker's self-reported node health (engine stats,
	// store tiers), forwarded verbatim from its last heartbeat.
	Health map[string]any `json:"health,omitempty"`
}

// NodeStat is one node's line in the federated fleet snapshot: the
// per-node liveness and throughput counters surfaced by /v1/slo and
// deep healthz (the aggregate sibling of the spinwave_fleet_node_*
// Prometheus gauges).
type NodeStat struct {
	ID         string `json:"id"`
	State      string `json:"state"` // active, idle, lost
	LastSeenMS int64  `json:"last_seen_ms"`
	Done       int64  `json:"done"`
	Failed     int64  `json:"failed"`
}

// Snapshot is the fleet state surfaced to deep healthz and /v1/slo.
type Snapshot struct {
	Queue            QueueStats `json:"queue"`
	Workers          int        `json:"workers"`
	WorkersLost      int        `json:"workers_lost"`
	Requests         int        `json:"requests"`
	RequestsComplete int        `json:"requests_complete"`
	DuplicateResults int64      `json:"duplicate_results"`
	// Nodes lists every registered worker's liveness line, sorted by ID.
	Nodes []NodeStat `json:"nodes,omitempty"`
}

// NewCoordinator builds a coordinator over the queue, rebuilding request
// state from the queue's job files (grouped by their request field).
func NewCoordinator(q *Queue) *Coordinator {
	c := &Coordinator{
		q:        q,
		clock:    q.clock,
		requests: make(map[string]*request),
		workers:  make(map[string]*workerState),
	}
	for _, j := range q.Jobs() {
		if j.Request == "" {
			continue
		}
		r := c.requests[j.Request]
		if r == nil {
			r = &request{id: j.Request, spec: j.Spec, merged: make(map[string]CaseOutcome),
				submittedNS: j.SubmittedNS}
			c.requests[j.Request] = r
		}
		r.jobIDs = append(r.jobIDs, j.ID)
		if r.trace == "" && j.Trace != "" {
			r.trace = j.Trace // recovered from the durable job files
		}
		if ts := j.Spec.Transient; ts != nil {
			r.run = ts.Run
			// Every segment job repeats the transient's one case; count it
			// once, at segment 0, or CasesTotal would inflate per segment.
			if ts.Segment == 0 {
				r.cases = append(r.cases, j.Cases...)
			}
		} else {
			r.cases = append(r.cases, j.Cases...)
		}
		if j.Status == JobDone {
			r.fingerprint = j.Fingerprint
			for _, out := range j.Results {
				if len(out.Outputs) == 0 {
					continue // checkpoint partial: no readouts to merge
				}
				r.merged[resultKey(j.Fingerprint, out.Inputs)] = out
			}
		}
	}
	// A crash between an intermediate segment's completion and the next
	// segment's submission would otherwise strand the transient: re-chain
	// any done, non-final segment whose successor never made it to disk.
	c.rechainTransients()
	return c
}

// rechainTransients scans for transients whose newest segment job is
// done but not final and submits the missing successor. Called once at
// rebuild, before the coordinator serves traffic.
func (c *Coordinator) rechainTransients() {
	type tail struct {
		job     *Job
		present map[int]bool
	}
	tails := make(map[string]*tail)
	for _, j := range c.q.Jobs() {
		ts := j.Spec.Transient
		if ts == nil || j.Request == "" {
			continue
		}
		t := tails[j.Request]
		if t == nil {
			t = &tail{present: make(map[int]bool)}
			tails[j.Request] = t
		}
		t.present[ts.Segment] = true
		if t.job == nil || ts.Segment > t.job.Spec.Transient.Segment {
			t.job = j
		}
	}
	for _, t := range tails {
		ts := t.job.Spec.Transient
		if t.job.Status == JobDone && ts.Segment < ts.Segments-1 && !t.present[ts.Segment+1] {
			c.chainSegment(t.job)
		}
	}
}

// chainSegment submits the segment after done job j under the same
// request. Must be called without c.mu held (q.Submit takes q.mu; the
// lock order everywhere is c.mu outside q.mu, never nested).
func (c *Coordinator) chainSegment(j *Job) {
	ts := *j.Spec.Transient
	ts.Segment++
	spec := j.Spec
	spec.Transient = &ts
	next := &Job{
		ID:      fmt.Sprintf("%s-s%02d", j.Request, ts.Segment),
		Request: j.Request,
		Trace:   j.Trace, // the chained segment stays on the parent's trace
		Spec:    spec,
		Cases:   j.Cases,
	}
	if err := c.q.Submit(next); err != nil {
		if jd := journal.Default(); jd.Enabled() {
			jd.Emit("", "fleet.request", corrFields([]journal.Field{
				journal.F("status", "chain_failed"),
				journal.F("segment", ts.Segment),
				journal.F("error", err.Error()),
			}, j.Request, j.Trace)...)
		}
		return
	}
	c.mu.Lock()
	if r := c.requests[j.Request]; r != nil {
		r.jobIDs = append(r.jobIDs, next.ID)
	}
	c.mu.Unlock()
	if jd := journal.Default(); jd.Enabled() {
		jd.Emit("", "fleet.request", corrFields([]journal.Field{
			journal.F("status", "segment_chained"),
			journal.F("run", ts.Run),
			journal.F("job", next.ID),
			journal.F("segment", ts.Segment),
			journal.F("segments", ts.Segments),
		}, j.Request, j.Trace)...)
	}
}

// SubmitTransient queues a long checkpointed transient: one case split
// into segments chained jobs, each bounded by a checkpoint boundary.
// Only the first segment is queued here; each completed segment's
// ingest chains the next, and the final segment's readouts complete the
// request. The returned status carries the minted run ID under which
// workers publish checkpoints to the artifact store.
func (c *Coordinator) SubmitTransient(spec JobSpec, inputs []bool, segments, everySteps int) (*RequestStatus, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("fleet: transient needs an input case")
	}
	if segments < 1 {
		segments = 1
	}
	reqID := "q" + randomHex(8)
	runID := "r" + randomHex(8)
	trace := obsplane.NewTraceID()
	spec.Transient = &TransientSpec{Run: runID, Segment: 0, Segments: segments, EverySteps: everySteps}
	job := &Job{
		ID:      fmt.Sprintf("%s-s00", reqID),
		Request: reqID,
		Trace:   trace,
		Spec:    spec,
		Cases:   [][]bool{inputs},
	}
	if err := c.q.Submit(job); err != nil {
		return nil, err
	}
	r := &request{id: reqID, spec: spec, run: runID, trace: trace,
		cases:  [][]bool{inputs},
		jobIDs: []string{job.ID}, merged: make(map[string]CaseOutcome),
		submittedNS: c.clock.Now().UnixNano()}
	c.mu.Lock()
	c.requests[reqID] = r
	c.mu.Unlock()
	mRequests.Inc()
	if jd := journal.Default(); jd.Enabled() {
		jd.Emit("", "fleet.request", corrFields([]journal.Field{
			journal.F("status", "submitted"),
			journal.F("gate", spec.Gate),
			journal.F("run", runID),
			journal.F("segments", segments),
		}, reqID, trace)...)
	}
	return c.Status(reqID)
}

// Queue returns the coordinator's underlying durable queue.
func (c *Coordinator) Queue() *Queue { return c.q }

// resultKey is the idempotency key of one case result.
func resultKey(fingerprint string, inputs []bool) string {
	return fingerprint + "/" + bitString(inputs)
}

// Submit shards the cases into jobs of at most shard cases each (shard
// < 1 selects one job per request) and queues them under a fresh
// request ID.
func (c *Coordinator) Submit(spec JobSpec, cases [][]bool, shard int) (*RequestStatus, error) {
	if len(cases) == 0 {
		return nil, fmt.Errorf("fleet: request needs at least one case")
	}
	if shard < 1 || shard > len(cases) {
		shard = len(cases)
	}
	reqID := "q" + randomHex(8)
	trace := obsplane.NewTraceID()
	r := &request{id: reqID, spec: spec, cases: cases, trace: trace,
		merged: make(map[string]CaseOutcome), submittedNS: c.clock.Now().UnixNano()}
	var jobs []*Job
	for i := 0; i < len(cases); i += shard {
		end := i + shard
		if end > len(cases) {
			end = len(cases)
		}
		jobs = append(jobs, &Job{
			ID:      fmt.Sprintf("%s-%03d", reqID, len(jobs)),
			Request: reqID,
			Trace:   trace,
			Spec:    spec,
			Cases:   cases[i:end],
		})
	}
	for _, j := range jobs {
		if err := c.q.Submit(j); err != nil {
			return nil, err
		}
		r.jobIDs = append(r.jobIDs, j.ID)
	}
	c.mu.Lock()
	c.requests[reqID] = r
	c.mu.Unlock()
	mRequests.Inc()
	if jd := journal.Default(); jd.Enabled() {
		jd.Emit("", "fleet.request", corrFields([]journal.Field{
			journal.F("status", "submitted"),
			journal.F("gate", spec.Gate),
			journal.F("cases", len(cases)),
			journal.F("jobs", len(jobs)),
		}, reqID, trace)...)
	}
	return c.Status(reqID)
}

// Status reports the aggregate state of a request. The error is
// ErrNoSuchJob-wrapped for unknown IDs.
func (c *Coordinator) Status(reqID string) (*RequestStatus, error) {
	c.mu.Lock()
	r, ok := c.requests[reqID]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: request %s", ErrNoSuchJob, reqID)
	}
	st := &RequestStatus{ID: r.id, Spec: r.spec, Trace: r.trace}
	anyFailed := false
	for _, jid := range r.jobIDs {
		j, ok := c.q.Get(jid)
		if !ok {
			continue
		}
		st.Jobs = append(st.Jobs, JobStatusBrief{ID: j.ID, Status: j.Status,
			Worker: j.Worker, Attempts: j.Attempts, Cases: len(j.Cases), Error: j.Error})
		if j.Status == JobFailed {
			anyFailed = true
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st.CasesTotal = len(r.cases)
	st.Fingerprint = r.fingerprint
	st.Run = r.run
	done := 0
	for _, in := range r.cases {
		if _, ok := r.merged[resultKey(r.fingerprint, in)]; ok {
			done++
		}
	}
	st.CasesDone = done
	switch {
	case anyFailed:
		st.State = RequestFailed
	case done == len(r.cases):
		st.State = RequestComplete
		st.Results = make([]CaseOutcome, len(r.cases))
		for i, in := range r.cases {
			st.Results[i] = r.merged[resultKey(r.fingerprint, in)]
		}
	case done == 0:
		st.State = RequestPending
	default:
		st.State = RequestRunning
	}
	return st, nil
}

// Requests lists every tracked request ID, newest first.
func (c *Coordinator) Requests() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]string, 0, len(c.requests))
	for id := range c.requests {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		return c.requests[ids[a]].submittedNS > c.requests[ids[b]].submittedNS
	})
	return ids
}

// Register adds (or refreshes) a worker, assigning an ID when the
// worker did not bring one.
func (c *Coordinator) Register(workerID, host string, pid int) (string, error) {
	if workerID == "" {
		workerID = "w" + randomHex(6)
	}
	if !validID(workerID) {
		return "", fmt.Errorf("fleet: worker id %q: want 1-64 chars of [a-zA-Z0-9._-]", workerID)
	}
	now := c.clock.Now()
	c.mu.Lock()
	w := c.workers[workerID]
	if w == nil {
		w = &workerState{id: workerID, registered: now}
		c.workers[workerID] = w
		mWorkersSeen.Inc()
	}
	w.host = host
	w.pid = pid
	w.lastSeen = now
	c.mu.Unlock()
	if jd := journal.Default(); jd.Enabled() {
		jd.Emit("", "fleet.worker",
			journal.F("worker", workerID),
			journal.F("status", "registered"),
			journal.F("host", host))
	}
	return workerID, nil
}

// Claim hands the worker the oldest pending job, waiting at most
// claimWait for one to become pending (submitted, chained or requeued).
// It returns (nil, nil) when the wait passes empty or ctx ends; once ctx
// has ended it leases nothing, so a caller that went away mid-wait
// never holds a job. Every attempt refreshes the worker's liveness.
// swserve's POST /v1/fleet/claim is a thin wrapper over it.
func (c *Coordinator) Claim(ctx context.Context, workerID string) (*Job, error) {
	bound := time.NewTimer(c.claimWait())
	defer bound.Stop()
	for ctx.Err() == nil {
		c.touch(workerID, nil)
		job, wake, err := c.q.Claim(workerID)
		if job != nil || err != nil {
			return job, err
		}
		select {
		case <-wake:
		case <-ctx.Done():
		case <-bound.C:
			return nil, nil
		}
	}
	return nil, nil
}

// claimWait bounds one claim's wait: a tenth of the lease (3 s at the
// default), so an idle worker refreshes its liveness well inside
// lostAfter.
func (c *Coordinator) claimWait() time.Duration { return c.q.Lease() / 10 }

// Heartbeat extends the worker's lease on a job and records the
// worker's self-reported health snapshot.
func (c *Coordinator) Heartbeat(workerID, jobID string, health map[string]any) error {
	c.touch(workerID, health)
	return c.q.Heartbeat(jobID, workerID)
}

// IngestResult applies one job's outcome. An evalErr fails the job
// (requeue or terminal); otherwise the results are completed on the
// queue and merged into the parent request under (fingerprint, inputs)
// keys. Duplicate posts report applied=false and are counted, never
// double-applied.
func (c *Coordinator) IngestResult(workerID, jobID, fingerprint string, results []CaseOutcome, evalErr string) (applied bool, err error) {
	c.touch(workerID, nil)
	if evalErr != "" {
		c.mu.Lock()
		if w := c.workers[workerID]; w != nil {
			w.failed++
		}
		c.mu.Unlock()
		return false, c.q.Fail(jobID, workerID, evalErr)
	}
	applied, err = c.q.Complete(jobID, workerID, fingerprint, results)
	if err != nil {
		return false, err
	}
	if !applied {
		c.dupResults.Add(1)
		return false, nil
	}
	c.mu.Lock()
	if w := c.workers[workerID]; w != nil {
		w.done++
	}
	j, _ := c.q.Get(jobID)
	var completedReq, completedTrace string
	var completedCases int
	var completed CompletedRequest
	if j != nil && j.Request != "" {
		if r := c.requests[j.Request]; r != nil {
			r.fingerprint = fingerprint
			for _, out := range results {
				if len(out.Outputs) == 0 {
					// Checkpoint partial from an intermediate transient
					// segment: there are no readouts yet, only a durable
					// snapshot the chained segment resumes from.
					continue
				}
				key := resultKey(fingerprint, out.Inputs)
				if _, dup := r.merged[key]; dup {
					c.dupResults.Add(1)
					mResultsDuplicate.Inc()
					continue
				}
				r.merged[key] = out
			}
			done := 0
			for _, in := range r.cases {
				if _, ok := r.merged[resultKey(r.fingerprint, in)]; ok {
					done++
				}
			}
			if done == len(r.cases) && r.completedAt == 0 {
				r.completedAt = c.clock.Now().UnixNano()
				completedReq = r.id
				completedCases = len(r.cases)
				completedTrace = r.trace
				completed = CompletedRequest{
					ID: r.id, Trace: r.trace, Run: r.run,
					Gate: r.spec.Gate, Backend: r.spec.Backend,
					Fingerprint: r.fingerprint,
					Cases:       len(r.cases),
					SubmittedNS: r.submittedNS, CompletedNS: r.completedAt,
					Tier: mergedTier(r.merged),
				}
			}
		}
	}
	c.mu.Unlock()
	// Chain the next transient segment after releasing c.mu — q.Submit
	// takes q.mu, and the lock order is never nested. The chain runs at
	// most once per segment: Complete is idempotent, so a duplicate post
	// reports applied=false and never reaches here.
	if j != nil && j.Spec.Transient != nil && j.Spec.Transient.Segment < j.Spec.Transient.Segments-1 {
		c.chainSegment(j)
	}
	if completedReq != "" {
		mRequestsComplete.Inc()
		if jd := journal.Default(); jd.Enabled() {
			jd.Emit("", "fleet.request", corrFields([]journal.Field{
				journal.F("status", "complete"),
				journal.F("cases", completedCases),
			}, completedReq, completedTrace)...)
		}
		if c.OnComplete != nil {
			c.OnComplete(completed)
		}
	}
	return true, nil
}

// mergedTier collapses per-case result tiers into one label: the shared
// tier when every case agrees, "mixed" otherwise.
func mergedTier(merged map[string]CaseOutcome) string {
	tier := ""
	for _, out := range merged {
		switch {
		case out.Source == "":
			continue
		case tier == "":
			tier = out.Source
		case tier != out.Source:
			return "mixed"
		}
	}
	return tier
}

// ActiveTraces returns the trace IDs of requests that have not yet
// completed. The retention sweeper treats them as protected: deleting
// an in-flight request's journal would sever its post-mortem before it
// even finished. (A failed request never completes and stays protected
// — its telemetry is exactly the post-mortem worth keeping — until the
// operator clears the queue.)
func (c *Coordinator) ActiveTraces() map[string]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]bool)
	for _, r := range c.requests {
		if r.completedAt == 0 && r.trace != "" {
			out[r.trace] = true
		}
	}
	return out
}

// touch refreshes a worker's liveness (and health snapshot, when given).
// A health snapshot also feeds the federated spinwave_fleet_node_*
// gauges, so every worker heartbeat refreshes the coordinator's
// /metrics view of that node's engine.
func (c *Coordinator) touch(workerID string, health map[string]any) {
	now := c.clock.Now()
	c.mu.Lock()
	if w := c.workers[workerID]; w != nil {
		w.lastSeen = now
		if health != nil {
			w.health = health
			w.gaugesDropped = false // back from the dead: re-export below
		}
	}
	c.mu.Unlock()
	if health != nil {
		recordNodeHealth(workerID, health)
	}
}

// lostAfter is how stale a worker's lastSeen may be before it is
// reported lost: long enough to ride out one missed heartbeat, short
// enough that a SIGKILLed worker shows up quickly.
func (c *Coordinator) lostAfter() time.Duration { return 3 * c.q.Lease() }

// Workers reports every registered worker, sorted by ID.
func (c *Coordinator) Workers() []WorkerStatus {
	now := c.clock.Now()
	active := make(map[string]int)
	for _, j := range c.q.Jobs() {
		if j.Status == JobClaimed {
			active[j.Worker]++
		}
	}
	c.mu.Lock()
	out := make([]WorkerStatus, 0, len(c.workers))
	var aged []string
	for _, w := range c.workers {
		ws := WorkerStatus{
			ID: w.id, Host: w.host, PID: w.pid,
			LastSeenMS: now.Sub(w.lastSeen).Milliseconds(),
			ActiveJobs: active[w.id],
			Done:       w.done, Failed: w.failed,
			Health: w.health,
		}
		switch {
		case now.Sub(w.lastSeen) > c.lostAfter():
			ws.State = "lost"
			if !w.gaugesDropped {
				w.gaugesDropped = true
				aged = append(aged, w.id)
			}
		case ws.ActiveJobs > 0:
			ws.State = "active"
		default:
			ws.State = "idle"
		}
		out = append(out, ws)
	}
	c.mu.Unlock()
	// Age the lost nodes' federated gauges out of /metrics after the
	// lock is released (the registry and journal are never touched under
	// c.mu). A node that heartbeats again re-exports on touch.
	for _, id := range aged {
		n := dropNodeGauges(id)
		if jd := journal.Default(); jd.Enabled() {
			jd.Emit("", "fleet.worker",
				journal.F("worker", id),
				journal.F("status", "lost"),
				journal.F("gauges_dropped", n))
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Snapshot summarizes fleet state for deep healthz and /v1/slo.
func (c *Coordinator) Snapshot() Snapshot {
	s := Snapshot{Queue: c.q.Stats(), DuplicateResults: c.dupResults.Load()}
	for _, w := range c.Workers() {
		s.Workers++
		if w.State == "lost" {
			s.WorkersLost++
		}
		s.Nodes = append(s.Nodes, NodeStat{ID: w.ID, State: w.State,
			LastSeenMS: w.LastSeenMS, Done: w.Done, Failed: w.Failed})
	}
	c.mu.Lock()
	s.Requests = len(c.requests)
	for _, r := range c.requests {
		if r.completedAt != 0 {
			s.RequestsComplete++
		}
	}
	c.mu.Unlock()
	return s
}

// Run sweeps expired leases periodically until ctx is cancelled — the
// background recovery loop swserve starts alongside the HTTP surface.
// A requeue it makes wakes waiting claims. (Claims also sweep lazily,
// so tests driving a fake clock need no ticker.)
func (c *Coordinator) Run(ctx context.Context, every time.Duration) {
	if every <= 0 {
		every = c.q.Lease() / 4
	}
	if every <= 0 {
		every = time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.q.Sweep()
			// Recomputing worker states here ages lost nodes' federated
			// gauges out of /metrics even when no worker calls in.
			c.Workers()
		}
	}
}
