package fleet

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"spinwave/internal/durable"
	"spinwave/internal/journal"
)

// Clock abstracts time for the queue and coordinator so the
// failure-injection harness (internal/fleet/faults) can freeze
// heartbeats and expire leases deterministically.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
}

// realClock is the production clock.
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// Sentinel errors of the queue lifecycle. Match with errors.Is.
var (
	// ErrNoSuchJob reports an operation on a job ID the queue does not hold.
	ErrNoSuchJob = errors.New("fleet: no such job")
	// ErrStaleClaim reports a heartbeat for a job the worker no longer
	// holds (lease expired and the job was requeued or reclaimed). The
	// worker should stop evaluating; its eventual result post is still
	// accepted idempotently.
	ErrStaleClaim = errors.New("fleet: stale claim")
)

// DefaultLease is the claim lease granted to a worker per job; the
// worker heartbeats at a fraction of it.
const DefaultLease = 30 * time.Second

// QueueStats counts the queue's jobs by lifecycle state.
type QueueStats struct {
	Pending     int   `json:"pending"`
	Claimed     int   `json:"claimed"`
	Done        int   `json:"done"`
	Failed      int   `json:"failed"`
	Quarantined int   `json:"quarantined"`
	Requeues    int64 `json:"requeues"`
}

// Queue is the durable job queue: one JSON file per job in a directory,
// every state transition persisted by durable.AtomicWrite, so a crash at
// any point leaves either the old or the new state on disk — never a
// torn file a restart would trust. Corrupt or conflicting files found at
// Open are quarantined (durable.Quarantine: renamed aside and reported
// with a journal alert), so one bad hand-written file can never
// crash-loop the coordinator.
// A Queue is safe for concurrent use.
type Queue struct {
	dir         string
	clock       Clock
	lease       time.Duration
	maxAttempts int

	mu          sync.Mutex
	jobs        map[string]*Job
	quarantined int
	requeues    int64
	// pending is closed, and replaced, each time a job becomes pending
	// (submitted or requeued): the wake-up of claims waiting in
	// Coordinator.Claim.
	pending chan struct{}
}

// QueueOption configures OpenQueue.
type QueueOption func(*Queue)

// WithClock injects the time source (default: the real clock).
func WithClock(c Clock) QueueOption { return func(q *Queue) { q.clock = c } }

// WithLease sets the claim lease duration (default DefaultLease).
func WithLease(d time.Duration) QueueOption { return func(q *Queue) { q.lease = d } }

// WithMaxAttempts sets the default attempt bound applied to submitted
// jobs that do not carry their own (default DefaultMaxAttempts).
func WithMaxAttempts(n int) QueueOption { return func(q *Queue) { q.maxAttempts = n } }

// OpenQueue opens (creating if needed) the queue directory and loads
// every job file in it. Files that fail to parse, collide on ID, or are
// not valid jobs are quarantined, counted, and alerted — never fatal.
func OpenQueue(dir string, opts ...QueueOption) (*Queue, error) {
	if dir == "" {
		return nil, fmt.Errorf("fleet: queue needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: queue: %w", err)
	}
	q := &Queue{
		dir:         dir,
		clock:       realClock{},
		lease:       DefaultLease,
		maxAttempts: DefaultMaxAttempts,
		jobs:        make(map[string]*Job),
		pending:     make(chan struct{}),
	}
	for _, f := range opts {
		f(q)
	}
	if q.lease <= 0 {
		q.lease = DefaultLease
	}
	if q.maxAttempts < 1 {
		q.maxAttempts = DefaultMaxAttempts
	}
	initMetrics()
	if err := q.scan(); err != nil {
		return nil, err
	}
	return q, nil
}

// Dir returns the queue's root directory.
func (q *Queue) Dir() string { return q.dir }

// Lease returns the claim lease duration granted per job.
func (q *Queue) Lease() time.Duration { return q.lease }

// wakeLocked wakes every waiting claim: a job just became pending.
// Called with q.mu held.
func (q *Queue) wakeLocked() {
	close(q.pending)
	q.pending = make(chan struct{})
}

// scan loads every *.json job file, quarantining defective ones.
func (q *Queue) scan() error {
	entries, err := os.ReadDir(q.dir)
	if err != nil {
		return fmt.Errorf("fleet: queue scan: %w", err)
	}
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || strings.HasPrefix(name, ".") || !strings.HasSuffix(name, ".json") {
			continue
		}
		path := filepath.Join(q.dir, name)
		buf, err := os.ReadFile(path)
		if err != nil {
			q.quarantine(path, nil, fmt.Errorf("unreadable: %w", err))
			continue
		}
		j, err := ParseJobFile(buf)
		if err != nil {
			q.quarantine(path, partialJob(buf), err)
			continue
		}
		// A hand-written file may omit the ID; the file-name stem is it.
		stem := strings.TrimSuffix(name, ".json")
		if j.ID == "" {
			if !validID(stem) {
				q.quarantine(path, j, fmt.Errorf("no id and file name %q is not a valid id", stem))
				continue
			}
			j.ID = stem
		}
		if _, exists := q.jobs[j.ID]; exists {
			q.quarantine(path, j, fmt.Errorf("duplicate job id %q", j.ID))
			continue
		}
		if j.SubmittedNS == 0 {
			j.SubmittedNS = q.clock.Now().UnixNano()
		}
		// Persist under the canonical name so later transitions rewrite
		// one well-known file (hand-written files may be named anything).
		if path != q.fileFor(j.ID) {
			if err := q.persist(j); err != nil {
				return err
			}
			os.Remove(path)
		}
		q.jobs[j.ID] = j
	}
	return nil
}

// corrFields appends the correlation keys every fleet journal event
// must carry when known: the parent request ID and the fleet trace ID
// (the post-mortem joins in OPERATIONS.md grep on both).
func corrFields(fields []journal.Field, request, trace string) []journal.Field {
	if request != "" {
		fields = append(fields, journal.F("request", request))
	}
	if trace != "" {
		fields = append(fields, journal.F("trace", trace))
	}
	return fields
}

// quarantine sets a defective queue file aside with a fleet.quarantine
// alert; the queue keeps serving. The renamed file keeps its content
// for post-mortems and is ignored by every future scan. When the file
// parsed far enough to name its job, j carries it so the alert stays
// joinable to the parent request and trace; nil when unparseable.
func (q *Queue) quarantine(path string, j *Job, cause error) {
	var fields []journal.Field
	if j != nil {
		if j.ID != "" {
			fields = append(fields, journal.F("job", j.ID))
		}
		fields = corrFields(fields, j.Request, j.Trace)
	}
	durable.Quarantine(path, "fleet.quarantine", cause, fields...)
	q.quarantined++
	mQuarantined.Inc()
}

// partialJob leniently recovers the correlation identity (id, request,
// trace) from a file the strict parser rejected, so the quarantine
// alert still names the request it orphaned. Nil when even that fails.
func partialJob(buf []byte) *Job {
	var p struct {
		ID      string `json:"id"`
		Request string `json:"request"`
		Trace   string `json:"trace"`
	}
	if json.Unmarshal(buf, &p) != nil {
		return nil
	}
	j := &Job{ID: p.ID, Request: p.Request, Trace: p.Trace}
	if !validID(j.ID) {
		j.ID = ""
	}
	if !validID(j.Request) {
		j.Request = ""
	}
	if !validID(j.Trace) {
		j.Trace = ""
	}
	return j
}

// fileFor maps a job ID to its canonical queue file path.
func (q *Queue) fileFor(id string) string {
	return filepath.Join(q.dir, id+".json")
}

// persist writes the job file atomically.
func (q *Queue) persist(j *Job) error {
	buf, err := json.Marshal(j)
	if err != nil {
		return fmt.Errorf("fleet: queue marshal %s: %w", j.ID, err)
	}
	if err := durable.WriteFile(q.fileFor(j.ID), buf); err != nil {
		return fmt.Errorf("fleet: queue persist %s: %w", j.ID, err)
	}
	return nil
}

// Submit validates, persists, and indexes a new job. A missing ID is
// assigned; a missing submission time is stamped now.
func (q *Queue) Submit(j *Job) error {
	if err := j.normalize(); err != nil {
		return err
	}
	if j.ID == "" {
		j.ID = "j" + randomHex(8)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, exists := q.jobs[j.ID]; exists {
		return fmt.Errorf("fleet: job %s already queued", j.ID)
	}
	if j.SubmittedNS == 0 {
		j.SubmittedNS = q.clock.Now().UnixNano()
	}
	if j.MaxAttempts == DefaultMaxAttempts {
		j.MaxAttempts = q.maxAttempts
	}
	cp := j.clone()
	if err := q.persist(cp); err != nil {
		return err
	}
	q.jobs[cp.ID] = cp
	q.wakeLocked()
	mJobsSubmitted.Inc()
	if jd := journal.Default(); jd.Enabled() {
		jd.Emit("", "fleet.job", corrFields([]journal.Field{
			journal.F("job", cp.ID),
			journal.F("status", "submitted"),
			journal.F("cases", len(cp.Cases)),
		}, cp.Request, cp.Trace)...)
	}
	return nil
}

// Claim hands the oldest pending job to the worker under a fresh lease,
// first requeueing any expired leases (so a claiming worker also drives
// recovery). It never waits: with no job pending it returns a nil job
// and wake, the channel that closes when one next becomes pending —
// taken under the same lock as the empty pick, so no wake-up falls
// between the two. Coordinator.Claim waits on it.
func (q *Queue) Claim(workerID string) (job *Job, wake <-chan struct{}, err error) {
	now := q.clock.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	q.sweepLocked(now)
	var pick *Job
	for _, j := range q.jobs {
		if j.Status != JobPending {
			continue
		}
		if pick == nil || j.SubmittedNS < pick.SubmittedNS ||
			(j.SubmittedNS == pick.SubmittedNS && j.ID < pick.ID) {
			pick = j
		}
	}
	if pick == nil {
		return nil, q.pending, nil
	}
	pick.Status = JobClaimed
	pick.Worker = workerID
	pick.Attempts++
	pick.LeaseUntilNS = now.Add(q.lease).UnixNano()
	if err := q.persist(pick); err != nil {
		// Roll the in-memory transition back: an unpersisted claim must
		// not outlive a crash-restart of the coordinator.
		pick.Status = JobPending
		pick.Worker = ""
		pick.Attempts--
		pick.LeaseUntilNS = 0
		return nil, nil, err
	}
	mClaims.Inc()
	if jd := journal.Default(); jd.Enabled() {
		jd.Emit("", "fleet.claim", corrFields([]journal.Field{
			journal.F("job", pick.ID),
			journal.F("worker", workerID),
			journal.F("attempt", pick.Attempts),
		}, pick.Request, pick.Trace)...)
	}
	return pick.clone(), nil, nil
}

// Heartbeat extends the lease of a job the worker holds. ErrStaleClaim
// tells the worker it lost the job (requeued or reclaimed) and should
// stop computing it.
func (q *Queue) Heartbeat(jobID, workerID string) error {
	now := q.clock.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[jobID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchJob, jobID)
	}
	if j.Status != JobClaimed || j.Worker != workerID {
		return fmt.Errorf("%w: job %s is %s (worker %q)", ErrStaleClaim, jobID, j.Status, j.Worker)
	}
	j.LeaseUntilNS = now.Add(q.lease).UnixNano()
	return q.persist(j)
}

// Complete ingests a job's results idempotently. The first post wins
// and transitions the job to done; every later post — a requeue-race
// peer, a retried HTTP call, a stale worker — reports applied=false
// without touching the stored results. Posts are accepted from any
// worker (a stale worker's compute is still correct compute); only a
// terminal failed job refuses them.
func (q *Queue) Complete(jobID, workerID, fingerprint string, results []CaseOutcome) (applied bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[jobID]
	if !ok {
		return false, fmt.Errorf("%w: %s", ErrNoSuchJob, jobID)
	}
	switch j.Status {
	case JobDone:
		mResultsDuplicate.Inc()
		return false, nil
	case JobFailed:
		return false, fmt.Errorf("fleet: job %s already failed: %s", jobID, j.Error)
	}
	if len(results) != len(j.Cases) {
		return false, fmt.Errorf("fleet: job %s: %d results for %d cases", jobID, len(results), len(j.Cases))
	}
	want := make(map[string]bool, len(j.Cases))
	for _, c := range j.Cases {
		want[bitString(c)] = true
	}
	for _, r := range results {
		if !want[bitString(r.Inputs)] {
			return false, fmt.Errorf("fleet: job %s: result for case %s not in the job", jobID, bitString(r.Inputs))
		}
	}
	prev := *j
	j.Status = JobDone
	j.Worker = workerID
	j.Fingerprint = fingerprint
	j.Results = results
	j.LeaseUntilNS = 0
	j.Error = ""
	if err := q.persist(j); err != nil {
		*j = prev
		return false, err
	}
	mJobsCompleted.Inc()
	if jd := journal.Default(); jd.Enabled() {
		jd.Emit("", "fleet.job", corrFields([]journal.Field{
			journal.F("job", j.ID),
			journal.F("status", "done"),
			journal.F("worker", workerID),
			journal.F("cases", len(j.Cases)),
		}, j.Request, j.Trace)...)
	}
	return true, nil
}

// Fail records a worker-reported evaluation failure: the job requeues
// until its attempts are exhausted, then turns terminally failed. Stale
// reports (job no longer claimed by this worker) are ignored.
func (q *Queue) Fail(jobID, workerID, reason string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[jobID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchJob, jobID)
	}
	if j.Status != JobClaimed || j.Worker != workerID {
		return nil
	}
	prev := *j
	j.Error = reason
	j.LeaseUntilNS = 0
	j.Worker = ""
	if j.Attempts >= j.MaxAttempts {
		j.Status = JobFailed
		mJobsFailed.Inc()
	} else {
		j.Status = JobPending
	}
	if err := q.persist(j); err != nil {
		*j = prev
		return err
	}
	if j.Status == JobPending {
		q.wakeLocked()
	}
	if jd := journal.Default(); jd.Enabled() {
		jd.Emit("", "fleet.job", corrFields([]journal.Field{
			journal.F("job", j.ID),
			journal.F("status", string(j.Status)),
			journal.F("error", reason),
		}, j.Request, j.Trace)...)
	}
	return nil
}

// Sweep requeues every claimed job whose lease has expired (the worker
// died or froze) and returns the requeued IDs; jobs out of attempts
// turn terminally failed instead. Claim sweeps lazily; a coordinator
// should also Sweep periodically so recovery does not depend on demand.
func (q *Queue) Sweep() []string {
	now := q.clock.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.sweepLocked(now)
}

func (q *Queue) sweepLocked(now time.Time) []string {
	var requeued []string
	for _, j := range q.jobs {
		if j.Status != JobClaimed || j.LeaseUntilNS > now.UnixNano() {
			continue
		}
		prev := *j
		lostWorker := j.Worker
		j.Worker = ""
		j.LeaseUntilNS = 0
		if j.Attempts >= j.MaxAttempts {
			j.Status = JobFailed
			j.Error = fmt.Sprintf("lease expired after %d attempts (last worker %s)", j.Attempts, lostWorker)
			mJobsFailed.Inc()
		} else {
			j.Status = JobPending
		}
		if err := q.persist(j); err != nil {
			*j = prev
			continue // retried on the next sweep
		}
		if j.Status == JobPending {
			requeued = append(requeued, j.ID)
			q.requeues++
			mRequeues.Inc()
		}
		if jd := journal.Default(); jd.Enabled() {
			jd.Emit("", "fleet.requeue", corrFields([]journal.Field{
				journal.F("job", j.ID),
				journal.F("worker", lostWorker),
				journal.F("attempt", j.Attempts),
				journal.F("status", string(j.Status)),
				journal.F("reason", "lease_expired"),
			}, j.Request, j.Trace)...)
		}
	}
	if len(requeued) > 0 {
		q.wakeLocked()
	}
	sort.Strings(requeued)
	return requeued
}

// Get returns a copy of the job.
func (q *Queue) Get(id string) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return nil, false
	}
	return j.clone(), true
}

// Jobs returns a copy of every job, ordered by submission time then ID.
func (q *Queue) Jobs() []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]*Job, 0, len(q.jobs))
	for _, j := range q.jobs {
		out = append(out, j.clone())
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].SubmittedNS != out[b].SubmittedNS {
			return out[a].SubmittedNS < out[b].SubmittedNS
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// Stats counts the queue's jobs by state.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := QueueStats{Quarantined: q.quarantined, Requeues: q.requeues}
	for _, j := range q.jobs {
		switch j.Status {
		case JobPending:
			s.Pending++
		case JobClaimed:
			s.Claimed++
		case JobDone:
			s.Done++
		case JobFailed:
			s.Failed++
		}
	}
	return s
}

// WritableProbe verifies the queue directory still accepts atomic
// writes — the durability the whole fleet leans on. Surfaced by
// swserve's deep health check.
func (q *Queue) WritableProbe() error {
	if err := durable.Probe(q.dir); err != nil {
		return fmt.Errorf("fleet: queue dir not writable: %w", err)
	}
	return nil
}

// randomHex returns n random bytes hex-encoded (crypto/rand backed,
// time-derived fallback).
func randomHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		return fmt.Sprintf("%0*x", n*2, time.Now().UnixNano())
	}
	return hex.EncodeToString(b)
}
