// Package fleet is the distributed evaluation tier: a coordinator that
// shards truth-table cases and batch eval requests into jobs backed by
// a durable JSON job queue (one atomic-rename file per job, the same
// idiom as mumax3's job daemon), and a
// worker that registers over HTTP, claims jobs under a lease, evaluates
// them through the tiered engine, and reports results.
//
// Lifecycle of one job: submit → claim (lease granted, attempt counted)
// → heartbeat (lease extended) → result. A worker that dies mid-job
// simply stops heartbeating; when its lease expires the job is requeued
// and a peer completes it. Result ingestion is idempotent — results are
// keyed by (fingerprint, inputs), so the duplicate posts produced by
// requeue races, retried HTTP calls, or stale workers are counted and
// dropped, never double-applied. Job files are hand-writable: a minimal
// {"spec":{"gate":"xor"},"cases":[[true,false]]} dropped into the queue
// directory is a valid job; a corrupted file is quarantined (renamed
// aside with a journal alert), never crash-looped on.
//
// The package is deliberately free of the root spinwave package: the
// worker evaluates through an Evaluator interface, so cmd/swworker (and
// tests) decide which backends and engine tiers serve a job.
package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"

	"spinwave/internal/detect"
)

// jobFileVersion guards the on-disk job schema; bump it when the layout
// changes so old queue directories fail loudly instead of misparsing.
const jobFileVersion = 1

// DefaultMaxAttempts bounds how many times a job may be claimed before
// a lease expiry marks it failed instead of requeueing it again.
const DefaultMaxAttempts = 3

// maxJobCases bounds the cases one job file may carry; the coordinator
// shards larger requests into multiple jobs.
const maxJobCases = 1024

// maxJobInputs bounds the input-vector width of one case (the largest
// gate, MAJ5, has 5 data inputs; 8 leaves headroom for derived/cascade
// work without letting a hand-written file allocate unbounded rows).
const maxJobInputs = 8

// JobStatus is the lifecycle state of a queued job.
type JobStatus string

// Job lifecycle states, stored verbatim in the job file.
const (
	// JobPending means the job is waiting to be claimed.
	JobPending JobStatus = "pending"
	// JobClaimed means a worker holds the job under an active lease.
	JobClaimed JobStatus = "claimed"
	// JobDone means results were ingested; terminal.
	JobDone JobStatus = "done"
	// JobFailed means the job exhausted its attempts; terminal.
	JobFailed JobStatus = "failed"
)

// JobSpec names the backend configuration a job's cases are evaluated
// against, in the request vocabulary of internal/backendspec (mode is
// the engine serving mode direct/auto/surrogate). The swserve
// coordinator resolves each submission there and enqueues the
// canonical, fully validated names; workers resolve through the same
// package, so a job queued under aliases still runs.
type JobSpec struct {
	// Gate is the gate kind the cases drive (xor, maj3, maj3single, maj5).
	Gate string `json:"gate"`
	// Backend picks the solver (behavioral or micromagnetic; empty =
	// behavioral).
	Backend string `json:"backend,omitempty"`
	// Spec picks the device geometry preset (paper, paper-micromag, reduced).
	Spec string `json:"spec,omitempty"`
	// Material picks the material preset (fecob, yig, permalloy).
	Material string `json:"material,omitempty"`
	// Mode is the engine serving mode (direct, auto, surrogate; empty =
	// direct) applied per worker node — each node's cache, disk store and
	// admitted surrogates answer before its solver does.
	Mode string `json:"mode,omitempty"`
	// Table marks the parent request as a full truth table, so the
	// coordinator can reassemble a decoded table from the merged results.
	Table bool `json:"table,omitempty"`
	// Inverted selects XNOR decoding for XOR table requests.
	Inverted bool `json:"inverted,omitempty"`
	// DtScale multiplies the micromagnetic stability time step (default
	// 1) of a transient segment job; plain jobs ignore it. It changes the
	// trajectory (and the fingerprint); fleet smokes use values < 1 to
	// stretch a transient's wall-clock time.
	DtScale float64 `json:"dt_scale,omitempty"`
	// Transient marks the job as one resumable segment of a long
	// checkpointed transient (DESIGN.md §15). Segment jobs carry exactly
	// one case; intermediate segments stop at their step boundary, upload
	// a checkpoint to the run's artifact store, and report a partial
	// outcome (Source "checkpoint", no Outputs) that makes the
	// coordinator chain the next segment as a fresh job — so a SIGKILLed
	// worker's segment is resumed (not restarted) by any peer.
	Transient *TransientSpec `json:"transient,omitempty"`
}

// TransientSpec describes one segment of a checkpointed transient.
type TransientSpec struct {
	// Run is the durable run ID keying the transient's checkpoints in
	// the coordinator's artifact store.
	Run string `json:"run"`
	// Segment is this job's zero-based segment index.
	Segment int `json:"segment"`
	// Segments is the total segment count (≥ 1); the final segment
	// finishes the transient and reports the real readouts.
	Segments int `json:"segments"`
	// EverySteps is the checkpoint cadence in solver steps (0 = the
	// checkpoint package default).
	EverySteps int `json:"every_steps,omitempty"`
}

// SourceCheckpoint is the CaseOutcome.Source an intermediate transient
// segment reports: the case has no readouts yet, only a durable
// checkpoint the next segment resumes from.
const SourceCheckpoint = "checkpoint"

// CaseOutcome is one evaluated case inside a job result: the inputs it
// answers, the readouts, and the tier that produced them on the worker.
type CaseOutcome struct {
	// Inputs is the case's input vector.
	Inputs []bool `json:"inputs"`
	// Outputs is the readout at every output probe, keyed by name.
	Outputs map[string]detect.Readout `json:"outputs"`
	// Source is the worker-side result-store tier that answered
	// (cache, disk, surrogate, micromag, behavioral).
	Source string `json:"source,omitempty"`
}

// Job is one unit of fleet work: a shard of input cases for one backend
// configuration, persisted as a single JSON file in the queue directory.
// The file is the durable record — every state transition rewrites it
// atomically, so a coordinator restart recovers the full queue state
// (including results of completed jobs) by rescanning the directory.
type Job struct {
	// Version is the job-file schema version (jobFileVersion).
	Version int `json:"version"`
	// ID names the job; also the file name stem. Assigned from the file
	// name when a hand-written file omits it.
	ID string `json:"id,omitempty"`
	// Request groups the job with its sibling shards under the parent
	// request (empty for hand-submitted standalone jobs).
	Request string `json:"request,omitempty"`
	// Trace is the fleet trace ID the coordinator minted for the parent
	// request: the correlation key stamped on every journal event, HTTP
	// call, and checkpoint manifest this job touches, across every node
	// (DESIGN.md §16). Empty for hand-submitted jobs with no request.
	Trace string `json:"trace,omitempty"`
	// Spec is the backend configuration the cases run against.
	Spec JobSpec `json:"spec"`
	// Cases are the input vectors this shard evaluates.
	Cases [][]bool `json:"cases"`
	// Status is the lifecycle state (empty parses as pending).
	Status JobStatus `json:"status,omitempty"`
	// Worker is the ID of the worker holding (or last holding) the job.
	Worker string `json:"worker,omitempty"`
	// Attempts counts claims; MaxAttempts bounds them (0 parses as
	// DefaultMaxAttempts).
	Attempts    int `json:"attempts,omitempty"`
	MaxAttempts int `json:"max_attempts,omitempty"`
	// LeaseUntilNS is the claim lease expiry, Unix nanoseconds.
	LeaseUntilNS int64 `json:"lease_until_unix_ns,omitempty"`
	// SubmittedNS orders claims FIFO (Unix nanoseconds; stamped at
	// submission when absent).
	SubmittedNS int64 `json:"submitted_unix_ns,omitempty"`
	// Fingerprint is the canonical backend fingerprint reported with the
	// results (empty until done, or for unfingerprintable backends).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Results holds the ingested case outcomes of a done job.
	Results []CaseOutcome `json:"results,omitempty"`
	// Error records why a failed job failed.
	Error string `json:"error,omitempty"`
}

// ParseJobFile decodes and validates one job file. It is strict — an
// unknown field, trailing garbage, an out-of-vocabulary status, a
// malformed ID or an inconsistent case list is an error, never a
// silently defaulted job — because queue files are hand-writable and a
// typo must surface at submission, not as a worker crash. Omitted
// optional fields take their defaults (version 1, status pending,
// DefaultMaxAttempts). This parser is the FuzzJobFile target.
func ParseJobFile(data []byte) (*Job, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var j Job
	if err := dec.Decode(&j); err != nil {
		return nil, fmt.Errorf("fleet: job file: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("fleet: job file: trailing data after the job object")
	}
	if err := j.normalize(); err != nil {
		return nil, err
	}
	return &j, nil
}

// normalize applies defaults and validates the job's invariants.
func (j *Job) normalize() error {
	switch j.Version {
	case 0:
		j.Version = jobFileVersion
	case jobFileVersion:
	default:
		return fmt.Errorf("fleet: job file version %d, want %d", j.Version, jobFileVersion)
	}
	if j.ID != "" && !validID(j.ID) {
		return fmt.Errorf("fleet: job id %q: want 1-64 chars of [a-zA-Z0-9._-], not starting with '.'", j.ID)
	}
	if j.Request != "" && !validID(j.Request) {
		return fmt.Errorf("fleet: request id %q: want 1-64 chars of [a-zA-Z0-9._-], not starting with '.'", j.Request)
	}
	if j.Trace != "" && !validID(j.Trace) {
		return fmt.Errorf("fleet: trace id %q: want 1-64 chars of [a-zA-Z0-9._-], not starting with '.'", j.Trace)
	}
	if j.Spec.Gate == "" {
		return fmt.Errorf("fleet: job needs spec.gate")
	}
	if len(j.Cases) == 0 {
		return fmt.Errorf("fleet: job needs at least one case")
	}
	if len(j.Cases) > maxJobCases {
		return fmt.Errorf("fleet: job carries %d cases, limit %d", len(j.Cases), maxJobCases)
	}
	width := len(j.Cases[0])
	if width == 0 || width > maxJobInputs {
		return fmt.Errorf("fleet: case width %d out of range [1, %d]", width, maxJobInputs)
	}
	for i, c := range j.Cases {
		if len(c) != width {
			return fmt.Errorf("fleet: case %d has %d inputs, case 0 has %d", i, len(c), width)
		}
	}
	if j.Spec.DtScale < 0 {
		return fmt.Errorf("fleet: negative dt_scale %g", j.Spec.DtScale)
	}
	if ts := j.Spec.Transient; ts != nil {
		if !validID(ts.Run) {
			return fmt.Errorf("fleet: transient run id %q: want 1-64 chars of [a-zA-Z0-9._-], not starting with '.'", ts.Run)
		}
		if ts.Segments < 1 {
			return fmt.Errorf("fleet: transient needs segments >= 1, got %d", ts.Segments)
		}
		if ts.Segment < 0 || ts.Segment >= ts.Segments {
			return fmt.Errorf("fleet: transient segment %d out of range [0, %d)", ts.Segment, ts.Segments)
		}
		if ts.EverySteps < 0 {
			return fmt.Errorf("fleet: negative transient every_steps %d", ts.EverySteps)
		}
		if len(j.Cases) != 1 {
			return fmt.Errorf("fleet: a transient segment carries exactly one case, got %d", len(j.Cases))
		}
	}
	switch j.Status {
	case "":
		j.Status = JobPending
	case JobPending, JobClaimed, JobDone, JobFailed:
	default:
		return fmt.Errorf("fleet: unknown job status %q", j.Status)
	}
	if j.Attempts < 0 {
		return fmt.Errorf("fleet: negative attempts %d", j.Attempts)
	}
	switch {
	case j.MaxAttempts == 0:
		j.MaxAttempts = DefaultMaxAttempts
	case j.MaxAttempts < 0:
		return fmt.Errorf("fleet: negative max_attempts %d", j.MaxAttempts)
	}
	for i, r := range j.Results {
		if len(r.Inputs) != width {
			return fmt.Errorf("fleet: result %d has %d inputs, cases have %d", i, len(r.Inputs), width)
		}
	}
	return nil
}

// clone returns an independent copy of the job. Cases, Results and
// their readout maps are treated as immutable once stored, so the
// copy shares them; the mutable scalar state is what callers must not
// observe mid-transition.
func (j *Job) clone() *Job {
	c := *j
	return &c
}

// validID reports whether s is safe as a job/request/worker identifier
// and as a file-name stem: 1-64 characters of [a-zA-Z0-9._-], not
// starting with a dot (dot-files are skipped by the queue scan).
func validID(s string) bool {
	if len(s) == 0 || len(s) > 64 || s[0] == '.' {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// bitString renders an input vector as the "10"-style label used in
// result keys and journal events (same convention as the engine).
func bitString(inputs []bool) string {
	bits := make([]byte, len(inputs))
	for i, v := range inputs {
		if v {
			bits[i] = '1'
		} else {
			bits[i] = '0'
		}
	}
	return string(bits)
}
