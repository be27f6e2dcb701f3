package fleet

// HTTP wire types of the fleet protocol, shared by swserve's handlers
// and the Worker client so the two sides cannot drift. Client-facing
// request/response shapes (job submission, request status, worker
// listing) live with the server; these are the worker-facing ones.

// RegisterRequest announces a worker to the coordinator. An empty
// Worker asks the coordinator to assign an ID.
type RegisterRequest struct {
	Worker string `json:"worker,omitempty"`
	Host   string `json:"host,omitempty"`
	PID    int    `json:"pid,omitempty"`
	// Engine describes the worker's evaluation setup (backend kinds,
	// store tiers) for the operator's benefit; informational only.
	Engine string `json:"engine,omitempty"`
}

// RegisterResponse confirms registration and hands the worker its
// lease and heartbeat interval, the latter derived from the former.
type RegisterResponse struct {
	Worker      string `json:"worker"`
	LeaseMS     int64  `json:"lease_ms"`
	HeartbeatMS int64  `json:"heartbeat_ms"`
}

// ClaimRequest asks for the next job. The call is a bounded long-poll:
// the response is a Job (HTTP 200) as soon as one is pending, or no
// content (HTTP 204) when nothing became pending within the
// coordinator's wait (a tenth of its lease). A worker claims again at
// once after a 204.
type ClaimRequest struct {
	Worker string `json:"worker"`
}

// HeartbeatRequest extends the worker's lease on a job and carries the
// worker's self-reported node health.
type HeartbeatRequest struct {
	Worker string         `json:"worker"`
	Job    string         `json:"job"`
	Health map[string]any `json:"health,omitempty"`
}

// ResultRequest posts a job's outcome: either Results (success, with
// the backend fingerprint) or Error (evaluation failure).
type ResultRequest struct {
	Worker      string        `json:"worker"`
	Job         string        `json:"job"`
	Fingerprint string        `json:"fingerprint,omitempty"`
	Results     []CaseOutcome `json:"results,omitempty"`
	Error       string        `json:"error,omitempty"`
}

// ResultResponse reports whether the post was applied (false means an
// idempotent duplicate) and the job's resulting status.
type ResultResponse struct {
	Applied bool      `json:"applied"`
	Status  JobStatus `json:"status"`
}
