// Package runhistory is the durable run-history index and the trace
// retention sweeper behind it (DESIGN.md §17).
//
// The catalog indexes every completed run and fleet request into one
// compact JSONL record: run/request ID, fleet trace, gate, backend
// fingerprint, inputs label, source tier, health verdict, wall-clock
// and step counts, and pointers (with sizes) to the files the run left
// behind — fleet-journal traces, checkpoints, run artifacts, probe
// CSVs. The file is a durable.Log: a crash tears at most the final
// line, which reads tolerate and the next append steps past; records
// are idempotent per ID, so a retried indexing call never duplicates.
//
// The retention sweeper keeps the newest fleet-journal traces those
// records point at under a count cap and removes the rest. Every
// deletion is journaled as a `retention.gc` event with the bytes
// reclaimed; quarantined trace files (durable.QuarantineSuffix) are
// never silently dropped — they are skipped and counted for the
// operator. The paired
// `history.indexed` event records every catalog append, so the journal
// itself tells the story of what was remembered and what was let go.
package runhistory

// Record is one catalog line: the post-mortem summary of a completed
// run or fleet request, written at the moment it completes.
type Record struct {
	// ID is the run or request ID the record indexes. Appends are
	// idempotent per ID.
	ID string `json:"id"`
	// Kind classifies the record: "eval" (one served case), "table"
	// (one served truth table), "fleet" (one completed fleet request),
	// or "sim" (one offline swsim run).
	Kind string `json:"kind"`
	// Trace is the fleet trace ID correlating the record with the
	// observability plane (empty for untraced local runs).
	Trace string `json:"trace,omitempty"`
	// Gate names the logic gate evaluated (xor, maj3, ...).
	Gate string `json:"gate,omitempty"`
	// Backend names the solver (behavioral, micromag).
	Backend string `json:"backend,omitempty"`
	// Fingerprint is the canonical backend fingerprint the results were
	// keyed under (empty for unfingerprintable backends).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Inputs is the "10"-style bit label of the evaluated case (empty
	// for tables and multi-case requests).
	Inputs string `json:"inputs,omitempty"`
	// Tier is the result-store tier that answered: cache, disk,
	// surrogate, micromag, behavioral — or "mixed" for requests whose
	// cases were answered by different tiers.
	Tier string `json:"tier,omitempty"`
	// Verdict is the run's health verdict (healthy/degraded/violated)
	// when the health monitor ran; empty when unknown.
	Verdict string `json:"verdict,omitempty"`
	// Cases is how many input cases the run covered.
	Cases int `json:"cases,omitempty"`
	// Steps is the solver step count, when known (micromag transients).
	Steps int64 `json:"steps,omitempty"`
	// WallNS is the wall-clock cost in nanoseconds, when known.
	WallNS int64 `json:"wall_ns,omitempty"`
	// IndexedNS is the Unix-nanosecond time the record was appended.
	IndexedNS int64 `json:"indexed_ns"`
	// Files points at the observability data the run left behind, with
	// sizes — the bytes the retention engine will eventually reclaim.
	Files []FileRef `json:"files,omitempty"`
}

// FileRef is one pointer from a record to a file the run left behind.
type FileRef struct {
	// Class is the retention class the file belongs to.
	Class Class `json:"class"`
	// Path is the file path (relative to its store root when stored).
	Path string `json:"path"`
	// Size is the file size in bytes at indexing time.
	Size int64 `json:"size"`
}

// Class names one retention class: a family of on-disk observability
// data a run leaves behind. Records store the class of every file they
// point at; the retention sweeper reclaims ClassTrace.
type Class string

// Retention classes.
const (
	// ClassTrace is the per-trace fleet-journal files of the
	// observability plane (obsplane.Store).
	ClassTrace Class = "fleet-journal"
	// ClassCheckpoint is the checkpoint pairs (ck-*.json + ck-*.ovf)
	// under run-artifact directories.
	ClassCheckpoint Class = "checkpoint"
	// ClassProbeCSV is the probe time-series CSVs under run-artifact
	// directories.
	ClassProbeCSV Class = "probe-csv"
	// ClassArtifact is whole run-artifact directories (everything a run
	// uploaded).
	ClassArtifact Class = "artifact"
)

// InputsLabel renders an input case as the "10"-style bit label used in
// records and result keys.
func InputsLabel(inputs []bool) string {
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
