// Package checkpoint persists solver state mid-run and restores it
// exactly (DESIGN.md §15): periodic snapshots of the magnetization in
// OVF 2.0 text format (written bit-exactly via ovf.WriteExact) paired
// with a JSON sidecar manifest carrying the integrator state — simulation
// time, step size, committed step count — plus the probe sample series,
// the journal sequence, and the backend fingerprint that guards a resume
// against configuration drift.
//
// Every file is committed by durable.AtomicWrite, OVF first and
// manifest second, so the manifest is the commit record: a crash between
// the two writes leaves an unreferenced OVF file, never a manifest
// pointing at a torn field. On load, corrupt or truncated files are
// quarantined (durable.Quarantine, as the fleet queue does) and the
// loader falls back to the next-newest snapshot instead of crashing the
// resume.
//
// The same package hosts the run-artifact store (artifacts.go): a
// directory tree addressed by run ID holding checkpoints, probe CSVs,
// journals and verdicts, served by swserve under /v1/runs/{id}/artifacts.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"spinwave/internal/durable"
	"spinwave/internal/grid"
	"spinwave/internal/journal"
	"spinwave/internal/ovf"
	"spinwave/internal/vec"
)

// manifestVersion is the manifest schema version this package writes and
// accepts. Bump it when the schema changes incompatibly; old manifests
// are then quarantined rather than misread.
const manifestVersion = 1

// ErrPaused reports that a run stopped on purpose at its configured
// segment boundary (Config.StopAtStep) after committing a checkpoint.
// Callers distinguish it from real failures with errors.Is: a paused
// run's partial state is durable and a later run resumes it; nothing
// went wrong.
var ErrPaused = errors.New("checkpoint: run paused at segment boundary")

// Config enables periodic checkpointing for one micromagnetic run
// (core.WithCheckpoint). Checkpointing observes the
// trajectory without altering it, so the whole struct is excluded from
// the backend fingerprint — a checkpointed run and a plain run share
// cache entries.
type Config struct {
	// Dir is the checkpoint directory; empty disables checkpointing.
	Dir string
	// EverySteps is the snapshot cadence in committed solver steps
	// (default 1000: one snapshot mid-way through a 1984-step reduced
	// XOR case).
	EverySteps int
	// Resume loads the newest valid checkpoint in Dir before stepping
	// and continues from it instead of starting at t = 0.
	Resume bool
	// StopAtStep, when in (0, total steps), pauses the run after
	// committing the checkpoint at that absolute step: the run returns
	// ErrPaused and a later run with Resume set continues it. This is
	// how fleet segments bound their share of a long transient.
	StopAtStep int
	// Keep bounds how many snapshots stay on disk (default 2; older
	// pairs are pruned after each save).
	Keep int
	// OnSnapshot, when non-nil, observes every committed snapshot — the
	// fleet worker's upload hook. It runs on the stepping goroutine, so
	// it should hand work off rather than block the solver for long.
	OnSnapshot func(dir string, snap Snapshot)
	// Trace is the fleet trace ID stamped into each manifest (empty
	// outside fleet runs), correlating the checkpoint with the fleet
	// journal events of the job that wrote it.
	Trace string
}

// Enabled reports whether the config names a checkpoint directory.
func (c Config) Enabled() bool { return c.Dir != "" }

// WithDefaults fills zero fields with the documented defaults.
func (c Config) WithDefaults() Config {
	if c.EverySteps <= 0 {
		c.EverySteps = 1000
	}
	if c.Keep <= 0 {
		c.Keep = 2
	}
	return c
}

// Manifest is the JSON sidecar committed next to each OVF snapshot. It
// carries everything a resume needs beyond the magnetization itself.
type Manifest struct {
	// Version is the manifest schema version (manifestVersion).
	Version int `json:"version"`
	// Run is the run ID of the interrupted run (informational — a
	// resumed run mints its own ID and journals the one it continued).
	Run string `json:"run,omitempty"`
	// Gate names the simulated gate (informational).
	Gate string `json:"gate,omitempty"`
	// Fingerprint is the backend's canonical fingerprint at save time.
	// Resume refuses a checkpoint whose fingerprint differs from the
	// resuming backend's — bit-identical resume is only meaningful for
	// an identical configuration.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Inputs is the paper-style "10" case label of the run.
	Inputs string `json:"inputs,omitempty"`
	// Step is the committed solver step count at the snapshot.
	Step int `json:"step"`
	// TotalSteps is the fixed-step total of the full run (0 when not
	// applicable), letting tools report progress.
	TotalSteps int `json:"total_steps,omitempty"`
	// SimTime is the solver's simulation time in seconds. JSON encodes
	// float64 with shortest-round-trip formatting, so the value survives
	// the disk round trip bit-identically.
	SimTime float64 `json:"sim_time_s"`
	// Dt is the solver step size at the snapshot, in seconds.
	Dt float64 `json:"dt_s"`
	// Scheme names the integrator; every snapshot is "rk4".
	Scheme string `json:"scheme,omitempty"`
	// JournalSeq is the process journal's sequence number at save time,
	// correlating the checkpoint with the interrupted run's journal tail.
	JournalSeq uint64 `json:"journal_seq,omitempty"`
	// Trace is the fleet trace ID of the job that wrote the snapshot —
	// the key joining this checkpoint to the merged fleet journal
	// (/v1/fleet/jobs/{trace}/events). Empty outside fleet runs.
	Trace string `json:"trace,omitempty"`
	// MagFile is the sidecar OVF file name (same directory).
	MagFile string `json:"mag_file"`
	// MagSHA256 is the hex SHA-256 of the OVF file's bytes — the
	// truncation/corruption guard the loader verifies before trusting
	// the field.
	MagSHA256 string `json:"mag_sha256"`
	// Probes carries the detector probes' accumulated sample series, so
	// the resumed run's final lock-in window sees exactly the trace an
	// uninterrupted run would have.
	Probes []ProbeState `json:"probes,omitempty"`
	// SavedUnixNS is the wall-clock save time in Unix nanoseconds.
	SavedUnixNS int64 `json:"saved_unix_ns,omitempty"`
}

// ProbeState is one detector probe's recorded sample series.
type ProbeState struct {
	// Name is the probe (output port) name, e.g. "O1".
	Name string `json:"name"`
	// Times holds the sample time stamps in seconds.
	Times []float64 `json:"times"`
	// MX, MY, MZ hold the averaged magnetization components per sample.
	MX []float64 `json:"mx"`
	MY []float64 `json:"my"`
	MZ []float64 `json:"mz"`
}

// validate rejects manifests no resume should trust.
func (m *Manifest) validate() error {
	if m.Version != manifestVersion {
		return fmt.Errorf("checkpoint: manifest version %d, want %d", m.Version, manifestVersion)
	}
	if m.Step < 0 {
		return fmt.Errorf("checkpoint: negative step count %d", m.Step)
	}
	if !(m.Dt > 0) || math.IsInf(m.Dt, 0) {
		return fmt.Errorf("checkpoint: bad step size %g", m.Dt)
	}
	if math.IsNaN(m.SimTime) || math.IsInf(m.SimTime, 0) || m.SimTime < 0 {
		return fmt.Errorf("checkpoint: bad simulation time %g", m.SimTime)
	}
	if !validName(m.MagFile) {
		return fmt.Errorf("checkpoint: bad magnetization file name %q", m.MagFile)
	}
	if len(m.MagSHA256) != sha256.Size*2 {
		return fmt.Errorf("checkpoint: bad digest length %d", len(m.MagSHA256))
	}
	if _, err := hex.DecodeString(m.MagSHA256); err != nil {
		return fmt.Errorf("checkpoint: bad digest: %w", err)
	}
	for _, p := range m.Probes {
		n := len(p.Times)
		if len(p.MX) != n || len(p.MY) != n || len(p.MZ) != n {
			return fmt.Errorf("checkpoint: probe %q has mismatched sample lengths", p.Name)
		}
	}
	return nil
}

// ParseManifest decodes and validates one manifest document. Unknown
// fields and trailing garbage are rejected — a manifest is a resume
// instruction, and a field this version does not understand could change
// its meaning (same strictness as fleet.ParseJobFile).
func ParseManifest(data []byte) (*Manifest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("checkpoint: manifest: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("checkpoint: manifest: trailing data")
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Snapshot is the receipt of one committed Save: the manifest as written
// plus the file names it was committed under (relative to the checkpoint
// directory).
type Snapshot struct {
	// Manifest is the manifest as committed (digest and version filled).
	Manifest Manifest
	// ManifestFile is the manifest's file name.
	ManifestFile string
}

// stem names a snapshot pair by step count, zero-padded so lexical and
// numeric order agree.
func stem(step int) string { return fmt.Sprintf("ck-%012d", step) }

// Save commits one snapshot: the magnetization OVF first, then the
// manifest referencing it, each by atomic rename. The caller fills the
// identity and integrator fields of man; Save fills Version, MagFile,
// MagSHA256, JournalSeq and SavedUnixNS. Older snapshots beyond keep
// (≥ 1) are pruned after the commit.
func Save(dir string, man Manifest, mesh grid.Mesh, m vec.Field, keep int) (Snapshot, error) {
	if dir == "" {
		return Snapshot{}, fmt.Errorf("checkpoint: save needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Snapshot{}, fmt.Errorf("checkpoint: %w", err)
	}
	var buf bytes.Buffer
	if err := ovf.WriteExact(&buf, mesh, m, fmt.Sprintf("checkpoint step %d", man.Step)); err != nil {
		return Snapshot{}, fmt.Errorf("checkpoint: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	man.Version = manifestVersion
	man.MagFile = stem(man.Step) + ".ovf"
	man.MagSHA256 = hex.EncodeToString(sum[:])
	man.JournalSeq = journal.Default().Seq()
	man.SavedUnixNS = time.Now().UnixNano()
	if err := man.validate(); err != nil {
		return Snapshot{}, err
	}
	mb, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return Snapshot{}, fmt.Errorf("checkpoint: manifest marshal: %w", err)
	}
	if err := durable.WriteFile(filepath.Join(dir, man.MagFile), buf.Bytes()); err != nil {
		return Snapshot{}, fmt.Errorf("checkpoint: %w", err)
	}
	name := stem(man.Step) + ".json"
	if err := durable.WriteFile(filepath.Join(dir, name), mb); err != nil {
		return Snapshot{}, fmt.Errorf("checkpoint: %w", err)
	}
	if keep < 1 {
		keep = 1
	}
	prune(dir, keep)
	return Snapshot{Manifest: man, ManifestFile: name}, nil
}

// prune deletes all but the newest keep snapshot pairs (by step number
// in the file name). Best-effort: removal errors are ignored — an extra
// old snapshot is harmless, a failed save is not.
func prune(dir string, keep int) {
	steps := manifestSteps(dir)
	if len(steps) <= keep {
		return
	}
	for _, step := range steps[:len(steps)-keep] {
		os.Remove(filepath.Join(dir, stem(step)+".json"))
		os.Remove(filepath.Join(dir, stem(step)+".ovf"))
	}
}

// manifestSteps lists the step numbers of the manifest files in dir,
// ascending. Quarantined and temp files are ignored.
func manifestSteps(dir string) []int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var steps []int
	for _, e := range entries {
		name := e.Name()
		var step int
		if _, err := fmt.Sscanf(name, "ck-%d.json", &step); err != nil || name != stem(step)+".json" {
			continue
		}
		steps = append(steps, step)
	}
	sort.Ints(steps)
	return steps
}

// validName accepts plain file names: no path separators, no leading
// dot, only letters, digits, '.', '-', '_', at most 128 bytes. Shared
// by manifests and the artifact store.
func validName(s string) bool {
	if s == "" || len(s) > 128 || s[0] == '.' {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}
