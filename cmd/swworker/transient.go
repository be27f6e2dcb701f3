package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"spinwave"
	"spinwave/internal/backendspec"
	"spinwave/internal/fleet"
	"spinwave/internal/obsplane"
)

// Transient segments (DESIGN.md §15): a job whose spec carries a
// Transient block is one bounded slice of a long micromagnetic run. The
// worker bypasses the tiered engine — partial trajectories must never
// land in a cache — and instead:
//
//  1. downloads the run's newest checkpoint pair from the coordinator's
//     artifact store into a scratch directory,
//  2. runs the micromagnetic backend with Resume set and StopAtStep at
//     the segment boundary, uploading every committed snapshot back to
//     the store, and
//  3. posts either a checkpoint partial (intermediate segment, no
//     readouts) or the real readouts (final segment).
//
// Resume is exact: the restored solver continues the identical
// trajectory, so a segment re-run after a crash — even on another
// worker — lands on the same readouts an uninterrupted run produces.
// When no checkpoint exists yet (segment 0, or every upload was lost)
// the run starts from t = 0 and still pauses at the same absolute step,
// so correctness never depends on a checkpoint being found.

// runTransientSegment evaluates one segment job.
func runTransientSegment(ctx context.Context, coordinator string, spec fleet.JobSpec, cases [][]bool) (string, []fleet.CaseOutcome, error) {
	ts := spec.Transient
	if len(cases) != 1 {
		return "", nil, fmt.Errorf("swworker: transient segment carries %d cases, want exactly 1", len(cases))
	}
	inputs := cases[0]

	dir, err := os.MkdirTemp("", "swworker-ck-*")
	if err != nil {
		return "", nil, fmt.Errorf("swworker: checkpoint scratch dir: %w", err)
	}
	defer os.RemoveAll(dir)

	art := &artifactClient{base: strings.TrimRight(coordinator, "/"),
		hc: &http.Client{Timeout: 60 * time.Second}}
	if err := art.downloadCheckpoints(ctx, ts.Run, dir); err != nil {
		return "", nil, fmt.Errorf("swworker: fetch checkpoints for run %s: %w", ts.Run, err)
	}

	// Segment backends are not memoized: each carries this run's
	// checkpoint and probe hooks. Key.Micromagnetic refuses a behavioral
	// key — only the micromagnetic backend has a transient to checkpoint.
	k, err := backendspec.Resolve(backendspec.JobRequest(spec))
	if err != nil {
		return "", nil, err
	}
	var opts []spinwave.MicromagOption
	if spec.DtScale > 0 {
		opts = append(opts, spinwave.WithDtScale(spec.DtScale))
	}
	// The step budget comes from the backend's own duration and step
	// size, so every segment of the run — on any worker — derives the
	// same absolute boundaries.
	probe, err := k.Micromagnetic(opts...)
	if err != nil {
		return "", nil, err
	}
	total := int(probe.Duration() / probe.Dt())
	stopAt := 0
	final := ts.Segment >= ts.Segments-1
	if !final {
		stopAt = total * (ts.Segment + 1) / ts.Segments
	}

	// Snapshot uploads run on the stepping goroutine; a failed upload is
	// remembered and fails the job afterwards, so the lease requeues the
	// segment instead of silently leaving the store stale.
	var uploadErr error
	m, err := k.Micromagnetic(append(opts,
		// Probes ride every transient segment (≤3% budget, E-OBS2): each
		// segment uploads its slice of the run's probe time-series beside
		// its checkpoints, so at completion the artifact store holds the
		// full probe history of the run.
		spinwave.WithProbes(spinwave.ProbeConfig{Enabled: true}),
		spinwave.WithCheckpoint(spinwave.CheckpointConfig{
			Dir:        dir,
			EverySteps: ts.EverySteps,
			Resume:     true,
			StopAtStep: stopAt,
			// The fleet trace rides the evaluation context (the worker wraps it
			// at claim), so every manifest this segment writes names the trace
			// a post-mortem will query.
			Trace: obsplane.Trace(ctx),
			OnSnapshot: func(d string, snap spinwave.CheckpointSnapshot) {
				if err := art.uploadSnapshot(ctx, ts.Run, d, snap); err != nil && uploadErr == nil {
					uploadErr = err
				}
			},
		}))...)
	if err != nil {
		return "", nil, err
	}

	// The recorder publishes under the run ID the solver sees; pin it to
	// the durable transient run ID so the probe CSV below and the
	// /v1/runs surfaces key by the same name the artifacts do.
	res, runErr := m.RunContext(spinwave.WithRunID(ctx, ts.Run), inputs)
	fp, _ := m.Fingerprint()
	switch {
	case errors.Is(runErr, spinwave.ErrRunPaused):
		if uploadErr != nil {
			return "", nil, fmt.Errorf("swworker: checkpoint upload: %w", uploadErr)
		}
		if err := uploadProbeCSV(ctx, art, ts, dir); err != nil {
			return "", nil, err
		}
		return fp, []fleet.CaseOutcome{{Inputs: inputs, Source: fleet.SourceCheckpoint}}, nil
	case runErr != nil:
		return "", nil, runErr
	}
	if uploadErr != nil {
		return "", nil, fmt.Errorf("swworker: checkpoint upload: %w", uploadErr)
	}
	if err := uploadProbeCSV(ctx, art, ts, dir); err != nil {
		return "", nil, err
	}
	return fp, []fleet.CaseOutcome{{Inputs: inputs, Outputs: res, Source: string(spinwave.EvalSourceMicromag)}}, nil
}

// uploadProbeCSV lands this segment's probe time-series in the run's
// artifact store as probes-s<segment>.csv. Each segment contributes its
// own slice (the recorder starts fresh per segment), so a completed
// run's store holds the full probe history next to its checkpoints —
// the ROADMAP's post-mortem story. A failed upload fails the job like a
// failed checkpoint upload: the lease requeues the segment rather than
// completing a run whose telemetry silently went missing.
func uploadProbeCSV(ctx context.Context, art *artifactClient, ts *fleet.TransientSpec, scratch string) error {
	rec, ok := spinwave.ProbesFor(ts.Run)
	if !ok {
		return nil // probes unavailable: nothing to publish
	}
	name := fmt.Sprintf("probes-s%02d.csv", ts.Segment)
	path := filepath.Join(scratch, name)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("swworker: probe csv: %w", err)
	}
	snap := rec.Snapshot(ts.Run)
	if err := snap.WriteCSV(f); err != nil {
		f.Close()
		return fmt.Errorf("swworker: probe csv: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("swworker: probe csv: %w", err)
	}
	if err := art.put(ctx, ts.Run, name, path); err != nil {
		return fmt.Errorf("swworker: probe csv upload: %w", err)
	}
	return nil
}

// artifactClient talks to the coordinator's run-artifact store
// (swserve -artifacts): GET to fetch checkpoints, PUT to land them.
type artifactClient struct {
	base string
	hc   *http.Client
}

// downloadCheckpoints mirrors the run's checkpoint pairs (ck-*.json,
// ck-*.ovf) into dir. A run with no artifacts yet is not an error —
// segment 0 starts from t = 0. Validation happens locally: the resume
// path digests and parses what it loads and quarantines corruption.
func (a *artifactClient) downloadCheckpoints(ctx context.Context, run, dir string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/runs/%s/artifacts", a.base, run), nil)
	if err != nil {
		return err
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("artifact list: %s", httpError(resp))
	}
	var list struct {
		Artifacts []struct {
			Name string `json:"name"`
		} `json:"artifacts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return fmt.Errorf("artifact list: %w", err)
	}
	for _, f := range list.Artifacts {
		if !strings.HasPrefix(f.Name, "ck-") ||
			!(strings.HasSuffix(f.Name, ".json") || strings.HasSuffix(f.Name, ".ovf")) {
			continue
		}
		if err := a.download(ctx, run, f.Name, filepath.Join(dir, f.Name)); err != nil {
			return fmt.Errorf("artifact %s: %w", f.Name, err)
		}
	}
	return nil
}

func (a *artifactClient) download(ctx context.Context, run, name, dest string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/runs/%s/artifacts/%s", a.base, run, name), nil)
	if err != nil {
		return err
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("download: %s", httpError(resp))
	}
	f, err := os.Create(dest)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		os.Remove(dest)
		return err
	}
	return f.Close()
}

// uploadSnapshot lands one committed snapshot pair, OVF first and
// manifest second — the same commit order the disk writer uses, so a
// peer listing the store never sees a manifest without its field.
func (a *artifactClient) uploadSnapshot(ctx context.Context, run, dir string, snap spinwave.CheckpointSnapshot) error {
	if err := a.put(ctx, run, snap.Manifest.MagFile, filepath.Join(dir, snap.Manifest.MagFile)); err != nil {
		return err
	}
	return a.put(ctx, run, snap.ManifestFile, filepath.Join(dir, snap.ManifestFile))
}

func (a *artifactClient) put(ctx context.Context, run, name, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		fmt.Sprintf("%s/v1/runs/%s/artifacts/%s", a.base, run, name), f)
	if err != nil {
		return err
	}
	req.ContentLength = fi.Size()
	resp, err := a.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("put %s: %s", name, httpError(resp))
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// httpError summarizes a non-200 response: status line plus a bounded
// body prefix (the v1 error envelope is small JSON).
func httpError(resp *http.Response) string {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Sprintf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
}
