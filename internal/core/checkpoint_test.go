package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"spinwave/internal/checkpoint"
	"spinwave/internal/detect"
	"spinwave/internal/health"
	"spinwave/internal/journal"
)

func checkpointedXOR(t *testing.T, cc checkpoint.Config) *Micromagnetic {
	t.Helper()
	m, err := NewMicromagnetic(XOR, WithCheckpoint(cc))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCheckpointResumeBitIdentical is the PR's golden pin: a run paused
// at a segment boundary and resumed from its checkpoint must report
// exactly — bit for bit — the readouts of the uninterrupted run.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	inputs := []bool{true, false} // the paper's "10" XOR case
	golden, err := checkpointedXOR(t, checkpoint.Config{}).Run(inputs)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	base := checkpointedXOR(t, checkpoint.Config{})
	total := int(base.Duration() / base.Dt())
	stopAt := total / 3

	// Segment 1: run to the boundary, expect a clean pause.
	seg := checkpointedXOR(t, checkpoint.Config{Dir: dir, EverySteps: 500, StopAtStep: stopAt})
	out, err := seg.Run(inputs)
	if !errors.Is(err, checkpoint.ErrPaused) {
		t.Fatalf("segment run: out=%v err=%v, want ErrPaused", out, err)
	}
	st, err := checkpoint.Latest(dir)
	if err != nil || st == nil {
		t.Fatalf("no checkpoint after pause: %v", err)
	}
	if st.Manifest.Step != stopAt {
		t.Errorf("paused at step %d, want %d", st.Manifest.Step, stopAt)
	}

	// Segment 2: a fresh backend resumes and finishes the transient.
	res := checkpointedXOR(t, checkpoint.Config{Dir: dir, EverySteps: 500, Resume: true})
	resumed, err := res.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"O1", "O2"} {
		g, r := golden[name], resumed[name]
		if g != (detect.Readout{}) && r != g {
			t.Errorf("%s: resumed readout %+v != golden %+v", name, r, g)
		}
		if g == (detect.Readout{}) {
			t.Errorf("%s: golden readout missing", name)
		}
	}
}

// TestCheckpointResumeHealthy pins that a monitored run resumed from a
// checkpoint is judged like the uninterrupted run: the resumed segment's
// monitor is built fresh and first observes a step deep into the
// transient, and that alone must not raise an alert.
func TestCheckpointResumeHealthy(t *testing.T) {
	inputs := []bool{true, false}
	dir := t.TempDir()
	monitored := func(cc checkpoint.Config) *Micromagnetic {
		m, err := NewMicromagnetic(XOR, WithCheckpoint(cc), WithHealth(health.Config{Enabled: true}))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	base := monitored(checkpoint.Config{})
	total := int(base.Duration() / base.Dt())

	seg := monitored(checkpoint.Config{Dir: dir, StopAtStep: total / 3})
	if _, err := seg.Run(inputs); !errors.Is(err, checkpoint.ErrPaused) {
		t.Fatalf("segment run: %v, want ErrPaused", err)
	}
	runID := journal.NewRunID()
	res := monitored(checkpoint.Config{Dir: dir, Resume: true})
	if _, err := res.RunContext(journal.WithRunID(context.Background(), runID), inputs); err != nil {
		t.Fatal(err)
	}
	rep, ok := health.Default().Get(runID)
	if !ok || rep.Verdict != health.Healthy.String() || len(rep.Alerts) > 0 {
		t.Fatalf("resumed run health %+v (published %v), want healthy without alerts", rep, ok)
	}
}

// TestCheckpointResumeGuards pins the identity checks: a checkpoint from
// a different configuration or logic case must be refused, not silently
// resumed into a wrong trajectory.
func TestCheckpointResumeGuards(t *testing.T) {
	dir := t.TempDir()
	base := checkpointedXOR(t, checkpoint.Config{})
	total := int(base.Duration() / base.Dt())
	seg := checkpointedXOR(t, checkpoint.Config{Dir: dir, StopAtStep: total / 4})
	if _, err := seg.Run([]bool{true, false}); !errors.Is(err, checkpoint.ErrPaused) {
		t.Fatalf("segment run: %v", err)
	}

	// Different trajectory (DtScale) — fingerprint mismatch.
	drifted, err := NewMicromagnetic(XOR, WithDtScale(0.5),
		WithCheckpoint(checkpoint.Config{Dir: dir, Resume: true}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drifted.Run([]bool{true, false}); err == nil {
		t.Error("fingerprint mismatch accepted on resume")
	}

	// Same configuration, different logic case.
	other := checkpointedXOR(t, checkpoint.Config{Dir: dir, Resume: true})
	if _, err := other.Run([]bool{false, true}); err == nil {
		t.Error("inputs mismatch accepted on resume")
	}
}

// TestCheckpointSkipsCalibrationRuns pins that RunSingle/RunBackground
// never write snapshots even with checkpointing configured — a muted-run
// snapshot would be meaningless to resume a logic case from.
func TestCheckpointSkipsCalibrationRuns(t *testing.T) {
	dir := t.TempDir()
	m := checkpointedXOR(t, checkpoint.Config{Dir: dir, EverySteps: 100})
	if _, err := m.RunSingle("I1"); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 0 {
		t.Errorf("calibration run wrote %d checkpoint files", len(entries))
	}
	if _, err := os.Stat(filepath.Join(dir, "ck-000000000000.json")); !os.IsNotExist(err) {
		t.Error("unexpected snapshot at step 0")
	}
}

// TestCheckpointExcludedFromFingerprint guards the cache contract: a
// checkpointed backend and a plain one share fingerprints, like Probes
// and Health.
func TestCheckpointExcludedFromFingerprint(t *testing.T) {
	plain := checkpointedXOR(t, checkpoint.Config{})
	ckpt := checkpointedXOR(t, checkpoint.Config{Dir: t.TempDir(), EverySteps: 7, Resume: true})
	fp1, ok1 := plain.Fingerprint()
	fp2, ok2 := ckpt.Fingerprint()
	if !ok1 || !ok2 || fp1 != fp2 {
		t.Errorf("fingerprints differ: %q (%t) vs %q (%t)", fp1, ok1, fp2, ok2)
	}
}

// TestCheckpointHalfDomainSegments: the mirror-symmetric XOR case 00
// steps the half mesh; run in three checkpointed segments it reports
// exactly the readouts of one unsegmented run.
func TestCheckpointHalfDomainSegments(t *testing.T) {
	if testing.Short() {
		t.Skip("micromagnetic integration test")
	}
	inputs := []bool{false, false}
	golden, err := checkpointedXOR(t, checkpoint.Config{}).Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	base := checkpointedXOR(t, checkpoint.Config{})
	if !base.HalfDomain(inputs) {
		t.Fatal("XOR 00 does not step the half mesh")
	}
	total := int(base.Duration() / base.Dt())
	for seg, stop := range []int{total / 3, 2 * total / 3} {
		m := checkpointedXOR(t, checkpoint.Config{Dir: dir, EverySteps: 500, StopAtStep: stop, Resume: seg > 0})
		if _, err := m.Run(inputs); !errors.Is(err, checkpoint.ErrPaused) {
			t.Fatalf("segment %d: %v, want ErrPaused", seg+1, err)
		}
		st, err := checkpoint.Latest(dir)
		if err != nil || st == nil || st.Manifest.Step != stop {
			t.Fatalf("segment %d: checkpoint %v, %v; want one at step %d", seg+1, st, err, stop)
		}
		if n := st.Mesh.NCells(); n != base.mir.half.NCells() {
			t.Fatalf("segment %d saved a %d-cell mesh, the half mesh has %d", seg+1, n, base.mir.half.NCells())
		}
	}
	resumed, err := checkpointedXOR(t, checkpoint.Config{Dir: dir, EverySteps: 500, Resume: true}).Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, golden) {
		t.Fatalf("three segments read %+v, one run %+v", resumed, golden)
	}
}

// TestCheckpointDomainMismatch: a checkpoint whose field does not cover
// the mesh a run steps — a whole-film snapshot offered to a half-mesh
// run, or the reverse — is refused with an error, not resumed.
func TestCheckpointDomainMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("micromagnetic integration test")
	}
	inputs := []bool{false, false}
	for _, tc := range []struct {
		name        string
		write, read func(*Micromagnetic) *Micromagnetic
	}{
		{"full-into-half", fullFilm, func(m *Micromagnetic) *Micromagnetic { return m }},
		{"half-into-full", func(m *Micromagnetic) *Micromagnetic { return m }, fullFilm},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			base := checkpointedXOR(t, checkpoint.Config{})
			total := int(base.Duration() / base.Dt())
			w := tc.write(checkpointedXOR(t, checkpoint.Config{Dir: dir, StopAtStep: total / 10}))
			if _, err := w.Run(inputs); !errors.Is(err, checkpoint.ErrPaused) {
				t.Fatalf("segment run: %v", err)
			}
			r := tc.read(checkpointedXOR(t, checkpoint.Config{Dir: dir, Resume: true}))
			_, err := r.Run(inputs)
			if err == nil || !strings.Contains(err.Error(), "cells") {
				t.Fatalf("mismatched checkpoint resumed: %v", err)
			}
		})
	}
}

// TestCheckpointWholeFilmAntiCase: XOR 10 steps the half mesh, so a
// whole-film checkpoint of it is refused on resume with the mesh-size
// error, which names the half mesh the run steps.
func TestCheckpointWholeFilmAntiCase(t *testing.T) {
	if testing.Short() {
		t.Skip("micromagnetic integration test")
	}
	inputs := []bool{true, false}
	dir := t.TempDir()
	base := checkpointedXOR(t, checkpoint.Config{})
	if !base.HalfDomain(inputs) {
		t.Fatal("XOR 10 does not step the half mesh")
	}
	total := int(base.Duration() / base.Dt())
	w := fullFilm(checkpointedXOR(t, checkpoint.Config{Dir: dir, StopAtStep: total / 10}))
	if _, err := w.Run(inputs); !errors.Is(err, checkpoint.ErrPaused) {
		t.Fatalf("whole-film segment: %v", err)
	}
	_, err := checkpointedXOR(t, checkpoint.Config{Dir: dir, Resume: true}).Run(inputs)
	if err == nil || !strings.Contains(err.Error(), "the mirror half of the film") {
		t.Fatalf("whole-film checkpoint of 10 resumed: %v", err)
	}
}
