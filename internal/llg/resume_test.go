package llg

import (
	"testing"

	"spinwave/internal/vec"
)

// snapshotState captures the checkpoint tuple (M, Time, Steps, Dt) the
// way internal/checkpoint does: a deep copy of the loop-carried solver
// state after a committed step.
type snapshotState struct {
	m     vec.Field
	time  float64
	steps int
	dt    float64
}

func capture(s *Solver) snapshotState {
	m := vec.NewField(len(s.M))
	m.Copy(s.M)
	return snapshotState{m: m, time: s.Time, steps: s.Steps(), dt: s.Dt}
}

// requireIdentical fails unless the two solvers hold bit-identical
// magnetization, time and step counters. Exact float64 equality — the
// checkpoint/resume acceptance criterion, no tolerance.
func requireIdentical(t *testing.T, label string, want, got *Solver) {
	t.Helper()
	if want.Time != got.Time {
		t.Fatalf("%s: time %v != %v", label, got.Time, want.Time)
	}
	if want.Steps() != got.Steps() {
		t.Fatalf("%s: steps %d != %d", label, got.Steps(), want.Steps())
	}
	for i := range want.M {
		if want.M[i] != got.M[i] {
			t.Fatalf("%s: M[%d] %v != %v", label, i, got.M[i], want.M[i])
		}
	}
}

// TestRunStepsResumeBitIdentical pins the fixed-step resume contract
// (DESIGN.md §15): a run of N steps split as k committed steps, a
// checkpoint, and a fresh solver resumed for N−k steps lands on exactly
// the trajectory of the uninterrupted run — including with a different
// worker count after the resume, since trajectories are worker-invariant.
func TestRunStepsResumeBitIdentical(t *testing.T) {
	const total, k = 300, 127
	base := parallelTestSolver(t, 1)
	defer base.Close()
	if err := base.RunSteps(nil, total, nil); err != nil {
		t.Fatal(err)
	}

	first := parallelTestSolver(t, 2)
	if err := first.RunSteps(nil, k, nil); err != nil {
		t.Fatal(err)
	}
	snap := capture(first)
	first.Close()
	if snap.steps != k {
		t.Fatalf("snapshot at step %d, want %d", snap.steps, k)
	}

	resumed := parallelTestSolver(t, 4)
	defer resumed.Close()
	if err := resumed.Restore(snap.m, snap.time, snap.steps, snap.dt); err != nil {
		t.Fatal(err)
	}
	if err := resumed.RunSteps(nil, total-k, nil); err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "fixed-step resume", base, resumed)
}

// TestRestoreValidation pins the Restore error cases.
func TestRestoreValidation(t *testing.T) {
	s := singleSpin(t, 0.3, 0.01, 1e-13)
	if err := s.Restore(vec.NewField(len(s.M)+1), 0, 0, 1e-13); err == nil {
		t.Error("mismatched field length accepted")
	}
	if err := s.Restore(vec.NewField(len(s.M)), 0, 0, 0); err == nil {
		t.Error("zero dt accepted")
	}
	if err := s.Restore(vec.NewField(len(s.M)), 0, -1, 1e-13); err == nil {
		t.Error("negative step count accepted")
	}
}
