package llg

import (
	"context"
	"testing"

	"spinwave/internal/grid"
	"spinwave/internal/health"
	"spinwave/internal/journal"
	"spinwave/internal/material"
	"spinwave/internal/vec"
)

// countingObserver records the step numbers and times it was called with.
type countingObserver struct {
	steps []int
	times []float64
}

func (o *countingObserver) ObserveStep(step int, t float64, m vec.Field) {
	o.steps = append(o.steps, step)
	o.times = append(o.times, t)
}

// TestObserverCumulativeSteps checks the observer sees the solver's
// cumulative step counter (continuous across Run calls, so probe stride
// decimation does not reset between the transient and measure phases)
// and the post-step simulation time.
func TestObserverCumulativeSteps(t *testing.T) {
	s := singleSpin(t, 0.1, 0.01, 1e-13)
	obs := &countingObserver{}
	s.SetObserver(obs)
	s.Run(5e-13, nil)
	s.Run(3e-13, nil)
	if len(obs.steps) != s.Steps() || s.Steps() < 6 {
		t.Fatalf("observer called %d times over %d solver steps", len(obs.steps), s.Steps())
	}
	for i, st := range obs.steps {
		if st != i+1 {
			t.Fatalf("observation %d has step %d, want %d (cumulative across Run calls)", i, st, i+1)
		}
	}
	if obs.times[0] != s.Dt {
		t.Errorf("first observed time %g, want dt=%g", obs.times[0], s.Dt)
	}
	seen := len(obs.steps)
	s.SetObserver(nil)
	s.Run(2e-13, nil)
	if len(obs.steps) != seen {
		t.Error("observer still called after removal")
	}
}

// TestObserverResumedRun checks that a fixed-step run resumed from a
// restored state hands every committed step to the observer once and in
// order, continuing the restored step count, and that an observer which
// journals — the health monitor — reports under its run ID having seen
// every step, with a healthy verdict.
func TestObserverResumedRun(t *testing.T) {
	mesh := grid.MustMesh(4, 4, 2e-9, 2e-9, 1e-9)
	s, err := New(mesh, grid.FullRegion(mesh), material.FeCoB(), 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	const restored, n = 5, 20
	if err := s.Restore(s.M, restored*s.Dt, restored, s.Dt); err != nil {
		t.Fatal(err)
	}
	obs := &countingObserver{}
	mon := health.NewMonitor(health.Config{Enabled: true, Every: 4, StallAfter: -1}, s.Region, "rtest")
	s.SetObserver(TeeObserver{obs, mon})
	ring := journal.NewRingSink(64)
	defer journal.Default().Attach(ring)()

	if err := s.RunSteps(context.Background(), n, nil); err != nil {
		t.Fatal(err)
	}
	rep := mon.Finish()
	if len(obs.steps) != n {
		t.Fatalf("observed %d steps, ran %d", len(obs.steps), n)
	}
	for i, st := range obs.steps {
		if st != restored+1+i {
			t.Fatalf("observed steps %v, want %d..%d", obs.steps, restored+1, restored+n)
		}
		if i > 0 && obs.times[i] <= obs.times[i-1] {
			t.Fatalf("observed times not increasing: %v", obs.times)
		}
	}
	if rep.Verdict != "healthy" || len(rep.Alerts) != 0 || rep.Steps != restored+n {
		t.Errorf("report %+v, want healthy at step %d with no alerts", rep, restored+n)
	}
	evs := ring.EventsFor("rtest")
	if len(evs) != 1 || evs[0].Name != "health.verdict" {
		t.Fatalf("journal events %+v, want one health.verdict", evs)
	}
	// Steps 8, 12, ..., 24 are on the monitor's 4-step cadence.
	if got := evs[0].Fields["checks"]; got != int64(5) {
		t.Errorf("journaled checks = %v (%T), want 5", got, got)
	}
}

// nopObserver is the cheapest possible observer, used to price the hook.
type nopObserver struct{ calls int }

func (o *nopObserver) ObserveStep(int, float64, vec.Field) { o.calls++ }

// TestRunObservedAllocates pins that the observer dispatch itself adds
// no allocation to the run loop (the probe package separately pins that
// Recorder.ObserveStep is allocation-free).
func TestRunObservedAllocates(t *testing.T) {
	s := singleSpin(t, 0.1, 0.01, 1e-13)
	s.Run(1e-12, nil) // warm up scratch state
	obs := &nopObserver{}
	s.SetObserver(obs)
	allocs := testing.AllocsPerRun(10, func() {
		s.Step()
		obs.ObserveStep(s.Steps(), s.Time, s.M)
	})
	if allocs > 0 {
		t.Errorf("observed stepping allocates %g per step, want 0", allocs)
	}
}
