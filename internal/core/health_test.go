package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"spinwave/internal/health"
	"spinwave/internal/journal"
	"spinwave/internal/obs"
	"spinwave/internal/probe"
)

// TestHealthDestabilizedRunE2E is the acceptance end-to-end: a dt
// scaled far past the stability bound destabilizes the fused
// integrator, and the streaming monitor must (1) fire a critical
// saturation alert into the journal, (2) record a violated
// health.verdict, (3) abort the run with a non-nil error — the signal
// the swsim/swtables -health flag turns into a non-zero exit — and
// (4) increment the critical alert counter in the metrics registry.
// The run aborts within one sweep cadence of the blow-up, so the test
// is fast enough to run un-short.
func TestHealthDestabilizedRunE2E(t *testing.T) {
	ring := journal.NewRingSink(128)
	defer journal.Default().Attach(ring)()
	critBefore := obs.Default().Counter("spinwave_health_alerts_total",
		obs.L("rule", health.RuleSaturation), obs.L("severity", "critical")).Value()

	m, err := NewMicromagnetic(XOR, WithDtScale(20),
		WithHealth(health.Config{Enabled: true, AbortOnCritical: true}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run([]bool{true, false})
	if err == nil {
		t.Fatal("destabilized run completed without a health abort")
	}
	if !strings.Contains(err.Error(), "aborted") || !strings.Contains(err.Error(), health.RuleSaturation) {
		t.Fatalf("abort error %q does not name the critical saturation alert", err)
	}

	// Journal: a critical alert followed by the violated verdict.
	var runID string
	var sawCritical, sawViolated bool
	for _, e := range ring.Events() {
		switch e.Name {
		case "alert":
			if e.Fields["severity"] == "critical" {
				sawCritical = true
				runID = e.Run
			}
		case "health.verdict":
			if e.Fields["verdict"] == "violated" {
				sawViolated = true
			}
		}
	}
	if !sawCritical || !sawViolated {
		t.Errorf("journal critical=%v violated=%v, want both (events: %+v)",
			sawCritical, sawViolated, ring.Events())
	}

	// Registry: the published report carries the violated verdict — the
	// exact signal healthExit() in the CLIs maps to a non-zero exit.
	rep, ok := health.Default().Get(runID)
	if !ok || rep.Verdict != health.Violated.String() {
		t.Errorf("health report for %s = %+v ok=%v, want violated", runID, rep, ok)
	}

	// Metrics: the critical counter moved.
	critAfter := obs.Default().Counter("spinwave_health_alerts_total",
		obs.L("rule", health.RuleSaturation), obs.L("severity", "critical")).Value()
	if critAfter <= critBefore {
		t.Errorf("critical alert counter %d -> %d, want an increment", critBefore, critAfter)
	}
}

// TestHealthyRunVerdict checks a sane run under full monitoring
// finishes healthy with zero alerts and an intact readout.
func TestHealthyRunVerdict(t *testing.T) {
	if testing.Short() {
		t.Skip("micromagnetic integration test")
	}
	ring := journal.NewRingSink(128)
	defer journal.Default().Attach(ring)()
	m, err := NewMicromagnetic(XOR, WithHealth(health.Config{Enabled: true, AbortOnCritical: true}))
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.Run([]bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no readout")
	}
	for _, e := range ring.Events() {
		if e.Name == "alert" {
			t.Errorf("healthy run fired alert %+v", e.Fields)
		}
		if e.Name == "health.verdict" && e.Fields["verdict"] != "healthy" {
			t.Errorf("verdict %v, want healthy", e.Fields["verdict"])
		}
	}
}

// TestWorkerInvarianceWithMonitor pins the worker-count bit-identity
// guarantee on the gate mesh over a full transient, with and without
// the health monitor attached: every (workers, monitor) pair must land
// on the serial unmonitored final magnetization exactly. The monitor
// observes the committed field, never touches it.
func TestWorkerInvarianceWithMonitor(t *testing.T) {
	if testing.Short() {
		t.Skip("micromagnetic integration test")
	}
	run := func(workers int, monitor bool) []float64 {
		m, err := NewMicromagnetic(XOR, WithWorkers(workers), WithHealth(health.Config{Enabled: monitor}))
		if err != nil {
			t.Fatal(err)
		}
		field, _, _, err := m.Snapshot([]bool{true, false})
		if err != nil {
			t.Fatal(err)
		}
		flat := make([]float64, 0, 3*len(field))
		for _, v := range field {
			flat = append(flat, v.X, v.Y, v.Z)
		}
		return flat
	}
	serial := run(1, false)
	for _, workers := range []int{4, 8} {
		for _, monitor := range []bool{true, false} {
			parallel := run(workers, monitor)
			if len(serial) != len(parallel) {
				t.Fatalf("workers=%d monitor=%v: snapshot sizes differ", workers, monitor)
			}
			for i := range serial {
				if serial[i] != parallel[i] {
					t.Fatalf("workers=%d monitor=%v: trajectory diverges from serial at component %d: %g vs %g",
						workers, monitor, i, serial[i], parallel[i])
				}
			}
		}
	}
}

// TestHealthExcludedFromFingerprint pins the cache-key contract:
// enabling monitoring must not split the engine cache (observation
// only), while DtScale — which changes the trajectory — must.
func TestHealthExcludedFromFingerprint(t *testing.T) {
	mk := func(opts ...MicromagOption) string {
		m, err := NewMicromagnetic(XOR, opts...)
		if err != nil {
			t.Fatal(err)
		}
		fp, ok := m.Fingerprint()
		if !ok {
			t.Fatal("no fingerprint")
		}
		return fp
	}
	plain := mk()
	if mk(WithHealth(health.Config{Enabled: true, AbortOnCritical: true})) != plain {
		t.Error("enabling health monitoring changed the fingerprint")
	}
	if mk(WithDtScale(0.5)) == plain {
		t.Error("DtScale not reflected in the fingerprint")
	}
}

// TestHalfDomainObservers: a mirror-symmetric case steps the half mesh,
// and its observers still see the whole device — the flight recorder
// publishes O2, sample for sample equal to O1, and the health monitor
// watching the half mesh returns a healthy verdict.
func TestHalfDomainObservers(t *testing.T) {
	if testing.Short() {
		t.Skip("micromagnetic integration test")
	}
	m, err := NewMicromagnetic(XOR,
		WithProbes(probe.Config{Enabled: true}),
		WithHealth(health.Config{Enabled: true, AbortOnCritical: true}))
	if err != nil {
		t.Fatal(err)
	}
	if !m.HalfDomain([]bool{true, true}) {
		t.Fatal("XOR 11 does not step the half mesh")
	}
	runID := journal.NewRunID()
	if _, err := m.RunContext(journal.WithRunID(context.Background(), runID), []bool{true, true}); err != nil {
		t.Fatal(err)
	}
	rec, ok := probe.Default().Get(runID)
	if !ok {
		t.Fatal("no flight recorder published")
	}
	o1, ok1 := rec.Series("O1")
	o2, ok2 := rec.Series("O2")
	if !ok1 || !ok2 || len(o1.MX) == 0 {
		t.Fatalf("recorder holds %v (O1 %v, O2 %v)", rec.Names(), ok1, ok2)
	}
	o2.Name = o1.Name
	if !reflect.DeepEqual(o1, o2) {
		t.Fatal("half-mesh O2 series differs from O1")
	}
	rep, ok := health.Default().Get(runID)
	if !ok || rep.Verdict != "healthy" || len(rep.Alerts) > 0 {
		t.Fatalf("health report %+v (published %v), want healthy without alerts", rep, ok)
	}
}
