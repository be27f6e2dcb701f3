package fleet

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spinwave/internal/fleet/faults"
	"spinwave/internal/journal"
	"spinwave/internal/obs"
)

// promDump renders the default registry's Prometheus exposition.
func promDump(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// collectEvents runs fn with a ring sink attached to the default
// journal and returns the events it emitted.
func collectEvents(t *testing.T, fn func()) []journal.Event {
	t.Helper()
	ring := journal.NewRingSink(64)
	detach := journal.Default().Attach(ring)
	defer detach()
	fn()
	return ring.Events()
}

// eventsNamed filters the captured events by name.
func eventsNamed(events []journal.Event, name string) []journal.Event {
	var out []journal.Event
	for _, e := range events {
		if e.Name == name {
			out = append(out, e)
		}
	}
	return out
}

// TestCoordinatorMintsTrace pins the correlation contract: every job of
// a request carries the request's trace, the trace survives a
// coordinator rebuild from the job files, and the status surfaces it.
func TestCoordinatorMintsTrace(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(q)
	st, err := c.Submit(JobSpec{Gate: "xor"}, [][]bool{{false, false}, {true, false}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Trace == "" {
		t.Fatal("Submit minted no trace")
	}
	for _, jb := range st.Jobs {
		j, ok := q.Get(jb.ID)
		if !ok || j.Trace != st.Trace {
			t.Fatalf("job %s trace = %q, want %q", jb.ID, j.Trace, st.Trace)
		}
	}

	// A rebuilt coordinator recovers the trace from the durable files.
	q2, err := OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := NewCoordinator(q2).Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Trace != st.Trace {
		t.Fatalf("rebuilt trace = %q, want %q", st2.Trace, st.Trace)
	}
}

// TestChainedSegmentKeepsTrace: a transient's chained segment jobs stay
// on the trace minted at submission — the thread a post-mortem follows
// across a requeue and resume.
func TestChainedSegmentKeepsTrace(t *testing.T) {
	q, err := OpenQueue(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(q)
	st, err := c.SubmitTransient(JobSpec{Gate: "xor"}, []bool{true, false}, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	j, err := c.Claim(context.Background(), "w1")
	if err != nil || j == nil {
		t.Fatalf("Claim = %v, %v", j, err)
	}
	if j.Trace != st.Trace {
		t.Fatalf("claimed segment trace = %q, want %q", j.Trace, st.Trace)
	}
	// Intermediate segment reports a checkpoint partial; the chained
	// successor must carry the same trace.
	partial := []CaseOutcome{{Inputs: j.Cases[0], Source: SourceCheckpoint}}
	if _, err := c.IngestResult("w1", j.ID, "fp", partial, ""); err != nil {
		t.Fatal(err)
	}
	next, err := c.Claim(context.Background(), "w1")
	if err != nil || next == nil {
		t.Fatalf("chained Claim = %v, %v", next, err)
	}
	if next.Spec.Transient.Segment != 1 || next.Trace != st.Trace {
		t.Fatalf("chained segment = seg %d trace %q, want seg 1 trace %q",
			next.Spec.Transient.Segment, next.Trace, st.Trace)
	}
}

// TestFleetEventsCarryRequestAndTrace is the regression test for the
// observability fix: fleet.requeue (and the whole fleet event family)
// must name the parent request and trace, or the post-mortem grep that
// follows a job across nodes dead-ends exactly at the failure it is
// investigating.
func TestFleetEventsCarryRequestAndTrace(t *testing.T) {
	clock := faults.NewClock(time.Unix(1000, 0))
	q, err := OpenQueue(t.TempDir(), WithClock(clock), WithLease(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(q)

	var trace string
	events := collectEvents(t, func() {
		st, err := c.Submit(JobSpec{Gate: "xor"}, [][]bool{{true, false}}, 1)
		if err != nil {
			t.Fatal(err)
		}
		trace = st.Trace
		if _, err := c.Claim(context.Background(), "w1"); err != nil {
			t.Fatal(err)
		}
		clock.Advance(6 * time.Second) // expire the lease → requeue
		q.Sweep()
		j, err := c.Claim(context.Background(), "w2")
		if err != nil || j == nil {
			t.Fatalf("peer claim = %v, %v", j, err)
		}
		if _, err := c.IngestResult("w2", j.ID, "fp", testOutcomes(j.Cases), ""); err != nil {
			t.Fatal(err)
		}
	})

	for _, name := range []string{"fleet.job", "fleet.claim", "fleet.requeue", "fleet.request"} {
		matched := eventsNamed(events, name)
		if len(matched) == 0 {
			t.Fatalf("no %s events captured", name)
		}
		for _, e := range matched {
			if e.Fields["request"] == nil || e.Fields["request"] == "" {
				t.Errorf("%s event missing request: %v", name, e.Fields)
			}
			if e.Fields["trace"] != trace {
				t.Errorf("%s event trace = %v, want %q", name, e.Fields["trace"], trace)
			}
		}
	}
}

// TestQuarantineAlertNamesRequest: a quarantined file that parsed far
// enough to name its request keeps the alert joinable to it.
func TestQuarantineAlertNamesRequest(t *testing.T) {
	dir := t.TempDir()
	// Strictly invalid (unknown field) but with recoverable identity.
	bad := `{"id":"j1","request":"q123","trace":"t456","bogus":1,"spec":{"gate":"xor"},"cases":[[true]]}`
	if err := os.WriteFile(filepath.Join(dir, "j1.json"), []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	events := collectEvents(t, func() {
		if _, err := OpenQueue(dir); err != nil {
			t.Fatal(err)
		}
	})
	var found bool
	for _, e := range eventsNamed(events, "alert") {
		if e.Fields["rule"] != "fleet.quarantine" {
			continue
		}
		found = true
		if e.Fields["request"] != "q123" || e.Fields["trace"] != "t456" || e.Fields["job"] != "j1" {
			t.Fatalf("quarantine alert fields = %v", e.Fields)
		}
	}
	if !found {
		t.Fatal("no fleet.quarantine alert captured")
	}
}

// TestNodeHealthFederation: a heartbeat's engine stats surface as
// spinwave_fleet_node_engine gauges and in the snapshot's node list.
func TestNodeHealthFederation(t *testing.T) {
	q, err := OpenQueue(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(q)
	id, err := c.Register("w1", "host1", 42)
	if err != nil || id != "w1" {
		t.Fatalf("Register = %q, %v", id, err)
	}
	type engineStats struct {
		Evals  int64 `json:"evals"`
		Misses int64 `json:"misses"`
	}
	c.touch("w1", map[string]any{"engine": engineStats{Evals: 7, Misses: 2}})

	snap := c.Snapshot()
	if len(snap.Nodes) != 1 || snap.Nodes[0].ID != "w1" {
		t.Fatalf("snapshot nodes = %+v", snap.Nodes)
	}
	prom := promDump(t)
	for _, want := range []string{
		`spinwave_fleet_node_engine{node="w1",stat="evals"} 7`,
		`spinwave_fleet_node_engine{node="w1",stat="misses"} 2`,
	} {
		if !contains(prom, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
