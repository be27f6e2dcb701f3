package fleet

import (
	"context"
	"testing"

	"spinwave/internal/detect"
)

// partialOutcome is what an intermediate transient segment posts: the
// case with no readouts, only a durable checkpoint behind it.
func partialOutcome(inputs []bool) []CaseOutcome {
	return []CaseOutcome{{Inputs: inputs, Source: SourceCheckpoint}}
}

func finalOutcome(inputs []bool) []CaseOutcome {
	return []CaseOutcome{{
		Inputs:  inputs,
		Outputs: map[string]detect.Readout{"O1": {Probe: "O1", Amplitude: 0.5}},
		Source:  "micromag",
	}}
}

func TestTransientSegmentsChain(t *testing.T) {
	c := newTestCoordinator(t)
	inputs := []bool{true, false}
	st, err := c.SubmitTransient(JobSpec{Gate: "xor", Backend: "micromag", DtScale: 0.5}, inputs, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if st.Run == "" {
		t.Fatal("no run ID minted")
	}
	if st.CasesTotal != 1 || len(st.Jobs) != 1 {
		t.Fatalf("fresh transient = %+v", st)
	}

	// Segments 0 and 1 post checkpoint partials; each chains the next.
	for seg := 0; seg < 2; seg++ {
		j, err := c.Claim(context.Background(), "w1")
		if err != nil || j == nil {
			t.Fatalf("claim segment %d: %v, %v", seg, j, err)
		}
		ts := j.Spec.Transient
		if ts == nil || ts.Segment != seg || ts.Segments != 3 || ts.Run != st.Run || ts.EverySteps != 100 {
			t.Fatalf("segment %d spec = %+v", seg, ts)
		}
		if j.Spec.DtScale != 0.5 {
			t.Fatalf("segment %d lost dt_scale: %+v", seg, j.Spec)
		}
		if _, err := c.IngestResult("w1", j.ID, "fp", partialOutcome(inputs), ""); err != nil {
			t.Fatal(err)
		}
		mid, _ := c.Status(st.ID)
		if mid.CasesDone != 0 {
			t.Fatalf("partial after segment %d counted as done: %+v", seg, mid)
		}
	}

	// The final segment carries the readouts and completes the request.
	j, err := c.Claim(context.Background(), "w2")
	if err != nil || j == nil {
		t.Fatalf("claim final segment: %v, %v", j, err)
	}
	if ts := j.Spec.Transient; ts.Segment != 2 {
		t.Fatalf("final segment = %+v", ts)
	}
	if _, err := c.IngestResult("w2", j.ID, "fp", finalOutcome(inputs), ""); err != nil {
		t.Fatal(err)
	}
	got, _ := c.Status(st.ID)
	if got.State != RequestComplete || got.CasesDone != 1 || len(got.Results) != 1 {
		t.Fatalf("after final segment: %+v", got)
	}
	if got.Results[0].Outputs["O1"].Amplitude != 0.5 {
		t.Fatalf("merged result = %+v", got.Results[0])
	}
	if len(got.Jobs) != 3 {
		t.Fatalf("request tracked %d jobs, want 3", len(got.Jobs))
	}
	// No further job is chained past the final segment.
	if n := c.Queue().Stats().Pending; n != 0 {
		t.Fatalf("chained past the final segment: %d jobs pending", n)
	}
}

func TestTransientDuplicateResultChainsOnce(t *testing.T) {
	c := newTestCoordinator(t)
	inputs := []bool{true, true}
	st, err := c.SubmitTransient(JobSpec{Gate: "xor"}, inputs, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	j, err := c.Claim(context.Background(), "w1")
	if err != nil || j == nil {
		t.Fatal("no segment-0 claim")
	}
	if _, err := c.IngestResult("w1", j.ID, "fp", partialOutcome(inputs), ""); err != nil {
		t.Fatal(err)
	}
	// A retried post is idempotent: no second chain of segment 1.
	if applied, err := c.IngestResult("w1", j.ID, "fp", partialOutcome(inputs), ""); err != nil || applied {
		t.Fatalf("duplicate ingest = %v, %v", applied, err)
	}
	got, _ := c.Status(st.ID)
	if len(got.Jobs) != 2 {
		t.Fatalf("tracked %d jobs after duplicate ingest, want 2", len(got.Jobs))
	}
}

// TestTransientRebuildRechains pins crash recovery: a coordinator that
// dies between an intermediate segment's completion and the successor's
// submission must re-chain the missing segment at rebuild.
func TestTransientRebuildRechains(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(q)
	inputs := []bool{false, true}
	st, err := c.SubmitTransient(JobSpec{Gate: "xor"}, inputs, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	j, err := c.Claim(context.Background(), "w1")
	if err != nil || j == nil {
		t.Fatal("no segment-0 claim")
	}
	// Complete segment 0 on the queue alone — simulating a crash before
	// the coordinator's chain step ran — then rebuild.
	if _, err := q.Complete(j.ID, "w1", "fp", partialOutcome(inputs)); err != nil {
		t.Fatal(err)
	}
	q2, err := OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCoordinator(q2)
	got, err := c2.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.CasesTotal != 1 {
		t.Fatalf("rebuilt transient inflated cases: %+v", got)
	}
	if got.Run != st.Run {
		t.Fatalf("rebuilt run ID = %q, want %q", got.Run, st.Run)
	}
	next, err := c2.Claim(context.Background(), "w2")
	if err != nil || next == nil {
		t.Fatalf("rebuild did not re-chain segment 1: %v, %v", next, err)
	}
	if ts := next.Spec.Transient; ts == nil || ts.Segment != 1 {
		t.Fatalf("re-chained job = %+v", next.Spec)
	}
	if _, err := c2.IngestResult("w2", next.ID, "fp", finalOutcome(inputs), ""); err != nil {
		t.Fatal(err)
	}
	got, _ = c2.Status(st.ID)
	if got.State != RequestComplete {
		t.Fatalf("after re-chained completion: %+v", got)
	}
}

func TestTransientJobValidation(t *testing.T) {
	bad := map[string]string{
		"missing run":    `{"spec":{"gate":"xor","transient":{"run":"","segment":0,"segments":2}},"cases":[[true,false]]}`,
		"segment range":  `{"spec":{"gate":"xor","transient":{"run":"r1","segment":2,"segments":2}},"cases":[[true,false]]}`,
		"zero segments":  `{"spec":{"gate":"xor","transient":{"run":"r1","segment":0,"segments":0}},"cases":[[true,false]]}`,
		"negative every": `{"spec":{"gate":"xor","transient":{"run":"r1","segment":0,"segments":2,"every_steps":-5}},"cases":[[true,false]]}`,
		"two cases":      `{"spec":{"gate":"xor","transient":{"run":"r1","segment":0,"segments":2}},"cases":[[true,false],[false,true]]}`,
		"bad dt_scale":   `{"spec":{"gate":"xor","dt_scale":-1},"cases":[[true,false]]}`,
	}
	for name, doc := range bad {
		if _, err := ParseJobFile([]byte(doc)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	good := `{"spec":{"gate":"xor","dt_scale":0.2,"transient":{"run":"r1","segment":1,"segments":3,"every_steps":100}},"cases":[[true,false]]}`
	j, err := ParseJobFile([]byte(good))
	if err != nil {
		t.Fatalf("valid transient job rejected: %v", err)
	}
	if j.Spec.Transient.Segments != 3 || j.Spec.DtScale != 0.2 {
		t.Fatalf("parsed = %+v", j.Spec)
	}
}
