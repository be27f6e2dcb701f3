package fleet

import (
	"context"
	"strings"
	"testing"
	"time"

	"spinwave/internal/detect"
	"spinwave/internal/fleet/faults"
	"spinwave/internal/obs"
)

func newTestCoordinator(t *testing.T, opts ...QueueOption) *Coordinator {
	t.Helper()
	q, err := OpenQueue(t.TempDir(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return NewCoordinator(q)
}

func xorCases() [][]bool {
	return [][]bool{{false, false}, {true, false}, {false, true}, {true, true}}
}

func TestCoordinatorShardsSubmission(t *testing.T) {
	c := newTestCoordinator(t)
	st, err := c.Submit(JobSpec{Gate: "xor"}, xorCases(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Jobs) != 4 {
		t.Fatalf("shard=1 produced %d jobs, want 4", len(st.Jobs))
	}
	if st.State != RequestPending || st.CasesTotal != 4 || st.CasesDone != 0 {
		t.Fatalf("fresh request = %+v", st)
	}

	// Uneven shard: 4 cases at 3 per job → 2 jobs.
	st2, err := c.Submit(JobSpec{Gate: "xor"}, xorCases(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Jobs) != 2 || st2.Jobs[0].Cases != 3 || st2.Jobs[1].Cases != 1 {
		t.Fatalf("shard=3 jobs = %+v", st2.Jobs)
	}
}

// drain claims and completes every pending job as the given worker.
func drain(t *testing.T, c *Coordinator, workerID, fp string) {
	t.Helper()
	for c.Queue().Stats().Pending > 0 {
		j, err := c.Claim(context.Background(), workerID)
		if err != nil || j == nil {
			t.Fatalf("Claim = %v, %v", j, err)
		}
		if _, err := c.IngestResult(workerID, j.ID, fp, testOutcomes(j.Cases), ""); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCoordinatorMergesShardedResults(t *testing.T) {
	c := newTestCoordinator(t)
	if _, err := c.Register("w1", "host", 1); err != nil {
		t.Fatal(err)
	}
	st, err := c.Submit(JobSpec{Gate: "xor"}, xorCases(), 1)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, c, "w1", "fp")
	got, err := c.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != RequestComplete || got.CasesDone != 4 {
		t.Fatalf("after drain: %s, %d/4 done", got.State, got.CasesDone)
	}
	// Results come back in submission (enumeration) order regardless of
	// completion order.
	if len(got.Results) != 4 {
		t.Fatalf("Results = %d, want 4", len(got.Results))
	}
	for i, want := range xorCases() {
		if bitString(got.Results[i].Inputs) != bitString(want) {
			t.Fatalf("result %d is for %s, want %s", i, bitString(got.Results[i].Inputs), bitString(want))
		}
	}
	snap := c.Snapshot()
	if snap.RequestsComplete != 1 || snap.DuplicateResults != 0 {
		t.Fatalf("Snapshot = %+v", snap)
	}
}

func TestCoordinatorDuplicateIngestIsIdempotent(t *testing.T) {
	c := newTestCoordinator(t)
	st, err := c.Submit(JobSpec{Gate: "xor"}, xorCases(), 4)
	if err != nil {
		t.Fatal(err)
	}
	j, err := c.Claim(context.Background(), "w1")
	if err != nil || j == nil {
		t.Fatalf("Claim = %v, %v", j, err)
	}
	res := testOutcomes(j.Cases)
	applied, err := c.IngestResult("w1", j.ID, "fp", res, "")
	if err != nil || !applied {
		t.Fatalf("first ingest = %v, %v", applied, err)
	}
	// The retried post is dropped, the request stays complete with
	// exactly one result per case.
	applied, err = c.IngestResult("w1", j.ID, "fp", res, "")
	if err != nil || applied {
		t.Fatalf("duplicate ingest = %v, %v; want false, nil", applied, err)
	}
	got, _ := c.Status(st.ID)
	if got.State != RequestComplete || len(got.Results) != 4 {
		t.Fatalf("after duplicate: %s, %d results", got.State, len(got.Results))
	}
	if c.Snapshot().DuplicateResults == 0 {
		t.Fatal("duplicate not counted")
	}
}

func TestCoordinatorRequeueOnLostWorker(t *testing.T) {
	clock := faults.NewClock(time.Unix(2000, 0))
	c := newTestCoordinator(t, WithClock(clock), WithLease(5*time.Second))
	st, err := c.Submit(JobSpec{Gate: "xor"}, xorCases(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register("w1", "", 0); err != nil {
		t.Fatal(err)
	}
	j, err := c.Claim(context.Background(), "w1")
	if err != nil || j == nil {
		t.Fatalf("Claim = %v, %v", j, err)
	}
	// w1 dies: no heartbeats, lease expires.
	clock.Advance(6 * time.Second)
	c.Queue().Sweep()

	// w1 is reported lost once lastSeen exceeds 3x lease.
	clock.Advance(10 * time.Second)
	for _, w := range c.Workers() {
		if w.ID == "w1" && w.State != "lost" {
			t.Fatalf("w1 state = %s, want lost", w.State)
		}
	}

	// The peer picks the job up and the request completes normally.
	if _, err := c.Register("w2", "", 0); err != nil {
		t.Fatal(err)
	}
	j2, err := c.Claim(context.Background(), "w2")
	if err != nil || j2 == nil || j2.ID != j.ID {
		t.Fatalf("peer Claim = %v, %v", j2, err)
	}
	if _, err := c.IngestResult("w2", j2.ID, "fp", testOutcomes(j2.Cases), ""); err != nil {
		t.Fatal(err)
	}
	got, _ := c.Status(st.ID)
	if got.State != RequestComplete {
		t.Fatalf("after peer completion: %s", got.State)
	}
	if c.Snapshot().WorkersLost != 1 {
		t.Fatalf("WorkersLost = %d, want 1", c.Snapshot().WorkersLost)
	}
}

func TestCoordinatorEvalErrorRequeuesThenFails(t *testing.T) {
	c := newTestCoordinator(t, WithMaxAttempts(2))
	st, err := c.Submit(JobSpec{Gate: "xor"}, xorCases(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		j, err := c.Claim(context.Background(), "w1")
		if err != nil || j == nil {
			t.Fatalf("claim %d = %v, %v", i, j, err)
		}
		if _, err := c.IngestResult("w1", j.ID, "", nil, "solver exploded"); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := c.Status(st.ID)
	if got.State != RequestFailed {
		t.Fatalf("after exhausted attempts: %s", got.State)
	}
}

func TestCoordinatorRebuildsFromQueue(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(q)
	st, err := c.Submit(JobSpec{Gate: "xor", Table: true}, xorCases(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Complete one of the two shards, then "restart" the coordinator.
	j, err := c.Claim(context.Background(), "w1")
	if err != nil || j == nil {
		t.Fatalf("Claim = %v, %v", j, err)
	}
	if _, err := c.IngestResult("w1", j.ID, "fp", testOutcomes(j.Cases), ""); err != nil {
		t.Fatal(err)
	}

	q2, err := OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCoordinator(q2)
	got, err := c2.Status(st.ID)
	if err != nil {
		t.Fatalf("rebuilt coordinator lost the request: %v", err)
	}
	if got.State != RequestRunning || got.CasesDone != 2 || got.CasesTotal != 4 {
		t.Fatalf("rebuilt request = %s, %d/%d", got.State, got.CasesDone, got.CasesTotal)
	}
	// Finishing the second shard on the rebuilt coordinator completes
	// the request with all four results.
	drain(t, c2, "w2", "fp")
	got, _ = c2.Status(st.ID)
	if got.State != RequestComplete || len(got.Results) != 4 {
		t.Fatalf("rebuilt completion = %s, %d results", got.State, len(got.Results))
	}
}

func TestCoordinatorStatusUnknown(t *testing.T) {
	c := newTestCoordinator(t)
	if _, err := c.Status("nope"); err == nil {
		t.Fatal("Status of unknown request succeeded")
	}
}

func TestLostWorkerGaugesAgedOut(t *testing.T) {
	clock := faults.NewClock(time.Unix(3000, 0))
	c := newTestCoordinator(t, WithClock(clock), WithLease(5*time.Second))
	if _, err := c.Register("wfade", "", 0); err != nil {
		t.Fatal(err)
	}
	c.touch("wfade", map[string]any{"engine": map[string]any{"evals": 7.0}})

	expose := func() string {
		var b strings.Builder
		obs.Default().WritePrometheus(&b)
		return b.String()
	}
	series := `spinwave_fleet_node_engine{node="wfade",stat="evals"}`
	if !strings.Contains(expose(), series) {
		t.Fatal("heartbeat did not export the node gauge")
	}

	// Past the lost threshold, computing worker states ages the node's
	// gauges out of the exposition.
	clock.Advance(16 * time.Second)
	ws := c.Workers()
	if len(ws) != 1 || ws[0].State != "lost" {
		t.Fatalf("worker state = %+v, want lost", ws)
	}
	if strings.Contains(expose(), series) {
		t.Fatal("lost worker's gauge still exposed")
	}
	// Idempotent: a second pass has nothing left to drop.
	c.Workers()

	// The node comes back: a fresh health heartbeat re-exports.
	c.touch("wfade", map[string]any{"engine": map[string]any{"evals": 9.0}})
	if !strings.Contains(expose(), series+" 9") {
		t.Fatal("returning worker's gauge not re-exported")
	}
}

func TestCoordinatorOnCompleteHook(t *testing.T) {
	c := newTestCoordinator(t)
	var got []CompletedRequest
	c.OnComplete = func(cr CompletedRequest) { got = append(got, cr) }

	st, err := c.Submit(JobSpec{Gate: "xor", Backend: "behavioral"}, xorCases(), 4)
	if err != nil {
		t.Fatal(err)
	}
	c.Register("w1", "", 0)
	j, err := c.Claim(context.Background(), "w1")
	if err != nil || j == nil {
		t.Fatalf("claim: %v", err)
	}
	results := make([]CaseOutcome, len(j.Cases))
	for i, in := range j.Cases {
		results[i] = CaseOutcome{Inputs: in, Source: "behavioral",
			Outputs: map[string]detect.Readout{"O": {}}}
	}
	if _, err := c.IngestResult("w1", j.ID, "fp1", results, ""); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("OnComplete fired %d times, want 1", len(got))
	}
	cr := got[0]
	if cr.ID != st.ID || cr.Trace != st.Trace || cr.Gate != "xor" ||
		cr.Fingerprint != "fp1" || cr.Cases != 4 || cr.Tier != "behavioral" {
		t.Fatalf("CompletedRequest = %+v", cr)
	}
	if cr.CompletedNS < cr.SubmittedNS {
		t.Fatalf("completion before submission: %+v", cr)
	}

	// Requests in flight are active; completed ones are not.
	if traces := c.ActiveTraces(); len(traces) != 0 {
		t.Fatalf("ActiveTraces after completion = %v", traces)
	}
	st2, _ := c.Submit(JobSpec{Gate: "maj3"}, xorCases(), 4)
	if traces := c.ActiveTraces(); !traces[st2.Trace] {
		t.Fatalf("in-flight trace missing from ActiveTraces: %v", traces)
	}
}
