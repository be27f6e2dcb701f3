package fleet

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"spinwave/internal/detect"
	"spinwave/internal/fleet/faults"
	"spinwave/internal/journal"
)

// testOutcomes fabricates one outcome per case with a distinctive
// amplitude, so tests can verify the right results landed.
func testOutcomes(cases [][]bool) []CaseOutcome {
	out := make([]CaseOutcome, len(cases))
	for i, c := range cases {
		out[i] = CaseOutcome{
			Inputs:  c,
			Outputs: map[string]detect.Readout{"O1": {Probe: "O1", Amplitude: float64(i + 1)}},
			Source:  "behavioral",
		}
	}
	return out
}

func openTestQueue(t *testing.T, opts ...QueueOption) *Queue {
	t.Helper()
	q, err := OpenQueue(t.TempDir(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestQueueLifecycle(t *testing.T) {
	q := openTestQueue(t)
	job := &Job{Spec: JobSpec{Gate: "xor"}, Cases: [][]bool{{false, false}, {true, false}}}
	if err := q.Submit(job); err != nil {
		t.Fatal(err)
	}
	if job.ID == "" {
		t.Fatal("Submit did not assign an ID")
	}

	claimed, _, err := q.Claim("w1")
	if err != nil {
		t.Fatal(err)
	}
	if claimed == nil || claimed.ID != job.ID {
		t.Fatalf("Claim = %+v, want job %s", claimed, job.ID)
	}
	if claimed.Status != JobClaimed || claimed.Worker != "w1" || claimed.Attempts != 1 {
		t.Fatalf("claimed job state = %s/%s/%d", claimed.Status, claimed.Worker, claimed.Attempts)
	}

	// Second claim finds nothing: the only job is leased.
	if again, _, err := q.Claim("w2"); err != nil || again != nil {
		t.Fatalf("second Claim = %v, %v; want nil, nil", again, err)
	}

	if err := q.Heartbeat(job.ID, "w1"); err != nil {
		t.Fatal(err)
	}
	if err := q.Heartbeat(job.ID, "w2"); !errors.Is(err, ErrStaleClaim) {
		t.Fatalf("foreign heartbeat err = %v, want ErrStaleClaim", err)
	}

	applied, err := q.Complete(job.ID, "w1", "fp1", testOutcomes(job.Cases))
	if err != nil || !applied {
		t.Fatalf("Complete = %v, %v; want true, nil", applied, err)
	}
	got, ok := q.Get(job.ID)
	if !ok || got.Status != JobDone || got.Fingerprint != "fp1" || len(got.Results) != 2 {
		t.Fatalf("done job = %+v", got)
	}

	st := q.Stats()
	if st.Done != 1 || st.Pending != 0 || st.Claimed != 0 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestQueueDuplicateCompleteIsDropped(t *testing.T) {
	q := openTestQueue(t)
	job := &Job{Spec: JobSpec{Gate: "xor"}, Cases: [][]bool{{true, true}}}
	if err := q.Submit(job); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Claim("w1"); err != nil {
		t.Fatal(err)
	}
	res := testOutcomes(job.Cases)
	if applied, err := q.Complete(job.ID, "w1", "fp", res); err != nil || !applied {
		t.Fatalf("first Complete = %v, %v", applied, err)
	}
	// The duplicate — a retried HTTP call or a requeue-race peer — is
	// counted, not double-applied, and not an error.
	dup := testOutcomes(job.Cases)
	dup[0].Outputs["O1"] = detect.Readout{Probe: "O1", Amplitude: 999}
	if applied, err := q.Complete(job.ID, "w2", "fp", dup); err != nil || applied {
		t.Fatalf("duplicate Complete = %v, %v; want false, nil", applied, err)
	}
	got, _ := q.Get(job.ID)
	if got.Results[0].Outputs["O1"].Amplitude == 999 {
		t.Fatal("duplicate result overwrote the stored one")
	}
}

func TestQueueLeaseExpiryRequeues(t *testing.T) {
	clock := faults.NewClock(time.Unix(1000, 0))
	q := openTestQueue(t, WithClock(clock), WithLease(10*time.Second))
	job := &Job{Spec: JobSpec{Gate: "maj3"}, Cases: [][]bool{{false, false, false}}}
	if err := q.Submit(job); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Claim("w1"); err != nil {
		t.Fatal(err)
	}
	// Freeze heartbeats (the clock only moves when advanced) and expire
	// the lease.
	if requeued := q.Sweep(); len(requeued) != 0 {
		t.Fatalf("premature sweep requeued %v", requeued)
	}
	clock.Advance(11 * time.Second)
	requeued := q.Sweep()
	if len(requeued) != 1 || requeued[0] != job.ID {
		t.Fatalf("Sweep = %v, want [%s]", requeued, job.ID)
	}
	got, _ := q.Get(job.ID)
	if got.Status != JobPending || got.Worker != "" {
		t.Fatalf("requeued job = %s/%q", got.Status, got.Worker)
	}

	// A peer claims it (attempt 2) and completes it.
	claimed, _, err := q.Claim("w2")
	if err != nil || claimed == nil {
		t.Fatalf("peer Claim = %v, %v", claimed, err)
	}
	if claimed.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", claimed.Attempts)
	}
	if applied, err := q.Complete(job.ID, "w2", "fp", testOutcomes(job.Cases)); err != nil || !applied {
		t.Fatalf("peer Complete = %v, %v", applied, err)
	}
	if q.Stats().Requeues != 1 {
		t.Fatalf("Requeues = %d, want 1", q.Stats().Requeues)
	}
}

func TestQueueExhaustedAttemptsFailTerminally(t *testing.T) {
	clock := faults.NewClock(time.Unix(1000, 0))
	q := openTestQueue(t, WithClock(clock), WithLease(time.Second), WithMaxAttempts(2))
	job := &Job{Spec: JobSpec{Gate: "xor"}, Cases: [][]bool{{false, true}}}
	if err := q.Submit(job); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if j, _, err := q.Claim("w1"); err != nil || j == nil {
			t.Fatalf("claim %d = %v, %v", i, j, err)
		}
		clock.Advance(2 * time.Second)
		q.Sweep()
	}
	got, _ := q.Get(job.ID)
	if got.Status != JobFailed || got.Error == "" {
		t.Fatalf("after exhausting attempts: %s (%q)", got.Status, got.Error)
	}
	// A terminal job refuses late results.
	if _, err := q.Complete(job.ID, "w1", "fp", testOutcomes(job.Cases)); err == nil {
		t.Fatal("Complete on a failed job succeeded")
	}
}

func TestQueueRestartRecovers(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	j1 := &Job{Spec: JobSpec{Gate: "xor"}, Cases: [][]bool{{false, false}}}
	j2 := &Job{Spec: JobSpec{Gate: "xor"}, Cases: [][]bool{{true, true}}}
	if err := q.Submit(j1); err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(j2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Claim("w1"); err != nil {
		t.Fatal(err)
	}
	if applied, err := q.Complete(j1.ID, "w1", "fp", testOutcomes(j1.Cases)); err != nil || !applied {
		t.Fatalf("Complete = %v, %v", applied, err)
	}

	// A fresh queue over the same directory sees the same state,
	// including the completed job's results.
	q2, err := OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	g1, ok := q2.Get(j1.ID)
	if !ok || g1.Status != JobDone || len(g1.Results) != 1 {
		t.Fatalf("recovered done job = %+v", g1)
	}
	g2, ok := q2.Get(j2.ID)
	if !ok || g2.Status != JobPending {
		t.Fatalf("recovered pending job = %+v", g2)
	}
}

func TestQueueLoadsHandWrittenFile(t *testing.T) {
	dir := t.TempDir()
	// The minimal hand-written job: no id (the file name is it), no
	// status, no version.
	raw := `{"spec":{"gate":"xor"},"cases":[[true,false],[false,true]]}`
	if err := os.WriteFile(filepath.Join(dir, "my-sweep.json"), []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	q, err := OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, ok := q.Get("my-sweep")
	if !ok {
		t.Fatal("hand-written job not loaded")
	}
	if j.Status != JobPending || j.MaxAttempts != DefaultMaxAttempts || len(j.Cases) != 2 {
		t.Fatalf("hand-written job = %+v", j)
	}
}

func TestQueueQuarantinesCorruptFile(t *testing.T) {
	dir := t.TempDir()
	good := `{"spec":{"gate":"xor"},"cases":[[true,false]]}`
	if err := os.WriteFile(filepath.Join(dir, "good.json"), []byte(good), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(good), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := faults.Corrupt(bad); err != nil {
		t.Fatal(err)
	}

	ring := journal.NewRingSink(16)
	detach := journal.Default().Attach(ring)
	defer detach()

	q, err := OpenQueue(dir)
	if err != nil {
		t.Fatalf("corrupt file crashed the open: %v", err)
	}
	if _, ok := q.Get("good"); !ok {
		t.Fatal("good job lost alongside the corrupt one")
	}
	if q.Stats().Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", q.Stats().Quarantined)
	}
	if _, err := os.Stat(bad + ".quarantined"); err != nil {
		t.Fatalf("corrupt file not renamed aside: %v", err)
	}
	// A rescan does not re-quarantine (the .quarantined suffix is
	// ignored) — no crash loop.
	q2, err := OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Stats().Quarantined != 0 {
		t.Fatalf("rescan re-quarantined: %d", q2.Stats().Quarantined)
	}

	// The quarantine raised a journalcheck-valid alert.
	var found bool
	for _, e := range ring.Events() {
		if e.Name != "alert" {
			continue
		}
		if e.Fields["rule"] == "fleet.quarantine" && e.Fields["severity"] == "warn" {
			found = true
		}
	}
	if !found {
		t.Fatal("no fleet.quarantine alert in the journal")
	}
}

func TestQueueAtomicPersistence(t *testing.T) {
	q := openTestQueue(t)
	job := &Job{Spec: JobSpec{Gate: "xor"}, Cases: [][]bool{{false, false}}}
	if err := q.Submit(job); err != nil {
		t.Fatal(err)
	}
	// No temp files linger after a transition, and the job file is
	// complete valid JSON at rest.
	entries, err := os.ReadDir(q.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range entries {
		if filepath.Ext(de.Name()) == ".tmp" {
			t.Fatalf("temp file left behind: %s", de.Name())
		}
	}
	buf, err := os.ReadFile(filepath.Join(q.Dir(), job.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatalf("job file is not valid JSON: %v", err)
	}
	if _, err := ParseJobFile(buf); err != nil {
		t.Fatalf("persisted job file fails its own parser: %v", err)
	}
}

func TestQueueWritableProbe(t *testing.T) {
	q := openTestQueue(t)
	if err := q.WritableProbe(); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(q.Dir(), 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(q.Dir(), 0o755)
	if os.Getuid() == 0 {
		t.Skip("running as root: chmod cannot make the dir unwritable")
	}
	if err := q.WritableProbe(); err == nil {
		t.Fatal("WritableProbe passed on a read-only dir")
	}
}

func TestQueueCompleteValidatesResults(t *testing.T) {
	q := openTestQueue(t)
	job := &Job{Spec: JobSpec{Gate: "xor"}, Cases: [][]bool{{false, false}, {true, true}}}
	if err := q.Submit(job); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Claim("w1"); err != nil {
		t.Fatal(err)
	}
	// Wrong count.
	if _, err := q.Complete(job.ID, "w1", "fp", testOutcomes(job.Cases[:1])); err == nil {
		t.Fatal("short result set accepted")
	}
	// Right count, wrong case.
	bad := testOutcomes([][]bool{{false, false}, {false, true}})
	if _, err := q.Complete(job.ID, "w1", "fp", bad); err == nil {
		t.Fatal("result for a foreign case accepted")
	}
	if _, err := q.Complete("nope", "w1", "fp", nil); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("unknown job err = %v, want ErrNoSuchJob", err)
	}
}
