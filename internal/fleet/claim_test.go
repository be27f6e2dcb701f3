package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"spinwave/internal/fleet/faults"
)

// claimPrompt bounds how long a waiting claim may take to see a job
// that just became pending. The claim wait at the default lease is
// 3 s, which is what an idle worker used to sleep between polls.
const claimPrompt = 250 * time.Millisecond

// claimCount counts the claim calls a coordinator received and those
// open at it right now.
type claimCount struct{ started, open atomic.Int64 }

// claimCounter wraps the coordinator mux with a claimCount.
func claimCounter(h http.Handler) (http.Handler, *claimCount) {
	n := &claimCount{}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/fleet/claim" {
			n.started.Add(1)
			n.open.Add(1)
			defer n.open.Add(-1)
		}
		h.ServeHTTP(w, r)
	}), n
}

// waitUntil polls cond every millisecond until it holds (fatal after 5 s).
func waitUntil(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
		time.Sleep(time.Millisecond)
	}
}

// submitAndTime submits one XOR case and returns how long the request
// took to complete.
func submitAndTime(t *testing.T, c *Coordinator) (*RequestStatus, time.Duration) {
	t.Helper()
	start := time.Now()
	st, err := c.Submit(JobSpec{Gate: "xor"}, [][]bool{{true, false}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool {
		cur, _ := c.Status(st.ID)
		return cur != nil && cur.State == RequestComplete
	}, "request never completed")
	cur, _ := c.Status(st.ID)
	return cur, time.Since(start)
}

// TestIdleWorkerClaimsAtOnce: an idle worker at default flags learns of
// a new job from its waiting claim, not from a re-poll timer.
func TestIdleWorkerClaimsAtOnce(t *testing.T) {
	t.Parallel()
	c := newTestCoordinator(t)
	h, n := claimCounter(coordMux(c))
	ts := coordServer(t, h)
	runWorker(t, &Worker{BaseURL: ts.URL, Eval: echoEvaluator("fp")})
	waitUntil(t, func() bool { return n.started.Load() > 0 }, "worker never claimed")
	// Let the first claim find the queue empty, so the job reaches a
	// worker that is already idle.
	time.Sleep(10 * time.Millisecond)

	if _, took := submitAndTime(t, c); took > claimPrompt {
		t.Fatalf("idle worker took %v to serve a new job, want < %v", took, claimPrompt)
	}
}

// TestClaimOfDepartedCallerLeasesNothing is the worker SIGKILLed
// mid-wait: a claim whose caller went away leases nothing, so the next
// job goes to a live worker at once instead of after a lease expiry.
func TestClaimOfDepartedCallerLeasesNothing(t *testing.T) {
	t.Parallel()
	t.Run("coordinator", func(t *testing.T) {
		t.Parallel()
		c := newTestCoordinator(t)
		ctx, cancel := context.WithCancel(context.Background())
		got := make(chan *Job, 1)
		go func() {
			j, _ := c.Claim(ctx, "departed")
			got <- j
		}()
		time.Sleep(10 * time.Millisecond) // the claim is waiting
		// The caller leaves, and a job becomes pending at the same moment.
		cancel()
		if _, err := c.Submit(JobSpec{Gate: "xor"}, xorCases(), 4); err != nil {
			t.Fatal(err)
		}
		if j := <-got; j != nil {
			t.Fatalf("departed caller leased %s", j.ID)
		}
		if st := c.Queue().Stats(); st.Pending != 1 || st.Claimed != 0 {
			t.Fatalf("queue after departure = %+v, want the job pending", st)
		}
	})

	t.Run("http", func(t *testing.T) {
		t.Parallel()
		c := newTestCoordinator(t)
		h, n := claimCounter(coordMux(c))
		ts := coordServer(t, h)
		open := &n.open

		// The victim's claim is open at the coordinator when it dies.
		ctx, kill := context.WithCancel(context.Background())
		body, _ := json.Marshal(ClaimRequest{Worker: "victim"})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/fleet/claim", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}()
		waitUntil(t, func() bool { return open.Load() == 1 }, "victim never claimed")
		kill()
		<-done
		waitUntil(t, func() bool { return open.Load() == 0 }, "the victim's claim outlived it")

		live := &Worker{ID: "live", BaseURL: ts.URL, Eval: echoEvaluator("fp")}
		runWorker(t, live)
		waitUntil(t, func() bool { return open.Load() == 1 }, "live worker never claimed")
		st, took := submitAndTime(t, c)
		if took > claimPrompt {
			t.Fatalf("live worker took %v to serve the job, want < %v", took, claimPrompt)
		}
		if j := st.Jobs[0]; j.Worker != "live" || j.Attempts != 1 {
			t.Fatalf("job = %+v, want served by live on its first attempt", j)
		}
	})
}

// TestRequeueWakesWaitingClaim: a job that becomes pending again — by a
// worker-reported failure or by a lease expiry — wakes a waiting claim
// at once, not at the end of its wait.
func TestRequeueWakesWaitingClaim(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name    string
		requeue func(t *testing.T, c *Coordinator, clock *faults.Clock, j *Job)
	}{
		{"fail", func(t *testing.T, c *Coordinator, _ *faults.Clock, j *Job) {
			if _, err := c.IngestResult("w1", j.ID, "", nil, "solver diverged"); err != nil {
				t.Fatal(err)
			}
		}},
		{"lease expiry", func(t *testing.T, c *Coordinator, clock *faults.Clock, _ *Job) {
			clock.Advance(11 * time.Second)
			if got := c.Queue().Sweep(); len(got) != 1 {
				t.Fatalf("Sweep = %v, want one requeue", got)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			clock := faults.NewClock(time.Now())
			c := newTestCoordinator(t, WithClock(clock), WithLease(10*time.Second))
			if _, err := c.Submit(JobSpec{Gate: "xor"}, xorCases(), 4); err != nil {
				t.Fatal(err)
			}
			j, err := c.Claim(context.Background(), "w1")
			if err != nil || j == nil {
				t.Fatalf("Claim = %v, %v", j, err)
			}
			got := make(chan *Job, 1)
			go func() {
				j2, _ := c.Claim(context.Background(), "w2")
				got <- j2
			}()
			time.Sleep(10 * time.Millisecond) // w2 is waiting
			start := time.Now()
			tc.requeue(t, c, clock, j)
			j2 := <-got
			if took := time.Since(start); took > claimPrompt {
				t.Fatalf("waiting claim took %v to see the requeue (wait bound %v)", took, c.claimWait())
			}
			if j2 == nil || j2.ID != j.ID || j2.Attempts != 2 {
				t.Fatalf("waiting claim got %+v, want %s on attempt 2", j2, j.ID)
			}
		})
	}
}

// TestClaimWaitEndsEmpty: with nothing pending, a claim returns empty
// once its lease-derived bound passes.
func TestClaimWaitEndsEmpty(t *testing.T) {
	t.Parallel()
	c := newTestCoordinator(t, WithLease(200*time.Millisecond))
	start := time.Now()
	j, err := c.Claim(context.Background(), "w1")
	if err != nil || j != nil {
		t.Fatalf("Claim on an idle queue = %v, %v; want nil, nil", j, err)
	}
	if took := time.Since(start); took < c.claimWait() {
		t.Fatalf("empty claim returned after %v, before its %v wait", took, c.claimWait())
	}
}
