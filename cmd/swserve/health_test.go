package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestHealthzShallowFields pins the extended liveness response: the
// original {"status","workers"} shape must survive (additive fields
// only) and the new build-info/uptime/drain fields must be present.
func TestHealthzShallowFields(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var got map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got["status"] != "ok" {
		t.Errorf("status %v, want ok", got["status"])
	}
	for _, key := range []string{"workers", "go_version", "vcs_revision", "uptime_seconds", "draining"} {
		if _, ok := got[key]; !ok {
			t.Errorf("healthz response missing %q: %v", key, got)
		}
	}
	if draining, _ := got["draining"].(bool); draining {
		t.Error("fresh server reports draining=true")
	}
	// The shallow probe must not have run the canary.
	if _, ok := got["canary"]; ok {
		t.Error("shallow healthz ran the deep canary")
	}
}

// TestHealthzDeep exercises the readiness probe: behavioral canary
// through the real engine path, eval-pool ping, and journal sink count
// (ring + hub attached by the server).
func TestHealthzDeep(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/healthz?deep=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deep healthz status %d: %s", resp.StatusCode, body)
	}
	var got struct {
		Status string `json:"status"`
		Canary struct {
			OK        bool    `json:"ok"`
			ElapsedMS float64 `json:"elapsed_ms"`
		} `json:"canary"`
		Pool struct {
			WaitMS float64 `json:"wait_ms"`
		} `json:"pool"`
		JournalSinks int `json:"journal_sinks"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Status != "ok" || !got.Canary.OK {
		t.Errorf("deep healthz unhealthy: %s", body)
	}
	if got.JournalSinks < 2 {
		t.Errorf("journal_sinks = %d, want >= 2 (ring + hub)", got.JournalSinks)
	}
}

// TestSLOEndpointAndGauges drives a few requests and checks they appear
// in the /v1/slo rolling window and that the burn-rate gauges are
// exported in /metrics.
func TestSLOEndpointAndGauges(t *testing.T) {
	_, ts := newTestServer(t)
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/v1/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/slo status %d", resp.StatusCode)
	}
	var rep sloReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.WindowSeconds <= 0 || rep.ObjectivePct <= 0 {
		t.Errorf("slo report missing window/objective: %+v", rep)
	}
	var hz *sloEndpoint
	for i := range rep.Endpoints {
		if rep.Endpoints[i].Path == "/v1/healthz" {
			hz = &rep.Endpoints[i]
		}
	}
	if hz == nil {
		t.Fatalf("/v1/healthz not tracked: %+v", rep.Endpoints)
	}
	if hz.Requests < 3 {
		t.Errorf("healthz requests = %d, want >= 3", hz.Requests)
	}
	if hz.ErrorBurnRate != 0 {
		t.Errorf("healthz error burn rate = %g on all-200 traffic, want 0", hz.ErrorBurnRate)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mbody, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{"swserve_slo_error_burn_rate", "swserve_slo_slow_burn_rate"} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestSLOTrackerBurnRates unit-tests the window math: with a 99%%
// objective, a 1%% error rate burns the budget at exactly rate 1.
func TestSLOTrackerBurnRates(t *testing.T) {
	tr := newSLOTracker(time.Minute, 99, time.Second)
	for i := 0; i < 99; i++ {
		tr.record("/x", http.StatusOK, time.Millisecond)
	}
	tr.record("/x", http.StatusInternalServerError, 2*time.Second)
	ep := tr.endpoint("/x")
	if ep.Requests != 100 || ep.Errors != 1 || ep.Slow != 1 {
		t.Fatalf("counts: %+v", ep)
	}
	if ep.ErrorBurnRate < 0.99 || ep.ErrorBurnRate > 1.01 {
		t.Errorf("error burn rate = %g, want ~1.0", ep.ErrorBurnRate)
	}
	if ep.SlowBurnRate < 0.99 || ep.SlowBurnRate > 1.01 {
		t.Errorf("slow burn rate = %g, want ~1.0", ep.SlowBurnRate)
	}
	// 4xx responses do not burn the availability budget.
	tr.record("/y", http.StatusBadRequest, time.Millisecond)
	if ep := tr.endpoint("/y"); ep.Errors != 0 {
		t.Errorf("client error counted against availability: %+v", ep)
	}
}

// TestRunEventsDrainingEvent pins the drain path of both NDJSON tails:
// when the server starts draining, an open stream receives a final
// server_draining line before close instead of just going quiet
// (companion to the shutdown-scrape regression test in obs_test.go); a
// new live tail is refused with 503 + Retry-After; and the fleet's
// post-mortem snapshot (?follow=false) still answers 200.
func TestRunEventsDrainingEvent(t *testing.T) {
	for _, ep := range tailEndpoints {
		t.Run(ep.name, func(t *testing.T) {
			srv, ts := newObsFleetServer(t)
			srv.heartbeat = 20 * time.Millisecond
			seedTail(t, ts, ep.name, ep.id)

			resp, err := http.Get(ts.URL + ep.path)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			srv.drain()

			var lines []map[string]any
			done := make(chan error, 1)
			go func() {
				sc := bufio.NewScanner(resp.Body)
				for sc.Scan() {
					var l map[string]any
					if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
						done <- err
						return
					}
					lines = append(lines, l)
				}
				done <- sc.Err()
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("tail did not terminate after drain started")
			}
			if len(lines) == 0 {
				t.Fatal("stream closed without any line")
			}
			if last := lines[len(lines)-1]; last["event"] != "server_draining" || last[ep.field] != ep.id {
				t.Errorf("final line %v, want server_draining for %s %s", last, ep.field, ep.id)
			}

			// A new live tail is refused while draining.
			again, err := http.Get(ts.URL + ep.path)
			if err != nil {
				t.Fatal(err)
			}
			again.Body.Close()
			if again.StatusCode != http.StatusServiceUnavailable || again.Header.Get("Retry-After") == "" {
				t.Errorf("live tail while draining: status %d, Retry-After %q; want 503 with Retry-After",
					again.StatusCode, again.Header.Get("Retry-After"))
			}
			if ep.name == "fleet" {
				// The post-mortem snapshot stays open while draining.
				fetchFleetJournal(t, ts, ep.id, ep.id)
			}
		})
	}
}
