package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRequestValidation covers the decode/validation error paths: every
// malformed request must come back as the JSON error envelope with the
// right status and stable code, never a 500 or a hang.
func TestRequestValidation(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.maxBatch = 4

	bigBatch := make([][]bool, 5)
	for i := range bigBatch {
		bigBatch[i] = []bool{i%2 == 0, true}
	}

	for _, tc := range []struct {
		name    string
		path    string
		body    string
		code    int
		errCode string
		errLike string
	}{
		{"malformed json", "/v1/eval", `{"gate": "xor",`, http.StatusBadRequest, codeBadRequest, "bad request body"},
		{"wrong type", "/v1/eval", `{"gate": 7}`, http.StatusBadRequest, codeBadRequest, "bad request body"},
		{"unknown field", "/v1/eval", `{"gate": "xor", "bogus": 1}`, http.StatusBadRequest, codeBadRequest, "bad request body"},
		{"empty eval", "/v1/eval", `{"gate": "xor"}`, http.StatusBadRequest, codeBadRequest, "need inputs or cases"},
		{"oversized batch", "/v1/eval", mustJSON(t, map[string]any{"gate": "xor", "cases": bigBatch}),
			http.StatusBadRequest, codeBadRequest, "exceeds the limit of 4"},
		{"negative timeout", "/v1/eval", `{"gate": "xor", "inputs": [true, false], "timeout_ms": -5}`,
			http.StatusBadRequest, codeBadRequest, "timeout_ms"},
		{"absurd timeout", "/v1/table", `{"gate": "xor", "timeout_ms": 999999999999}`,
			http.StatusBadRequest, codeBadRequest, "timeout_ms"},
		{"zero timeout runs", "/v1/table", `{"gate": "xor", "timeout_ms": 0}`, http.StatusOK, "", ""},
		{"tiny timeout expires", "/v1/table", `{"gate": "xor", "backend": "micromag", "timeout_ms": 1}`,
			http.StatusGatewayTimeout, codeDeadline, ""},
		{"tiny timeout expires eval", "/v1/eval", `{"gate": "xor", "backend": "micromag", "cases": [[true, false], [false, true]], "timeout_ms": 1}`,
			http.StatusGatewayTimeout, codeDeadline, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.code {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.code, body)
			}
			if resp.StatusCode == http.StatusOK {
				return
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("error content-type %q, want application/json", ct)
			}
			e := decodeEnvelope(t, body)
			if e.Code != tc.errCode {
				t.Errorf("error code %q, want %q (%s)", e.Code, tc.errCode, body)
			}
			if tc.errLike != "" && !strings.Contains(e.Message, tc.errLike) {
				t.Errorf("error %q does not mention %q", e.Message, tc.errLike)
			}
		})
	}
}

// decodeEnvelope parses the unified error envelope, failing the test on
// any shape deviation (missing error object, empty code or message).
func decodeEnvelope(t *testing.T, body []byte) apiError {
	t.Helper()
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body is not the envelope: %s", body)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope missing code or message: %s", body)
	}
	return env.Error
}

// newHTTPTestServer serves srv.routes() on a fresh listener, picking up
// any server field changes made after newTestServer.
func newHTTPTestServer(t *testing.T, srv *server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return ts
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMetricsEndpoint exercises /metrics end to end: after an eval, the
// exposition must carry the engine cache counters, the HTTP histograms
// and the LLG totals in Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	// Same case twice: one miss then one hit.
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/eval", map[string]any{
			"gate": "xor", "inputs": []bool{true, false},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("eval status %d: %s", resp.StatusCode, body)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content-type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, want := range []string{
		"# TYPE spinwave_engine_requests_total counter",
		"spinwave_engine_cache_hits_total",
		"spinwave_engine_cache_misses_total",
		"spinwave_engine_in_flight",
		`spinwave_engine_evals_total{result="ok"}`,
		"spinwave_engine_eval_seconds_bucket",
		"spinwave_llg_steps_total",
		`swserve_http_requests_total{path="/v1/eval",status="200"}`,
		`swserve_http_request_seconds_bucket{path="/v1/eval",le="+Inf"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestDrainGating is the shutdown-scrape regression test: read-only
// observability endpoints (/metrics, /debug/vars) must keep answering
// 200 while the server drains, or the final counter values of a
// terminating process are lost to the scraper. Only new long-lived
// event tails are refused with 503 + Retry-After.
func TestDrainGating(t *testing.T) {
	srv, ts := newTestServer(t)
	for _, path := range []string{"/metrics", "/debug/vars"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s pre-drain status %d", path, resp.StatusCode)
		}
	}
	srv.draining.Store(true)
	for _, path := range []string{"/metrics", "/debug/vars"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s during drain: status %d, want 200 (shutdown scrape must succeed)", path, resp.StatusCode)
		}
	}
	// New event tails ARE refused: they would outlive the drain window.
	resp, err := http.Get(ts.URL + "/v1/runs/rwhatever/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("events tail during drain: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("events tail drain refusal missing Retry-After")
	}
	// Work endpoints keep serving during the drain — only new streams are
	// gated; http.Server.Shutdown owns the work drain itself.
	resp2, body := postJSON(t, ts.URL+"/v1/table", map[string]any{"gate": "xor"})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("table during drain: status %d: %s", resp2.StatusCode, body)
	}
}

// TestPprofGating: the profile endpoints exist only with -pprof.
func TestPprofGating(t *testing.T) {
	srv, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof served without -pprof: status %d", resp.StatusCode)
	}

	srv.pprofOn = true
	ts2 := newHTTPTestServer(t, srv)
	resp, err = http.Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index with -pprof: status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "goroutine") {
		t.Error("pprof index does not list profiles")
	}
}
