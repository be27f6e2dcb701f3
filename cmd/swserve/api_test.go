package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"spinwave"
)

// admitBehavioralSurrogate builds a surrogate from the behavioral
// backend the server's default request resolution produces for gate and
// admits it into the server's engine, so surrogate/auto-mode requests
// naming {gate, backend: behavioral} match its base fingerprint.
func admitBehavioralSurrogate(t *testing.T, srv *server, gate string) *spinwave.SurrogateModel {
	t.Helper()
	b := freshBackend(t, backendRequest{Gate: gate, Backend: "behavioral"})
	src, ok := b.(spinwave.SurrogateSource)
	if !ok {
		t.Fatalf("behavioral backend is not a SurrogateSource")
	}
	model, err := spinwave.BuildSurrogate(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.eng.AdmitSurrogate(model); err != nil {
		t.Fatal(err)
	}
	return model
}

// TestMethodNotAllowed: the work endpoints are POST-only; anything else
// answers 405 with an Allow header and the error envelope.
func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/v1/eval", "/v1/table"} {
		for _, method := range []string{http.MethodGet, http.MethodPut, http.MethodDelete} {
			req, err := http.NewRequest(method, ts.URL+path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("%s %s: status %d, want 405", method, path, resp.StatusCode)
			}
			if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
				t.Errorf("%s %s: Allow header %q, want POST", method, path, allow)
			}
			if e := decodeEnvelope(t, body); e.Code != codeMethodNotAllowed {
				t.Errorf("%s %s: error code %q, want %q", method, path, e.Code, codeMethodNotAllowed)
			}
		}
	}
}

// TestSpecEndpoint: GET /v1/spec must describe the whole surface —
// endpoints, gates, serving modes, result sources and error codes.
func TestSpecEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/spec")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spec status %d", resp.StatusCode)
	}
	var spec specResponse
	if err := json.NewDecoder(resp.Body).Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.Service == "" || len(spec.Endpoints) == 0 {
		t.Fatalf("spec missing service or endpoints: %+v", spec)
	}
	paths := make(map[string]bool)
	for _, ep := range spec.Endpoints {
		paths[ep.Method+" "+ep.Path] = true
	}
	for _, want := range []string{"POST /v1/eval", "POST /v1/table", "GET /v1/spec", "GET /v1/healthz"} {
		if !paths[want] {
			t.Errorf("spec endpoints missing %q", want)
		}
	}
	has := func(list []string, want string) bool {
		for _, v := range list {
			if v == want {
				return true
			}
		}
		return false
	}
	for _, mode := range []string{"auto", "surrogate", "micromag", "behavioral"} {
		if !has(spec.Modes, mode) {
			t.Errorf("spec modes missing %q", mode)
		}
	}
	for _, src := range []string{"cache", "disk", "surrogate", "micromag", "behavioral", "mixed"} {
		if !has(spec.Sources, src) {
			t.Errorf("spec sources missing %q", src)
		}
	}
	for _, code := range []string{codeBadRequest, codeUnknownGate, codeDraining, codeDeadline, codeSurrogateUnavailable} {
		if !has(spec.ErrorCodes, code) {
			t.Errorf("spec error codes missing %q", code)
		}
	}
	// POST spec is not a thing.
	resp2, err := http.Post(ts.URL+"/v1/spec", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/spec status %d, want 405", resp2.StatusCode)
	}
}

// TestErrorCodes pins the stable code for each failure class the
// redesigned contract promises.
func TestErrorCodes(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		name      string
		path      string
		body      map[string]any
		status    int
		code      string
		retryable bool
	}{
		{"unknown gate", "/v1/eval",
			map[string]any{"gate": "frobnicator", "inputs": []bool{true, false}},
			http.StatusBadRequest, codeUnknownGate, false},
		{"unknown mode", "/v1/eval",
			map[string]any{"gate": "xor", "mode": "warp", "inputs": []bool{true, false}},
			http.StatusBadRequest, codeBadRequest, false},
		{"mode conflicts with backend", "/v1/eval",
			map[string]any{"gate": "xor", "mode": "behavioral", "backend": "micromag", "inputs": []bool{true, false}},
			http.StatusBadRequest, codeBadRequest, false},
		{"surrogate unavailable", "/v1/eval",
			map[string]any{"gate": "xor", "mode": "surrogate", "backend": "behavioral", "inputs": []bool{true, false}},
			http.StatusServiceUnavailable, codeSurrogateUnavailable, true},
		{"surrogate unavailable batch", "/v1/eval",
			map[string]any{"gate": "xor", "mode": "surrogate", "backend": "behavioral",
				"cases": [][]bool{{true, false}, {false, true}}},
			http.StatusServiceUnavailable, codeSurrogateUnavailable, true},
		{"surrogate unavailable table", "/v1/table",
			map[string]any{"gate": "xor", "mode": "surrogate", "backend": "behavioral"},
			http.StatusServiceUnavailable, codeSurrogateUnavailable, true},
		{"unknown material", "/v1/table",
			map[string]any{"gate": "xor", "material": "unobtainium"},
			http.StatusBadRequest, codeBadRequest, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
			e := decodeEnvelope(t, body)
			if e.Code != tc.code {
				t.Errorf("code %q, want %q (%s)", e.Code, tc.code, body)
			}
			if e.Retryable != tc.retryable {
				t.Errorf("retryable %v, want %v", e.Retryable, tc.retryable)
			}
		})
	}
}

// TestEvalModeAndSource: responses must carry the effective mode, the
// per-case tier that answered, and the model fingerprint — across the
// legacy (no-mode) contract, an admitted surrogate, and auto tiering.
func TestEvalModeAndSource(t *testing.T) {
	srv, ts := newTestServer(t)

	// Legacy contract: no mode, behavioral compute then cache.
	resp, body := postJSON(t, ts.URL+"/v1/eval", map[string]any{
		"gate": "xor", "inputs": []bool{true, false}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("legacy eval status %d: %s", resp.StatusCode, body)
	}
	var er evalResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Mode != "behavioral" || er.Fingerprint == "" {
		t.Fatalf("legacy eval mode %q fingerprint %q", er.Mode, er.Fingerprint)
	}
	if src := er.Results[0].Source; src != string(spinwave.EvalSourceBehavioral) {
		t.Fatalf("first eval source %q, want behavioral", src)
	}
	resp, body = postJSON(t, ts.URL+"/v1/eval", map[string]any{
		"gate": "xor", "inputs": []bool{true, false}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat eval status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if src := er.Results[0].Source; src != string(spinwave.EvalSourceCache) {
		t.Fatalf("repeat eval source %q, want cache", src)
	}

	// Admitted surrogate: surrogate mode serves superposition and reports
	// the base fingerprint it is keyed under.
	model := admitBehavioralSurrogate(t, srv, "xor")
	resp, body = postJSON(t, ts.URL+"/v1/eval", map[string]any{
		"gate": "xor", "mode": "surrogate", "backend": "behavioral",
		"cases": [][]bool{{true, true}, {true, false}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("surrogate eval status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Mode != "surrogate" {
		t.Fatalf("surrogate eval mode %q", er.Mode)
	}
	if er.Fingerprint != model.BaseFingerprint() {
		t.Fatalf("surrogate eval fingerprint %q, want %q", er.Fingerprint, model.BaseFingerprint())
	}
	for i, c := range er.Results {
		if c.Source != string(spinwave.EvalSourceSurrogate) {
			t.Fatalf("surrogate case %d source %q", i, c.Source)
		}
	}

	// Auto: a cold case is answered by the surrogate, a previously
	// computed exact case by the cache.
	resp, body = postJSON(t, ts.URL+"/v1/eval", map[string]any{
		"gate": "xor", "mode": "auto", "backend": "behavioral",
		"cases": [][]bool{{false, true}, {true, false}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("auto eval status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Mode != "auto" {
		t.Fatalf("auto eval mode %q", er.Mode)
	}
	if src := er.Results[0].Source; src != string(spinwave.EvalSourceSurrogate) {
		t.Fatalf("auto cold case source %q, want surrogate", src)
	}
	if src := er.Results[1].Source; src != string(spinwave.EvalSourceCache) {
		t.Fatalf("auto warm case source %q, want cache (exact results outrank the surrogate)", src)
	}
}

// TestTableModeAndSource: /v1/table carries the same serving metadata,
// and a surrogate-mode table still decodes the paper's truth table.
func TestTableModeAndSource(t *testing.T) {
	srv, ts := newTestServer(t)
	admitBehavioralSurrogate(t, srv, "maj3")
	resp, body := postJSON(t, ts.URL+"/v1/table", map[string]any{
		"gate": "maj3", "mode": "surrogate", "backend": "behavioral"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("surrogate table status %d: %s", resp.StatusCode, body)
	}
	var tr struct {
		spinwave.TruthTable
		Mode        string `json:"mode"`
		Source      string `json:"source"`
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Mode != "surrogate" || tr.Source != string(spinwave.EvalSourceSurrogate) {
		t.Fatalf("table mode %q source %q, want surrogate/surrogate", tr.Mode, tr.Source)
	}
	if tr.Fingerprint == "" {
		t.Error("surrogate table missing fingerprint")
	}
	if len(tr.Cases) != 8 {
		t.Fatalf("maj3 table has %d cases, want 8", len(tr.Cases))
	}
	if !tr.AllCorrect() {
		t.Fatalf("surrogate maj3 table decodes incorrectly: %s", body)
	}
}

// TestDeepHealthSurrogateState: a non-admitted ledger entry must flip
// the readiness probe to 503 and surface in /v1/slo, while an admitted
// one keeps the instance ready.
func TestDeepHealthSurrogateState(t *testing.T) {
	srv, ts := newTestServer(t)
	model := admitBehavioralSurrogate(t, srv, "xor")
	srv.surrogate.entries = []surrogateEntry{{
		Gate: "xor", Backend: "behavioral",
		Fingerprint: model.BaseFingerprint(), State: surrogateAdmitted,
	}}
	resp, err := http.Get(ts.URL + "/v1/healthz?deep=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deep health with admitted surrogate: status %d: %s", resp.StatusCode, body)
	}
	var deep map[string]any
	if err := json.Unmarshal(body, &deep); err != nil {
		t.Fatal(err)
	}
	sur, ok := deep["surrogate"].(map[string]any)
	if !ok || sur["ok"] != true {
		t.Fatalf("deep health surrogate section %v, want ok=true", deep["surrogate"])
	}

	// Dropping the model makes the admitted entry stale → not ready.
	srv.eng.DropSurrogate(model.BaseFingerprint())
	resp, err = http.Get(ts.URL + "/v1/healthz?deep=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("deep health with stale surrogate: status %d, want 503: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &deep); err != nil {
		t.Fatal(err)
	}
	sur, ok = deep["surrogate"].(map[string]any)
	if !ok || sur["ok"] != false {
		t.Fatalf("stale deep health surrogate section %v, want ok=false", deep["surrogate"])
	}

	// The SLO report exposes the same ledger.
	resp, err = http.Get(ts.URL + "/v1/slo")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var slo struct {
		Surrogate []surrogateEntry `json:"surrogate"`
	}
	if err := json.Unmarshal(body, &slo); err != nil {
		t.Fatal(err)
	}
	if len(slo.Surrogate) != 1 || slo.Surrogate[0].State != surrogateStale {
		t.Fatalf("slo surrogate ledger %+v, want one stale entry", slo.Surrogate)
	}
}

// TestInitSurrogatesBehavioral exercises the startup path end to end
// with the (fast) behavioral source: the ledger records an admitted
// entry and surrogate-mode traffic is immediately servable.
func TestInitSurrogatesBehavioral(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.initSurrogates(context.Background(), "xor, maj3", "behavioral"); err != nil {
		t.Fatal(err)
	}
	entries := srv.surrogateSnapshot()
	if len(entries) != 2 {
		t.Fatalf("ledger has %d entries, want 2", len(entries))
	}
	for _, e := range entries {
		if e.State != surrogateAdmitted || e.Fingerprint == "" {
			t.Fatalf("ledger entry %+v, want admitted with fingerprint", e)
		}
	}
	if !srv.surrogateHealthy() {
		t.Fatal("surrogateHealthy() = false with all entries admitted")
	}
	resp, body := postJSON(t, ts.URL+"/v1/eval", map[string]any{
		"gate": "maj3", "mode": "surrogate", "backend": "behavioral",
		"inputs": []bool{true, true, false}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("surrogate eval after init: status %d: %s", resp.StatusCode, body)
	}
}

// TestInitSurrogatesMicromagMAJ3: the served MAJ3 solver carries its
// committed I3 trim, so the surrogate superposed from its unit
// transients passes the Table I admission bands.
func TestInitSurrogatesMicromagMAJ3(t *testing.T) {
	if testing.Short() {
		t.Skip("micromagnetic integration test")
	}
	srv, _ := newTestServer(t)
	if err := srv.initSurrogates(context.Background(), "maj3", "micromag"); err != nil {
		t.Fatal(err)
	}
	if e := srv.surrogateSnapshot(); len(e) != 1 || e[0].State != surrogateAdmitted {
		t.Fatalf("ledger %+v, want one admitted maj3 entry", e)
	}
}
