package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spinwave"
	"spinwave/internal/checkpoint"
)

// newArtifactServer is newTestServer plus a mounted artifact store over
// a temp directory.
func newArtifactServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	srv := newServer(spinwave.NewEngine(spinwave.WithEngineWorkers(2)), 30*time.Second)
	t.Cleanup(srv.close)
	if err := srv.initArtifacts(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return srv, ts
}

func putArtifact(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func TestArtifactRoundTripOverHTTP(t *testing.T) {
	_, ts := newArtifactServer(t)

	// Listing a run with no artifacts yet answers an empty list, not an
	// error: workers poll before the first checkpoint lands.
	resp, err := http.Get(ts.URL + "/v1/runs/r-nowhere/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	var empty struct {
		Artifacts []checkpoint.ArtifactInfo `json:"artifacts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&empty); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || empty.Artifacts == nil || len(empty.Artifacts) != 0 {
		t.Fatalf("fresh run list: status %d, artifacts %v", resp.StatusCode, empty.Artifacts)
	}

	// Upload two artifacts, list them, download one back.
	const manifest = `{"version":1,"step":42}`
	resp, body := putArtifact(t, ts.URL+"/v1/runs/r-abc/artifacts/ck-000000000042.json", manifest)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put status %d: %s", resp.StatusCode, body)
	}
	if resp, body = putArtifact(t, ts.URL+"/v1/runs/r-abc/artifacts/probes.csv", "t,mx\n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("put csv status %d: %s", resp.StatusCode, body)
	}

	resp, err = http.Get(ts.URL + "/v1/runs/r-abc/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Run       string                    `json:"run"`
		Artifacts []checkpoint.ArtifactInfo `json:"artifacts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if list.Run != "r-abc" || len(list.Artifacts) != 2 {
		t.Fatalf("list = %+v", list)
	}
	if list.Artifacts[0].Name != "ck-000000000042.json" || list.Artifacts[0].Size != int64(len(manifest)) {
		t.Fatalf("listed artifact = %+v", list.Artifacts[0])
	}

	resp, err = http.Get(ts.URL + "/v1/runs/r-abc/artifacts/ck-000000000042.json")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	got.ReadFrom(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("manifest served as %q", ct)
	}
	if got.String() != manifest {
		t.Fatalf("downloaded %q, uploaded %q", got.String(), manifest)
	}

	// Re-uploading overwrites atomically (workers retry PUTs).
	if resp, body = putArtifact(t, ts.URL+"/v1/runs/r-abc/artifacts/probes.csv", "t,mx\n0,1\n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-put status %d: %s", resp.StatusCode, body)
	}
}

func TestArtifactBadNamesRejected(t *testing.T) {
	_, ts := newArtifactServer(t)
	// A traversal-shaped name never reaches the filesystem: the router
	// does not match the extra path segments, and dotted names fail
	// validation.
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/v1/runs/r-abc/artifacts/.hidden", http.StatusBadRequest},
		{"/v1/runs/..%2F..%2Fetc/artifacts/passwd", http.StatusBadRequest},
		// The mux decodes %2F, so the name validator sees "a/b".
		{"/v1/runs/r-abc/artifacts/a%2Fb", http.StatusBadRequest},
	} {
		resp, body := putArtifact(t, ts.URL+tc.path, "x")
		if resp.StatusCode != tc.want {
			t.Errorf("PUT %s status %d, want %d (%s)", tc.path, resp.StatusCode, tc.want, body)
		}
	}
	// Downloading a missing artifact answers the envelope 404.
	resp, err := http.Get(ts.URL + "/v1/runs/r-abc/artifacts/nope.json")
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || env.Error.Code != codeNotFound {
		t.Fatalf("missing artifact: status %d, code %q", resp.StatusCode, env.Error.Code)
	}
}

func TestArtifactPutStaysOpenWhileDraining(t *testing.T) {
	srv, ts := newArtifactServer(t)
	srv.drain()
	resp, body := putArtifact(t, ts.URL+"/v1/runs/r-drain/artifacts/ck-000000000001.json", "{}")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining put status %d: %s (a draining server must still accept checkpoints)", resp.StatusCode, body)
	}
}

func TestFleetTransientSubmitValidation(t *testing.T) {
	srv, ts := newFleetServer(t)
	// Without the artifact store every segmented submission is refused.
	resp, body := postJSON(t, ts.URL+"/v1/fleet/jobs", map[string]any{
		"gate": "xor", "backend": "micromag", "spec": "reduced",
		"cases": [][]bool{{true, false}}, "segments": 3,
	})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "artifact") {
		t.Fatalf("segmented submit without -artifacts: %d %s", resp.StatusCode, body)
	}

	if err := srv.initArtifacts(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	bad := []map[string]any{
		{"gate": "xor", "backend": "micromag", "table": true, "segments": 2},
		{"gate": "xor", "backend": "micromag", "cases": [][]bool{{true, false}, {false, true}}, "segments": 2},
		{"gate": "xor", "cases": [][]bool{{true, false}}, "segments": 2}, // behavioral default
	}
	for i, req := range bad {
		if resp, body := postJSON(t, ts.URL+"/v1/fleet/jobs", req); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad transient %d accepted: %d %s", i, resp.StatusCode, body)
		}
	}

	resp, body = postJSON(t, ts.URL+"/v1/fleet/jobs", map[string]any{
		"gate": "xor", "backend": "micromag", "spec": "reduced",
		"cases": [][]bool{{true, false}}, "segments": 3, "every_steps": 200, "dt_scale": 0.5,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("valid transient submit: %d %s", resp.StatusCode, body)
	}
	var st fleetStatusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Run == "" || st.CasesTotal != 1 || len(st.Jobs) != 1 {
		t.Fatalf("transient status = %s", body)
	}
}
