package main

import (
	"encoding/json"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"spinwave"
	"spinwave/internal/backendspec"
)

// freshBackend resolves and builds a backend outside any server's memo:
// a fresh instance every call.
func freshBackend(t *testing.T, req backendRequest) spinwave.Backend {
	t.Helper()
	_, _, k, err := req.resolve()
	if err != nil {
		t.Fatal(err)
	}
	b, err := k.Build(backendspec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBackendMemoIdentity: the eval and table handlers share the
// server's memo, so requests for one backend in different spellings
// build it once; a second server builds its own. The vocabulary itself
// is pinned in internal/backendspec.
func TestBackendMemoIdentity(t *testing.T) {
	srv, ts := newTestServer(t)
	for _, tc := range []struct {
		path string
		body map[string]any
	}{
		{"/v1/eval", map[string]any{"gate": "xor", "inputs": []bool{true, false}}},
		{"/v1/table", map[string]any{"gate": "XOR", "backend": "Behavioral", "spec": "paper"}},
		{"/v1/eval", map[string]any{"gate": "Xor", "mode": "behavioral", "material": "FECOB", "inputs": []bool{true, true}}},
	} {
		if resp, body := postJSON(t, ts.URL+tc.path, tc.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %v: status %d: %s", tc.path, tc.body, resp.StatusCode, body)
		}
	}
	if n := srv.backends.Len(); n != 1 {
		t.Fatalf("memo holds %d backends after three requests for one backend, want 1", n)
	}
	_, _, k, err := backendRequest{Gate: "xor"}.resolve()
	if err != nil {
		t.Fatal(err)
	}
	b, err := srv.backends.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	other, _ := newTestServer(t)
	if ob, _ := other.backends.Get(k); ob == b {
		t.Error("two servers share a memoized backend")
	}
}

// TestBackendMemoConcurrentFirstUse: requests racing to a backend's
// first use all get the one instance built for them.
func TestBackendMemoConcurrentFirstUse(t *testing.T) {
	srv, _ := newTestServer(t)
	got := make([]spinwave.Backend, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gate := "xor"
			if i%2 == 1 {
				gate = "XOR"
			}
			_, _, k, err := backendRequest{Gate: gate}.resolve()
			if err != nil {
				t.Error(err)
				return
			}
			b, err := srv.backends.Get(k)
			if err != nil {
				t.Error(err)
			}
			got[i] = b
		}()
	}
	wg.Wait()
	for i, b := range got {
		if b == nil || b != got[0] {
			t.Fatalf("request %d got backend %p, request 0 got %p", i, b, got[0])
		}
	}
}

// TestMemoizedMicromagSharedConcurrently: two concurrent /v1/eval
// batches on the one memoized micromag backend (run under -race) return
// readouts bit-identical to a freshly built backend's.
func TestMemoizedMicromagSharedConcurrently(t *testing.T) {
	if testing.Short() {
		t.Skip("micromagnetic integration test")
	}
	srv, ts := newTestServer(t)
	batches := [][][]bool{
		{{false, false}, {true, false}},
		{{false, true}, {true, true}},
	}
	got := make([]evalResponse, len(batches))
	var wg sync.WaitGroup
	for i, cases := range batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/eval", map[string]any{
				"gate": "xor", "backend": "micromag", "cases": cases,
			})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("batch %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			if err := json.Unmarshal(body, &got[i]); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := srv.backends.Len(); n != 1 {
		t.Fatalf("memo holds %d backends after two same-backend batches, want 1", n)
	}

	fresh := freshBackend(t, backendRequest{Gate: "xor", Backend: "micromag"})
	for i, cases := range batches {
		for j, in := range cases {
			want, err := fresh.Run(in)
			if err != nil {
				t.Fatal(err)
			}
			if out := got[i].Results[j].Outputs; !reflect.DeepEqual(out, want) {
				t.Errorf("case %v: memoized %+v, fresh %+v", in, out, want)
			}
		}
	}
}
