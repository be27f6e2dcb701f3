package main

import (
	"encoding/json"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"spinwave"
)

// buildBackend resolves and builds a backend without a server's memo:
// a fresh instance every call.
func buildBackend(req backendRequest) (spinwave.Backend, error) {
	k, err := resolveBackend(req)
	if err != nil {
		return nil, err
	}
	return k.build()
}

// TestBackendMemoIdentity: requests that resolve to the same backend
// share one instance, whatever alias, letter case or omitted field they
// used; any different key component builds a different backend; failed
// builds are not stored.
func TestBackendMemoIdentity(t *testing.T) {
	srv, _ := newTestServer(t)
	get := func(req backendRequest) spinwave.Backend {
		t.Helper()
		b, err := srv.backend(req)
		if err != nil {
			t.Fatalf("backend(%+v): %v", req, err)
		}
		return b
	}
	same := [][]backendRequest{
		{{Gate: "xor"}, {Gate: "XOR"}, {Gate: "xor", Backend: "Behavioral", Spec: "paper", Material: "fecob"}},
		{{Gate: "maj3"}, {Gate: "majority"}, {Gate: ""}},
		{{Gate: "xor", Backend: "micromag"}, {Gate: "xor", Backend: "micromagnetic", Spec: "REDUCED"}},
	}
	var firsts []spinwave.Backend
	for _, group := range same {
		first := get(group[0])
		for _, req := range group[1:] {
			if get(req) != first {
				t.Errorf("%+v and %+v built different backends", group[0], req)
			}
		}
		firsts = append(firsts, first)
	}
	if firsts[0] == firsts[2] {
		t.Error("behavioral and micromag XOR share a backend")
	}
	xor := firsts[0]
	for _, req := range []backendRequest{
		{Gate: "xor", Spec: "reduced"},
		{Gate: "xor", Material: "yig"},
	} {
		if get(req) == xor {
			t.Errorf("%+v shares the default XOR backend", req)
		}
	}

	n := len(srv.backends.m)
	for _, req := range []backendRequest{
		{Gate: "nope"},
		{Gate: "xor", Spec: "huge"},
		{Gate: "xor", Material: "unobtainium"},
		{Gate: "xor", Backend: "analog"},
		// Resolves, but permalloy has no PMA: the micromag build fails.
		{Gate: "xor", Backend: "micromag", Material: "permalloy"},
	} {
		if _, err := srv.backend(req); err == nil {
			t.Errorf("backend(%+v) succeeded", req)
		}
	}
	if len(srv.backends.m) != n {
		t.Errorf("failed builds grew the memo from %d to %d entries", n, len(srv.backends.m))
	}

	other, _ := newTestServer(t)
	if b, _ := other.backend(backendRequest{Gate: "xor"}); b == xor {
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
			b, err := srv.backend(backendRequest{Gate: gate})
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
	if n := len(srv.backends.m); n != 1 {
		t.Fatalf("memo holds %d backends after two same-backend batches, want 1", n)
	}

	fresh, err := buildBackend(backendRequest{Gate: "xor", Backend: "micromag"})
	if err != nil {
		t.Fatal(err)
	}
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
