package main

import (
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"spinwave/internal/fleet"
	"spinwave/internal/journal"
	"spinwave/internal/obsplane"
	"spinwave/internal/runhistory"
)

// historyPage is the GET /v1/history response shape the tests decode.
type historyPage struct {
	Records []runhistory.Record `json:"records"`
	Count   int                 `json:"count"`
	Total   int                 `json:"total"`
}

func getHistory(t *testing.T, url string) historyPage {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var page historyPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	return page
}

// TestHistoryIndexesServedWork: served evals and tables land in the
// catalog and come back through /v1/history with working filters.
func TestHistoryIndexesServedWork(t *testing.T) {
	srv, _ := newTestServer(t)
	if err := srv.initHistory(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	ts := newHTTPTestServer(t, srv)

	resp, body := postJSON(t, ts.URL+"/v1/eval", map[string]any{
		"gate": "xor", "cases": [][]bool{{true, false}, {false, false}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("eval status %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/table", map[string]any{"gate": "maj3"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("table status %d: %s", resp.StatusCode, body)
	}

	page := getHistory(t, ts.URL+"/v1/history")
	if page.Count != 3 || page.Total != 3 {
		t.Fatalf("history count=%d total=%d, want 3/3", page.Count, page.Total)
	}
	kinds := map[string]int{}
	for _, r := range page.Records {
		kinds[r.Kind]++
		if r.ID == "" || r.IndexedNS == 0 {
			t.Fatalf("record missing id or indexed_ns: %+v", r)
		}
	}
	if kinds["eval"] != 2 || kinds["table"] != 1 {
		t.Fatalf("kinds = %v, want 2 eval + 1 table", kinds)
	}

	// Filters: by gate, by kind, and the bit label of the eval case.
	if p := getHistory(t, ts.URL+"/v1/history?gate=xor"); p.Count != 2 {
		t.Fatalf("gate=xor count = %d, want 2", p.Count)
	}
	if p := getHistory(t, ts.URL+"/v1/history?kind=table"); p.Count != 1 || p.Records[0].Gate != "maj3" {
		t.Fatalf("kind=table page = %+v", p)
	}
	if p := getHistory(t, ts.URL+"/v1/history?gate=nope"); p.Count != 0 {
		t.Fatalf("gate=nope count = %d, want 0", p.Count)
	}
	if p := getHistory(t, ts.URL+"/v1/history?limit=1"); p.Count != 1 || p.Total != 3 {
		t.Fatalf("limit=1 page count=%d total=%d", p.Count, p.Total)
	}

	// Bad query values answer the envelope 400.
	for _, q := range []string{"?limit=x", "?since=yesterday"} {
		resp, err := http.Get(ts.URL + "/v1/history" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /v1/history%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestHistoryFleetRecordFiles: a completed fleet request's record points
// at its trace file and classified run artifacts.
func TestHistoryFleetRecordFiles(t *testing.T) {
	srv, _ := newTestServer(t)
	if err := srv.initHistory(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if err := srv.initFleetJournal(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if err := srv.initArtifacts(t.TempDir()); err != nil {
		t.Fatal(err)
	}

	trace, run := "tr-hist-1", "run-hist-1"
	if _, err := srv.fjournal.Append(trace, "w1", []journal.Event{
		{Seq: 1, Name: "fleet.job", TimeNS: time.Now().UnixNano()},
	}); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string]string{
		"ck-000042.json": `{"step":42}`,
		"ck-000042.ovf":  "OVF",
		"probes-s00.csv": "t,mz\n0,1\n",
		"verdict.txt":    "ok",
	} {
		if _, err := srv.artifacts.Put(run, name, strings.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}

	srv.indexFleetRequest(fleet.CompletedRequest{
		ID: "req-1", Trace: trace, Run: run, Gate: "xor", Backend: "micromag",
		Fingerprint: "fp", Cases: 1, SubmittedNS: 100, CompletedNS: 250, Tier: "micromag",
	})

	recs, err := srv.history.Query(runhistory.Filter{Kind: "fleet"})
	if err != nil || len(recs) != 1 {
		t.Fatalf("fleet records = %d (%v), want 1", len(recs), err)
	}
	rec := recs[0]
	if rec.ID != "req-1" || rec.Trace != trace || rec.WallNS != 150 || rec.Tier != "micromag" {
		t.Fatalf("record = %+v", rec)
	}
	classes := map[runhistory.Class]int{}
	for _, f := range rec.Files {
		if f.Size <= 0 {
			t.Fatalf("file ref without size: %+v", f)
		}
		classes[f.Class]++
	}
	// One trace ref, two checkpoint refs (manifest + OVF), one probe
	// CSV, one plain artifact.
	want := map[runhistory.Class]int{
		runhistory.ClassTrace: 1, runhistory.ClassCheckpoint: 2,
		runhistory.ClassProbeCSV: 1, runhistory.ClassArtifact: 1,
	}
	for c, n := range want {
		if classes[c] != n {
			t.Fatalf("classes = %v, want %v", classes, want)
		}
	}
}

// TestHistoryHealthSection: deep health reports the catalog, and an
// unwritable catalog directory flips the instance to 503.
func TestHistoryHealthSection(t *testing.T) {
	srv, _ := newTestServer(t)
	dir := t.TempDir()
	if err := srv.initHistory(dir); err != nil {
		t.Fatal(err)
	}
	srv.initRetention(1)
	ts := newHTTPTestServer(t, srv)

	resp, err := http.Get(ts.URL + "/v1/healthz?deep=1")
	if err != nil {
		t.Fatal(err)
	}
	var deep map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&deep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy deep status %d: %v", resp.StatusCode, deep)
	}
	section, ok := deep["history"].(map[string]any)
	if !ok {
		t.Fatalf("deep health missing history section: %v", deep)
	}
	if _, ok := section["retention"]; !ok {
		t.Fatalf("history section missing retention: %v", section)
	}

	// Catalog directory gone: the writability probe fails and the
	// instance stops being ready.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/v1/healthz?deep=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unwritable catalog: status %d, want 503", resp.StatusCode)
	}
}

// TestFleetTerminalEventRemoved: the synthetic retention.removed event
// terminates a fleet tail like a request-complete event does.
func TestFleetTerminalEventRemoved(t *testing.T) {
	if !fleetTerminalEvent(obsplane.ShippedEvent{Event: journal.Event{Name: obsplane.RemovedEventName}}) {
		t.Fatal("retention.removed not terminal")
	}
	if fleetTerminalEvent(obsplane.ShippedEvent{Event: journal.Event{Name: "fleet.job"}}) {
		t.Fatal("fleet.job wrongly terminal")
	}
}
