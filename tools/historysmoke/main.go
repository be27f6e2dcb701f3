// Command historysmoke is the CI gate for the run-history catalog and
// the retention engine (DESIGN.md §17): it builds the real swserve,
// swworker and swhistory binaries, boots a coordinator with history
// indexing on and a deliberately tiny trace budget (-retain-traces 1,
// sub-second sweep cadence), serves evals and a table, and runs two
// fleet requests back to back. The retention sweeper must then reclaim
// the older request's fleet-journal trace — journaled as retention.gc
// with nonzero bytes — while the newer trace still answers
// /v1/fleet/jobs/{id}/events and every piece of served work remains
// queryable through /v1/history and the swhistory CLI.
//
//	go run ./tools/historysmoke -journal history.jsonl -catalog history-catalog.jsonl
//
// The coordinator journal is left behind for journalcheck and the
// retention.gc / history.indexed greps in the history-smoke make
// target; the catalog copy is the CI post-mortem artifact.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("historysmoke: ")
	journalPath := flag.String("journal", "history.jsonl", "coordinator journal output (validated by journalcheck afterwards)")
	catalogPath := flag.String("catalog", "history-catalog.jsonl", "where to copy the final run-history catalog (CI artifact)")
	timeout := flag.Duration("timeout", 3*time.Minute, "overall deadline for the smoke run")
	flag.Parse()

	if err := run(*journalPath, *catalogPath, *timeout); err != nil {
		log.Fatal(err)
	}
}

func run(journalPath, catalogPath string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	tmp, err := os.MkdirTemp("", "historysmoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// One incarnation's journal only: swserve appends, and a stale file
	// would fail journalcheck's strict sequence check.
	if err := os.Remove(journalPath); err != nil && !os.IsNotExist(err) {
		return err
	}

	serveBin := filepath.Join(tmp, "swserve")
	workerBin := filepath.Join(tmp, "swworker")
	historyBin := filepath.Join(tmp, "swhistory")
	for bin, pkg := range map[string]string{
		serveBin: "./cmd/swserve", workerBin: "./cmd/swworker", historyBin: "./cmd/swhistory",
	} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("building %s: %w", pkg, err)
		}
	}

	// Coordinator with the full observability stack and a trace budget of
	// one: the second fleet request must evict the first request's trace.
	historyDir := filepath.Join(tmp, "history")
	serve := exec.Command(serveBin,
		"-addr", "127.0.0.1:0",
		"-fleet-queue", filepath.Join(tmp, "queue"),
		"-artifacts", filepath.Join(tmp, "artifacts"),
		"-journal", journalPath,
		"-history", historyDir,
		"-retain-traces", "1",
		"-retain-every", "250ms",
		"-workers", "2")
	stderr, err := serve.StderrPipe()
	if err != nil {
		return err
	}
	if err := serve.Start(); err != nil {
		return err
	}
	defer func() {
		serve.Process.Signal(syscall.SIGTERM) //nolint:errcheck
		serve.Wait()                          //nolint:errcheck
	}()
	base, err := waitForListen(stderr)
	if err != nil {
		return err
	}
	log.Printf("coordinator at %s (history %s, retain-traces 1)", base, historyDir)

	worker := exec.Command(workerBin,
		"-coordinator", base,
		"-id", "smoke-h1",
		"-workers", "2")
	worker.Stderr = os.Stderr
	if err := worker.Start(); err != nil {
		return err
	}
	defer func() {
		worker.Process.Signal(syscall.SIGTERM) //nolint:errcheck
		worker.Wait()                          //nolint:errcheck
	}()

	// Local served work: two eval cases and a truth table, all of which
	// must land in the catalog.
	if err := postOK(base+"/v1/eval", map[string]any{
		"gate": "xor", "cases": [][]bool{{true, false}, {false, false}},
	}); err != nil {
		return fmt.Errorf("eval: %w", err)
	}
	if err := postOK(base+"/v1/table", map[string]any{"gate": "maj3"}); err != nil {
		return fmt.Errorf("table: %w", err)
	}

	// Two behavioral fleet requests, strictly sequential so the second
	// trace is unambiguously newer than the first.
	req1, err := submitAndWait(base, deadline)
	if err != nil {
		return fmt.Errorf("fleet request 1: %w", err)
	}
	req2, err := submitAndWait(base, deadline)
	if err != nil {
		return fmt.Errorf("fleet request 2: %w", err)
	}
	log.Printf("fleet requests complete: %s then %s", req1, req2)

	// The retention gate: the sweeper must reclaim request 1's trace
	// (404 on its events endpoint) while request 2's trace still answers.
	if err := waitForEviction(base, req1, req2, deadline); err != nil {
		return err
	}

	// Every deletion is journaled: a retention.gc event on the
	// fleet-journal class with nonzero reclaimed bytes, carrying the
	// victim in "id" (never "trace" — the mirror would resurrect it).
	if err := checkGCJournal(journalPath); err != nil {
		return err
	}

	// The catalog view: all served work queryable, filters compose.
	if err := checkHistoryAPI(base, req1, req2); err != nil {
		return err
	}

	// Deep health reports the catalog and the sweeper's progress.
	if err := checkDeepHealth(base); err != nil {
		return err
	}

	// The retention metrics are exported.
	if err := checkMetrics(base); err != nil {
		return err
	}

	// The offline view: the swhistory CLI reads the same catalog.
	if err := checkCLI(historyBin, historyDir, req1, req2); err != nil {
		return err
	}

	// Leave the catalog behind for CI upload before the tempdir goes.
	data, err := os.ReadFile(filepath.Join(historyDir, "catalog.jsonl"))
	if err != nil {
		return err
	}
	if err := os.WriteFile(catalogPath, data, 0o644); err != nil {
		return err
	}
	log.Printf("ok: retention reclaimed the old trace, history stayed queryable; artifacts %s, %s", journalPath, catalogPath)
	return nil
}

// submitAndWait submits one behavioral XOR table request and waits for
// it to complete, returning the request ID.
func submitAndWait(base string, deadline time.Time) (string, error) {
	buf, _ := json.Marshal(map[string]any{"gate": "xor", "table": true, "shard": 2})
	resp, err := http.Post(base+"/v1/fleet/jobs", "application/json", bytes.NewReader(buf))
	if err != nil {
		return "", err
	}
	var sub struct {
		ID string `json:"request_id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted || sub.ID == "" {
		return "", fmt.Errorf("submit answered %d with request_id %q", resp.StatusCode, sub.ID)
	}
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/fleet/jobs/" + sub.ID)
		if err != nil {
			return "", err
		}
		var st struct {
			State string `json:"state"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return "", err
		}
		switch st.State {
		case "complete":
			return sub.ID, nil
		case "failed":
			return "", fmt.Errorf("request %s failed", sub.ID)
		}
		time.Sleep(100 * time.Millisecond)
	}
	return "", fmt.Errorf("request %s not complete before the deadline", sub.ID)
}

// eventsStatus GETs the post-mortem events snapshot for a request and
// returns the HTTP status.
func eventsStatus(base, reqID string) (int, error) {
	resp, err := http.Get(base + "/v1/fleet/jobs/" + reqID + "/events?follow=false")
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return resp.StatusCode, nil
}

// waitForEviction polls until request 1's trace has been reclaimed
// (its events endpoint answers 404) and then asserts request 2's trace
// is still served in full.
func waitForEviction(base, req1, req2 string, deadline time.Time) error {
	for time.Now().Before(deadline) {
		code, err := eventsStatus(base, req1)
		if err != nil {
			return err
		}
		if code == http.StatusNotFound {
			code2, err := eventsStatus(base, req2)
			if err != nil {
				return err
			}
			if code2 != http.StatusOK {
				return fmt.Errorf("retained trace of %s answers %d, want 200", req2, code2)
			}
			log.Printf("retention evicted the trace of %s; the trace of %s survives", req1, req2)
			return nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("trace of %s never evicted under -retain-traces 1", req1)
}

// checkGCJournal scans the coordinator journal for the retention.gc
// record of the reclaimed fleet-journal trace.
func checkGCJournal(journalPath string) error {
	f, err := os.Open(journalPath)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		var ev struct {
			Event  string         `json:"event"`
			Fields map[string]any `json:"fields"`
		}
		if json.Unmarshal(sc.Bytes(), &ev) != nil || ev.Event != "retention.gc" {
			continue
		}
		if tr, present := ev.Fields["trace"]; present {
			return fmt.Errorf("retention.gc carries a trace field (%v) — the coordinator mirror would resurrect the deleted file", tr)
		}
		class, _ := ev.Fields["class"].(string)
		bytes, _ := ev.Fields["bytes"].(float64)
		if class == "fleet-journal" && bytes > 0 {
			log.Printf("journaled retention.gc: class=%s id=%v bytes=%.0f", class, ev.Fields["id"], bytes)
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("no retention.gc event with class=fleet-journal and bytes>0 in %s", journalPath)
}

// historyPage mirrors the GET /v1/history response.
type historyPage struct {
	Records []struct {
		ID    string `json:"id"`
		Kind  string `json:"kind"`
		Gate  string `json:"gate"`
		Trace string `json:"trace"`
		Files []struct {
			Class string `json:"class"`
			Size  int64  `json:"size"`
		} `json:"files"`
	} `json:"records"`
	Count int `json:"count"`
	Total int `json:"total"`
}

func getHistory(base, query string) (historyPage, error) {
	var page historyPage
	resp, err := http.Get(base + "/v1/history" + query)
	if err != nil {
		return page, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return page, fmt.Errorf("GET /v1/history%s: status %d", query, resp.StatusCode)
	}
	return page, json.NewDecoder(resp.Body).Decode(&page)
}

// checkHistoryAPI asserts every piece of served work was indexed and
// the filters behave.
func checkHistoryAPI(base, req1, req2 string) error {
	page, err := getHistory(base, "")
	if err != nil {
		return err
	}
	kinds := map[string]int{}
	byID := map[string]bool{}
	for _, r := range page.Records {
		kinds[r.Kind]++
		byID[r.ID] = true
	}
	if kinds["eval"] != 2 || kinds["table"] != 1 || kinds["fleet"] != 2 {
		return fmt.Errorf("history kinds = %v, want 2 eval + 1 table + 2 fleet", kinds)
	}
	if !byID[req1] || !byID[req2] {
		return fmt.Errorf("history lacks a fleet request record (have %v, want %s and %s)", byID, req1, req2)
	}
	// The evicted request's history record survives eviction: the
	// catalog is the post-mortem index, not the data itself.
	fleetPage, err := getHistory(base, "?kind=fleet")
	if err != nil {
		return err
	}
	if fleetPage.Count != 2 {
		return fmt.Errorf("kind=fleet count = %d, want 2", fleetPage.Count)
	}
	for _, r := range fleetPage.Records {
		hasTrace := false
		for _, f := range r.Files {
			if f.Class == "fleet-journal" && f.Size > 0 {
				hasTrace = true
			}
		}
		if !hasTrace {
			return fmt.Errorf("fleet record %s has no sized fleet-journal file ref", r.ID)
		}
	}
	if p, err := getHistory(base, "?gate=xor"); err != nil || p.Count != 4 {
		return fmt.Errorf("gate=xor count = %d (%v), want 4 (2 evals + 2 fleet)", p.Count, err)
	}
	if p, err := getHistory(base, "?gate=maj3"); err != nil || p.Count != 1 {
		return fmt.Errorf("gate=maj3 count = %d (%v), want 1", p.Count, err)
	}
	log.Printf("history API: %d records (%v), filters answer correctly", page.Total, kinds)
	return nil
}

// checkDeepHealth asserts the deep health view carries the history
// section with sweeper progress.
func checkDeepHealth(base string) error {
	resp, err := http.Get(base + "/v1/healthz?deep=1")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var deep struct {
		History struct {
			Records   int `json:"records"`
			Retention struct {
				Sweeps  int64 `json:"sweeps"`
				Deleted int   `json:"deleted"`
			} `json:"retention"`
		} `json:"history"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&deep); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("deep healthz status %d", resp.StatusCode)
	}
	if deep.History.Records < 5 {
		return fmt.Errorf("deep healthz history.records = %d, want >= 5", deep.History.Records)
	}
	if deep.History.Retention.Sweeps < 1 {
		return fmt.Errorf("deep healthz reports %d retention sweeps, want >= 1", deep.History.Retention.Sweeps)
	}
	log.Printf("deep health: %d records, %d sweeps", deep.History.Records, deep.History.Retention.Sweeps)
	return nil
}

// checkMetrics asserts the history/retention families are exported.
func checkMetrics(base string) error {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	for _, family := range []string{
		"spinwave_history_indexed_total",
		"spinwave_retention_sweeps_total",
		"spinwave_retention_deleted_total",
		"spinwave_retention_bytes_reclaimed_total",
	} {
		if !bytes.Contains(body, []byte(family)) {
			return fmt.Errorf("/metrics lacks %s", family)
		}
	}
	return nil
}

// checkCLI runs the built swhistory binary against the live catalog.
func checkCLI(historyBin, historyDir, req1, req2 string) error {
	out, err := exec.Command(historyBin, "-catalog", historyDir, "-kind", "fleet", "-json").Output()
	if err != nil {
		return fmt.Errorf("swhistory: %w", err)
	}
	var recs []struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(out, &recs); err != nil {
		return fmt.Errorf("swhistory JSON: %w", err)
	}
	ids := map[string]bool{}
	for _, r := range recs {
		ids[r.ID] = true
	}
	if len(recs) != 2 || !ids[req1] || !ids[req2] {
		return fmt.Errorf("swhistory -kind fleet returned %d records %v, want both %s and %s", len(recs), ids, req1, req2)
	}
	log.Printf("swhistory CLI answers: %d fleet records", len(recs))
	return nil
}

// postOK POSTs body as JSON and requires a 200.
func postOK(url string, body map[string]any) error {
	buf, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s answered %d: %s", url, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	return nil
}

// waitForListen scans swserve's stderr for the "listening on" line and
// returns the base URL, then keeps draining the pipe.
func waitForListen(r interface{ Read([]byte) (int, error) }) (string, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(os.Stderr, line)
		if i := strings.Index(line, "listening on "); i >= 0 {
			addr := strings.Fields(line[i+len("listening on "):])[0]
			go func() {
				for sc.Scan() {
					fmt.Fprintln(os.Stderr, sc.Text())
				}
			}()
			return "http://" + addr, nil
		}
	}
	return "", fmt.Errorf("swserve exited before listening (scan err: %v)", sc.Err())
}
