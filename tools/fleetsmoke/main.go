// Command fleetsmoke is the CI gate for the distributed evaluation
// fleet: it builds the real swserve and swworker binaries, boots a
// coordinator with a durable queue and a short lease, attaches two
// workers, submits the full XOR truth table sharded one case per job —
// then SIGKILLs whichever worker is holding a job mid-evaluation and
// requires the request to complete anyway through lease expiry and
// requeue. It exits non-zero if the table does not complete, loses a
// case, or decodes incorrectly.
//
// A second phase gates the checkpointed long-transient path (DESIGN.md
// §15): a single micromagnetic case split into three resumable segments
// over the run-artifact store. The worker holding a segment is
// SIGKILLed after its first checkpoint lands, and a peer must finish
// the run by resuming from that checkpoint — proved by a journaled
// checkpoint.resume with a nonzero step on the surviving worker and by
// readouts exactly equal to an uninterrupted in-process run.
//
// Between the phases the smoke gates the observability plane (DESIGN.md
// §16): the request's trace ID is read from its status, the merged
// multi-node journal is downloaded from /v1/fleet/jobs/{id}/events and
// the assembled Chrome trace from /v1/fleet/jobs/{id}/trace — and the
// run fails unless the SIGKILLed worker's shipped events survived at
// the coordinator and the trace spans at least two nodes. The follow
// tail of the completed request must also end by itself at its
// fleet.request complete line. Both
// downloads are left behind as artifacts for journalcheck -fleet,
// swdoctor -fleet, and CI upload.
//
//	go run ./tools/fleetsmoke -journal fleet.jsonl -events fleet-trace.jsonl -trace fleet-trace.json
//
// The journal written by the coordinator is left behind for
// journalcheck and for the fleet.claim / fleet.requeue greps in the
// fleet-smoke make target.
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
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"spinwave"
	"spinwave/internal/obsplane"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fleetsmoke: ")
	journalPath := flag.String("journal", "fleet.jsonl", "coordinator journal output (validated by journalcheck afterwards)")
	eventsPath := flag.String("events", "fleet-trace.jsonl", "merged fleet journal snapshot download (validated by journalcheck/swdoctor -fleet)")
	tracePath := flag.String("trace", "fleet-trace.json", "assembled Chrome trace JSON download (CI artifact)")
	timeout := flag.Duration("timeout", 3*time.Minute, "overall deadline for the smoke run")
	flag.Parse()

	if err := run(*journalPath, *eventsPath, *tracePath, *timeout); err != nil {
		log.Fatal(err)
	}
}

func run(journalPath, eventsPath, tracePath string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	tmp, err := os.MkdirTemp("", "fleetsmoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// swserve appends to its -journal (recovery events from earlier
	// incarnations matter in production), so a stale file from a
	// previous smoke run would fail journalcheck's strict sequence
	// check. The smoke wants exactly one incarnation's journal.
	if err := os.Remove(journalPath); err != nil && !os.IsNotExist(err) {
		return err
	}

	// Build the real binaries: the smoke test exercises the shipped
	// entrypoints, not in-process stand-ins.
	serveBin := filepath.Join(tmp, "swserve")
	workerBin := filepath.Join(tmp, "swworker")
	for bin, pkg := range map[string]string{serveBin: "./cmd/swserve", workerBin: "./cmd/swworker"} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("building %s: %w", pkg, err)
		}
	}

	// Coordinator on an ephemeral port with a short lease so the killed
	// worker's job requeues within seconds. The artifact store backs the
	// checkpointed-transient phase.
	queueDir := filepath.Join(tmp, "queue")
	serve := exec.Command(serveBin,
		"-addr", "127.0.0.1:0",
		"-fleet-queue", queueDir,
		"-fleet-lease", "2s",
		"-artifacts", filepath.Join(tmp, "artifacts"),
		"-journal", journalPath,
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
	log.Printf("coordinator at %s", base)

	// Two workers with a per-case delay long enough that a job is
	// reliably in flight when we shoot one of them. Each writes its own
	// journal so the transient phase can prove a resume on the survivor.
	workers := make(map[string]*exec.Cmd, 3)
	journals := make(map[string]string, 3)
	startWorker := func(id string) error {
		journals[id] = filepath.Join(tmp, id+".jsonl")
		w := exec.Command(workerBin,
			"-coordinator", base,
			"-id", id,
			"-workers", "2",
			"-case-delay", "1500ms",
			"-journal", journals[id])
		w.Stderr = os.Stderr
		if err := w.Start(); err != nil {
			return err
		}
		workers[id] = w
		return nil
	}
	for _, id := range []string{"smoke-w1", "smoke-w2"} {
		if err := startWorker(id); err != nil {
			return err
		}
	}
	defer func() {
		for _, w := range workers {
			w.Process.Signal(syscall.SIGTERM) //nolint:errcheck
			w.Wait()                          //nolint:errcheck
		}
	}()

	// Full XOR table, one case per job: four jobs across two workers.
	reqID, err := submit(base, map[string]any{"gate": "xor", "table": true, "shard": 1})
	if err != nil {
		return err
	}
	log.Printf("submitted request %s (xor table, shard 1)", reqID)

	// Kill whichever worker claims a job first, while it is mid-case.
	victim, err := waitForActiveWorker(base, deadline)
	if err != nil {
		return err
	}
	proc, ok := workers[victim]
	if !ok {
		return fmt.Errorf("coordinator reports unknown active worker %q", victim)
	}
	// The journal shipper's contract is "a SIGKILL loses at most one
	// flush interval": give the victim two intervals to land its claim's
	// traced events at the coordinator, still well inside the 1500ms
	// case delay, so the post-mortem gate below has a tail to find.
	time.Sleep(3 * obsplane.DefaultFlushEvery)
	if err := proc.Process.Kill(); err != nil {
		return err
	}
	proc.Wait() //nolint:errcheck
	delete(workers, victim)
	log.Printf("killed worker %s mid-job (SIGKILL)", victim)

	// The survivor must finish the whole table through requeue.
	st, err := waitForComplete(base, reqID, deadline)
	if err != nil {
		return err
	}
	if st.CasesDone != st.CasesTotal {
		return fmt.Errorf("cases lost: %d/%d done", st.CasesDone, st.CasesTotal)
	}
	if st.Table == nil {
		return fmt.Errorf("completed request has no assembled table")
	}
	if len(st.Table.Cases) != 4 {
		return fmt.Errorf("table has %d cases, want 4", len(st.Table.Cases))
	}
	for _, c := range st.Table.Cases {
		want := c.Inputs[0] != c.Inputs[1]
		for _, o := range c.Outputs {
			if o.Logic != want {
				return fmt.Errorf("case %v %s decoded %v, want %v", c.Inputs, o.Name, o.Logic, want)
			}
		}
	}
	requeued := false
	for _, j := range st.Jobs {
		if j.Attempts > 1 {
			requeued = true
		}
	}
	if !requeued {
		return fmt.Errorf("no job needed a second attempt — the kill missed its window")
	}
	log.Printf("request %s complete after worker loss: %d/%d cases, table decodes correctly",
		reqID, st.CasesDone, st.CasesTotal)

	// The post-mortem gate: the dead worker's journal tail must have
	// survived at the coordinator, queryable by the request ID alone.
	if err := observabilityPhase(base, reqID, victim, eventsPath, tracePath); err != nil {
		return err
	}

	// Phase 2: the checkpointed transient. Restore the fleet to two
	// workers first — the phase kills one of them again.
	if err := startWorker("smoke-w3"); err != nil {
		return err
	}
	return transientPhase(base, workers, journals, deadline)
}

// observabilityPhase downloads the completed request's merged fleet
// journal and assembled Chrome trace, saves both as artifacts, and
// fails unless the SIGKILLed worker's shipped events are present, the
// trace spans at least two nodes, and the request's follow tail ends by
// itself at its completion.
func observabilityPhase(base, reqID, victim, eventsPath, tracePath string) error {
	// The trace ID travels on the request status — a post-mortem can
	// start from either ID, but the smoke asserts the correlation chain.
	resp, err := http.Get(base + "/v1/fleet/jobs/" + reqID)
	if err != nil {
		return err
	}
	var withTrace struct {
		Trace string `json:"trace"`
	}
	err = json.NewDecoder(resp.Body).Decode(&withTrace)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if withTrace.Trace == "" {
		return fmt.Errorf("completed request %s reports no trace ID", reqID)
	}

	// Merged journal snapshot: every event must carry the request's
	// trace, per-node events must include the dead worker's.
	body, err := download(base+"/v1/fleet/jobs/"+reqID+"/events?follow=false", eventsPath)
	if err != nil {
		return fmt.Errorf("fleet journal download: %w", err)
	}
	nodes := make(map[string]int)
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		var ev struct {
			Node  string `json:"node"`
			Trace string `json:"trace"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("fleet journal line %q: %w", sc.Text(), err)
		}
		if ev.Node == "" {
			continue // NDJSON framing (heartbeat / server_draining)
		}
		if ev.Trace != withTrace.Trace {
			return fmt.Errorf("fleet journal event on node %s carries trace %q, want %q", ev.Node, ev.Trace, withTrace.Trace)
		}
		nodes[ev.Node]++
	}
	if nodes[victim] == 0 {
		return fmt.Errorf("dead worker %s has no events in the coordinator's fleet journal (nodes: %v)", victim, nodes)
	}
	if len(nodes) < 2 {
		return fmt.Errorf("fleet journal spans %d node(s), want at least 2 (nodes: %v)", len(nodes), nodes)
	}
	if err := followTail(base, reqID); err != nil {
		return err
	}

	// Assembled Chrome trace: well-formed JSON with events, naming the
	// dead worker's row.
	body, err = download(base+"/v1/fleet/jobs/"+reqID+"/trace", tracePath)
	if err != nil {
		return fmt.Errorf("fleet trace download: %w", err)
	}
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &chrome); err != nil {
		return fmt.Errorf("fleet trace JSON: %w", err)
	}
	if len(chrome.TraceEvents) == 0 {
		return fmt.Errorf("fleet trace has no traceEvents")
	}
	if !bytes.Contains(body, []byte(victim)) {
		return fmt.Errorf("fleet trace does not name the dead worker %s", victim)
	}
	log.Printf("post-mortem gate: trace %s spans %d nodes incl. dead %s (%d events from it); artifacts %s, %s",
		withTrace.Trace, len(nodes), victim, nodes[victim], eventsPath, tracePath)
	return nil
}

// followTail reads the follow-mode NDJSON tail of a completed request
// and requires it to end by itself, within a deadline, at the request's
// fleet.request complete line.
func followTail(base, reqID string) error {
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(base + "/v1/fleet/jobs/" + reqID + "/events")
	if err != nil {
		return fmt.Errorf("fleet follow tail: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("fleet follow tail did not end by itself: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	var end struct {
		Event  string `json:"event"`
		Fields struct{ Status string }
	}
	json.Unmarshal(lines[len(lines)-1], &end) //nolint:errcheck
	if end.Event != "fleet.request" || end.Fields.Status != "complete" {
		return fmt.Errorf("fleet follow tail (%s) ended at %q, want the fleet.request complete line", resp.Status, lines[len(lines)-1])
	}
	log.Printf("follow tail of %s ended by itself at fleet.request complete after %d lines", reqID, len(lines))
	return nil
}

// download GETs url, saves the body to path, and returns it.
func download(url, path string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, os.WriteFile(path, body, 0o644)
}

// transientPhase submits one micromagnetic XOR case split into three
// resumable segments, SIGKILLs the worker holding a segment once its
// first checkpoint has landed in the artifact store, and requires a
// peer to finish the run by resuming — with readouts exactly equal to
// an uninterrupted run of the same configuration.
func transientPhase(base string, workers map[string]*exec.Cmd, journals map[string]string, deadline time.Time) error {
	const dtScale = 0.3 // stretch each segment so the kill lands mid-flight
	inputs := []bool{true, false}

	reqID, err := submit(base, map[string]any{
		"gate": "xor", "backend": "micromag", "spec": "reduced",
		"cases": [][]bool{inputs}, "segments": 3, "every_steps": 150, "dt_scale": dtScale,
	})
	if err != nil {
		return fmt.Errorf("transient submit: %w", err)
	}
	run, err := requestRun(base, reqID)
	if err != nil {
		return err
	}
	log.Printf("submitted transient request %s (run %s, 3 segments)", reqID, run)

	// The golden readouts: the identical configuration run uninterrupted
	// in-process. Checkpoint segmentation must not change a single bit.
	m, err := spinwave.NewMicromagnetic(spinwave.XOR, spinwave.WithDtScale(dtScale))
	if err != nil {
		return err
	}
	golden, err := m.Run(inputs)
	if err != nil {
		return err
	}

	// Kill the worker holding a segment, but only after a checkpoint has
	// landed durably — the peer must have something to resume from.
	victim := ""
	for time.Now().Before(deadline) {
		if !artifactsHaveManifest(base, run) {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		if victim, err = activeWorker(base); err == nil && victim != "" {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	proc, ok := workers[victim]
	if !ok {
		return fmt.Errorf("no worker held a transient segment after a checkpoint landed (victim %q)", victim)
	}
	if err := proc.Process.Kill(); err != nil {
		return err
	}
	proc.Wait() //nolint:errcheck
	delete(workers, victim)
	log.Printf("killed worker %s mid-segment (SIGKILL), checkpoint already durable", victim)

	st, err := waitForComplete(base, reqID, deadline)
	if err != nil {
		return err
	}
	if len(st.Results) != 1 {
		return fmt.Errorf("transient completed with %d results, want 1", len(st.Results))
	}
	for name, want := range golden {
		got, ok := st.Results[0].Outputs[name]
		if !ok {
			return fmt.Errorf("transient result lacks output %s", name)
		}
		if got.Amplitude != want.Amplitude || got.Phase != want.Phase {
			return fmt.Errorf("output %s differs from the uninterrupted run: got (%.17g, %.17g), want (%.17g, %.17g)",
				name, got.Amplitude, got.Phase, want.Amplitude, want.Phase)
		}
	}
	retried := false
	for _, j := range st.Jobs {
		if j.Attempts > 1 {
			retried = true
		}
	}
	if !retried {
		return fmt.Errorf("no segment needed a second attempt — the kill missed its window")
	}

	// The decisive check: a surviving worker resumed from a checkpoint
	// (step > 0) instead of silently restarting the transient.
	if err := survivorResumed(workers, journals); err != nil {
		return err
	}

	// Post-mortem artifacts: each completed segment uploads its probe
	// time-series CSV next to the checkpoints, so the run's physics is
	// inspectable without rerunning it.
	if err := probeCSVsUploaded(base, run); err != nil {
		return err
	}
	log.Printf("transient request %s complete after worker loss: readouts exactly match the uninterrupted run", reqID)
	return nil
}

// probeCSVsUploaded asserts the run's artifact listing contains at
// least one non-empty per-segment probe CSV (probes-sNN.csv).
func probeCSVsUploaded(base, run string) error {
	resp, err := http.Get(base + "/v1/runs/" + run + "/artifacts")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var list struct {
		Artifacts []struct {
			Name string `json:"name"`
			Size int64  `json:"size"`
		} `json:"artifacts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return err
	}
	csvs := 0
	for _, a := range list.Artifacts {
		if strings.HasPrefix(a.Name, "probes-s") && strings.HasSuffix(a.Name, ".csv") {
			if a.Size == 0 {
				return fmt.Errorf("probe CSV %s is empty", a.Name)
			}
			csvs++
		}
	}
	if csvs == 0 {
		return fmt.Errorf("run %s has no probes-s*.csv artifacts (listing: %+v)", run, list.Artifacts)
	}
	log.Printf("run %s has %d per-segment probe CSV artifact(s)", run, csvs)
	return nil
}

// resumeStep extracts the step field of checkpoint.resume events.
var resumeStep = regexp.MustCompile(`"event":"checkpoint\.resume".*?"step":(\d+)`)

// survivorResumed scans the surviving workers' journals for a
// checkpoint.resume event with a nonzero step.
func survivorResumed(workers map[string]*exec.Cmd, journals map[string]string) error {
	for id := range workers {
		data, err := os.ReadFile(journals[id])
		if err != nil {
			continue
		}
		for _, m := range resumeStep.FindAllStringSubmatch(string(data), -1) {
			if step, _ := strconv.Atoi(m[1]); step > 0 {
				log.Printf("worker %s resumed from checkpoint step %d", id, step)
				return nil
			}
		}
	}
	return fmt.Errorf("no surviving worker journaled a checkpoint.resume with step > 0 — the segment restarted instead of resuming")
}

// requestRun polls the request status until its run ID is visible.
func requestRun(base, reqID string) (string, error) {
	resp, err := http.Get(base + "/v1/fleet/jobs/" + reqID)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var st struct {
		Run string `json:"run"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", err
	}
	if st.Run == "" {
		return "", fmt.Errorf("transient request %s reports no run ID", reqID)
	}
	return st.Run, nil
}

// artifactsHaveManifest reports whether the run's artifact listing
// already contains a committed checkpoint manifest.
func artifactsHaveManifest(base, run string) bool {
	resp, err := http.Get(base + "/v1/runs/" + run + "/artifacts")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var list struct {
		Artifacts []struct {
			Name string `json:"name"`
		} `json:"artifacts"`
	}
	if json.NewDecoder(resp.Body).Decode(&list) != nil {
		return false
	}
	for _, a := range list.Artifacts {
		if strings.HasPrefix(a.Name, "ck-") && strings.HasSuffix(a.Name, ".json") {
			return true
		}
	}
	return false
}

// activeWorker returns the ID of a worker currently holding a job.
func activeWorker(base string) (string, error) {
	resp, err := http.Get(base + "/v1/fleet/workers")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var body struct {
		Workers []struct {
			ID         string `json:"id"`
			ActiveJobs int    `json:"active_jobs"`
		} `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return "", err
	}
	for _, w := range body.Workers {
		if w.ActiveJobs > 0 {
			return w.ID, nil
		}
	}
	return "", nil
}

// waitForListen scans swserve's stderr for the "listening on" line and
// returns the base URL.
func waitForListen(r interface{ Read([]byte) (int, error) }) (string, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(os.Stderr, line)
		if i := strings.Index(line, "listening on "); i >= 0 {
			addr := strings.Fields(line[i+len("listening on "):])[0]
			go drain(sc)
			return "http://" + addr, nil
		}
	}
	return "", fmt.Errorf("swserve exited before listening (scan err: %v)", sc.Err())
}

// drain keeps forwarding the coordinator's stderr so its pipe never
// fills up and blocks the process.
func drain(sc *bufio.Scanner) {
	for sc.Scan() {
		fmt.Fprintln(os.Stderr, sc.Text())
	}
}

// status mirrors the /v1/fleet/jobs/{id} response shape the smoke run
// cares about.
type status struct {
	State      string `json:"state"`
	CasesTotal int    `json:"cases_total"`
	CasesDone  int    `json:"cases_done"`
	Jobs       []struct {
		ID       string `json:"id"`
		Status   string `json:"status"`
		Attempts int    `json:"attempts"`
		Worker   string `json:"worker,omitempty"`
	} `json:"jobs"`
	Table *struct {
		Cases []struct {
			Inputs  []bool `json:"inputs"`
			Outputs []struct {
				Name  string `json:"name"`
				Logic bool   `json:"logic"`
			} `json:"outputs"`
		} `json:"cases"`
	} `json:"table"`
	Results []struct {
		Outputs map[string]struct {
			Amplitude float64 `json:"Amplitude"`
			Phase     float64 `json:"Phase"`
		} `json:"outputs"`
	} `json:"results"`
}

func submit(base string, body map[string]any) (string, error) {
	buf, _ := json.Marshal(body)
	resp, err := http.Post(base+"/v1/fleet/jobs", "application/json", bytes.NewReader(buf))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var st struct {
		ID string `json:"request_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		return "", fmt.Errorf("submit answered %d with request_id %q", resp.StatusCode, st.ID)
	}
	return st.ID, nil
}

// waitForActiveWorker polls /v1/fleet/workers until some worker holds a
// claimed job, and returns its ID.
func waitForActiveWorker(base string, deadline time.Time) (string, error) {
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/fleet/workers")
		if err == nil {
			var body struct {
				Workers []struct {
					ID         string `json:"id"`
					ActiveJobs int    `json:"active_jobs"`
				} `json:"workers"`
			}
			err = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if err == nil {
				for _, w := range body.Workers {
					if w.ActiveJobs > 0 {
						return w.ID, nil
					}
				}
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return "", fmt.Errorf("no worker claimed a job before the deadline")
}

func waitForComplete(base string, reqID string, deadline time.Time) (*status, error) {
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/fleet/jobs/" + reqID)
		if err == nil {
			var st status
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err == nil {
				switch st.State {
				case "complete":
					return &st, nil
				case "failed":
					return nil, fmt.Errorf("request %s failed: %+v", reqID, st.Jobs)
				}
			}
		}
		time.Sleep(200 * time.Millisecond)
	}
	return nil, fmt.Errorf("request %s not complete before the deadline", reqID)
}
