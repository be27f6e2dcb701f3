package obsplane

import (
	"fmt"
	"io"
	"sort"
	"time"

	"spinwave/internal/obs"
)

// Fleet trace assembly: the merged multi-node journal of one trace
// rendered as a Chrome trace-event JSON document by obs.WriteChromeTrace,
// the writer single-process runs use too. Each node gets its own row;
// every journal event becomes an instant marker on its node's row, and
// job ownership windows — claim to completion, failure or requeue —
// become duration spans on the claiming worker's row, so a SIGKILLed
// worker's truncated span and the peer's resume span sit side by side
// on one timeline.

// WriteChromeTrace renders the merged events (as returned by
// Store.Events — per-node sequence order is assumed) as a Chrome trace
// JSON document through obs.WriteChromeTrace.
func WriteChromeTrace(w io.Writer, trace string, events []ShippedEvent) error {
	out := make([]obs.ChromeEvent, 0, len(events))

	// Open job-ownership spans keyed by job ID: a fleet.claim opens one
	// on the claiming worker's row; the matching terminal event (done,
	// failed, or requeue after the lease expired) closes it.
	type openSpan struct {
		job     string
		worker  string
		startNS int64
		attempt string
	}
	open := make(map[string]*openSpan)
	closeSpan := func(sp *openSpan, endNS int64, status string) {
		out = append(out, obs.ChromeEvent{
			Row: sp.worker, Name: "job " + sp.job,
			Start: time.Unix(0, sp.startNS), Dur: time.Duration(endNS - sp.startNS),
			Args: map[string]string{
				"job": sp.job, "worker": sp.worker,
				"attempt": sp.attempt, "status": status, "trace": trace,
			},
		})
	}

	var lastNS int64
	for _, e := range events {
		if e.TimeNS > lastNS {
			lastNS = e.TimeNS
		}
		ev := obs.ChromeEvent{Row: e.Node, Name: e.Name, Start: time.Unix(0, e.TimeNS), Instant: true}
		if len(e.Fields) > 0 || e.Run != "" {
			ev.Args = make(map[string]string, len(e.Fields)+1)
			for k, v := range e.Fields {
				ev.Args[k] = fmt.Sprint(v)
			}
			if e.Run != "" {
				ev.Args["run"] = e.Run
			}
		}
		out = append(out, ev)

		job, _ := e.Fields["job"].(string)
		switch e.Name {
		case "fleet.claim":
			worker, _ := e.Fields["worker"].(string)
			if job == "" || worker == "" {
				break
			}
			if sp := open[job]; sp != nil {
				// A re-claim without an observed terminal event (the lease
				// expired between shipped batches): close the stale span at
				// the re-claim instant.
				closeSpan(sp, e.TimeNS, "lost")
			}
			open[job] = &openSpan{job: job, worker: worker, startNS: e.TimeNS,
				attempt: fmt.Sprint(e.Fields["attempt"])}
		case "fleet.job":
			status, _ := e.Fields["status"].(string)
			if sp := open[job]; sp != nil && (status == "done" || status == "failed") {
				closeSpan(sp, e.TimeNS, status)
				delete(open, job)
			}
		case "fleet.requeue":
			if sp := open[job]; sp != nil {
				closeSpan(sp, e.TimeNS, "requeued")
				delete(open, job)
			}
		}
	}
	// A span still open at the end of the journal (a worker died and the
	// job never terminated) is closed at the last observed instant and
	// marked open — the truncation is the finding, not an error.
	var dangling []string
	for job := range open {
		dangling = append(dangling, job)
	}
	sort.Strings(dangling)
	for _, job := range dangling {
		closeSpan(open[job], lastNS, "open")
	}
	return obs.WriteChromeTrace(w, out)
}

// TraceSummary is swdoctor -fleet's per-trace accounting of a merged
// multi-node journal.
type TraceSummary struct {
	// Trace is the trace ID the events carry (empty when none do).
	Trace string
	// Nodes maps each node to its event count.
	Nodes map[string]int
	// Claims, Requeues, Resumes and Requests count the fleet lifecycle
	// events observed across all nodes.
	Claims   int
	Requeues int
	Resumes  int
	Requests int
	// Complete reports whether a fleet.request completion was observed.
	Complete bool
	// SeqViolations counts per-node sequence regressions — zero for any
	// journal written by Store.Append.
	SeqViolations int
}

// Summarize scans a merged event set for the fleet lifecycle counters
// swdoctor -fleet scores.
func Summarize(events []ShippedEvent) TraceSummary {
	sum := TraceSummary{Nodes: make(map[string]int)}
	lastSeq := make(map[string]uint64)
	for _, e := range events {
		sum.Nodes[e.Node]++
		if e.Seq <= lastSeq[e.Node] {
			sum.SeqViolations++
		}
		lastSeq[e.Node] = e.Seq
		if sum.Trace == "" && e.Trace != "" {
			sum.Trace = e.Trace
		}
		switch e.Name {
		case "fleet.claim":
			sum.Claims++
		case "fleet.requeue":
			sum.Requeues++
		case "checkpoint.resume":
			sum.Resumes++
		case "fleet.request":
			sum.Requests++
			if st, _ := e.Fields["status"].(string); st == "complete" {
				sum.Complete = true
			}
		}
	}
	return sum
}
