package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric; BENCHMARK.json lists the same names,
// units and directions (a test holds them equal).
type metricDef struct {
	name, unit, better string
}

// e2eMetrics are the end-to-end metrics every workload reports, from the
// untraced window. Workload-specific figures (per-kind latency, tail
// percentiles, throughput, cell-steps/s) are printed as details.
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_norm_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// refSpeedMops is the reference host speed latency_norm_ms is scaled to:
// the two-thread calibration loop's rate on an uncontended 2-vCPU host.
const refSpeedMops = 800

// layerMetrics are the per-layer metrics every traced run reports.
var layerMetrics = []metricDef{
	{"swserve.http_ms", "ms", "lower"},
	{"swserve.client_overhead_ms", "ms", "lower"},
	{"core.new_micromag_ms", "ms", "lower"},
	{"core.micromag_setup_ms", "ms", "lower"},
	{"core.micromag_transient_ms", "ms", "lower"},
	{"core.micromag_lockin_ms", "ms", "lower"},
	{"llg.ns_per_cell_step", "ns", "lower"},
	{"llg.ns_per_cell_step_norm", "ops", "lower"},
	{"llg.steps", "count", "lower"},
	{"engine.requests", "count", "lower"},
	{"engine.recomputes", "count", "lower"},
	{"engine.cache_hit_ratio", "ratio", "higher"},
	{"engine.disk_hit_ratio", "ratio", "higher"},
	{"engine.surrogate_evals", "count", "higher"},
	{"engine.coalesced", "count", "higher"},
	{"runhistory.append_us", "us", "lower"},
	{"runhistory.indexed", "count", "lower"},
	{"fleet.claims", "count", "lower"},
	{"checkpoint.saves", "count", "lower"},
	{"replay.coverage", "ratio", "higher"},
}

// metric is one reported value with its unit and sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// wlReport is one workload's result in run.json.
type wlReport struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Traced    bool `json:"traced"`
	// Invalid says why the window does not count (empty when it does).
	Invalid  string            `json:"invalid,omitempty"`
	Metrics  map[string]metric `json:"metrics"`
	Details  map[string]metric `json:"details"`
	Layers   map[string]metric `json:"layers,omitempty"`
	Problems []string          `json:"problems,omitempty"`
}

// runFile is the -out document; compare reads a list of them.
type runFile struct {
	Header    header               `json:"header"`
	Workloads map[string]*wlReport `json:"workloads"`
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// endToEnd computes the end-to-end metrics of one window.
//
// latency_norm_ms starts from the geometric mean over the workload's
// request kinds of each kind's median latency: every kind counts once
// whatever its share of the mix, and the value never jumps between the
// modes of a mix of fast and slow kinds the way one median over all
// requests does. It is then scaled by the host's speed around the
// window (speedMops, the two-thread calibration loop) over
// refSpeedMops: on a shared host whose vCPUs slow down when neighbours
// are busy, the scaled value is the latency a host at the reference
// speed would have seen, and its run-to-run spread is about half the
// raw one.
func endToEnd(setups []time.Duration, res *windowResult, rssMB float64, procs int, speedMops float64) map[string]metric {
	set := make([]float64, len(setups))
	for i, d := range setups {
		set[i] = d.Seconds()
	}
	return map[string]metric{
		"setup_s":         {Value: median(set), Unit: "s", N: len(set)},
		"latency_norm_ms": {Value: typicalLatency(res) * speedMops / refSpeedMops, Unit: "ms", N: len(res.samples)},
		"peak_rss_mb":     {Value: rssMB, Unit: "MB", N: procs},
	}
}

// typicalLatency is the geometric mean over request kinds of each kind's
// median latency, in ms.
func typicalLatency(res *windowResult) float64 {
	byKind := latenciesByKind(res)
	logSum := 0.0
	for _, lat := range byKind {
		logSum += math.Log(median(lat))
	}
	return math.Exp(logSum / float64(len(byKind)))
}

// latenciesByKind groups the window's latencies, in ms, by request kind.
func latenciesByKind(res *windowResult) map[string][]float64 {
	byKind := map[string][]float64{}
	for _, s := range res.samples {
		byKind[s.kind] = append(byKind[s.kind], ms(s.latency))
	}
	return byKind
}

// tail adds the highest of p90/p99/p99.9 that has at least minBeyond
// samples beyond it, under prefix.
func tail(out map[string]metric, prefix string, lat []float64) {
	for _, p := range []struct {
		name string
		q    float64
	}{{"p99.9", 99.9}, {"p99", 99}, {"p90", 90}} {
		if percentileReportable(len(lat), p.q) {
			out[prefix+p.name+"_ms"] = metric{Value: percentile(lat, p.q), Unit: "ms", N: len(lat)}
			return
		}
	}
}

// details computes the workload-specific figures printed beside the
// end-to-end metrics: error ratio, per-kind and per-phase latency with
// tails, solver throughput, generator lag.
func details(res *windowResult) map[string]metric {
	out := map[string]metric{}
	if res.attempted > 0 {
		out["error_ratio"] = metric{Value: float64(res.failed) / float64(res.attempted), Unit: "ratio", N: res.attempted}
	}
	byPhase := map[int][]float64{}
	var all []float64
	work := 0.0
	for _, s := range res.samples {
		l := ms(s.latency)
		byPhase[s.phase] = append(byPhase[s.phase], l)
		all = append(all, l)
		work += s.cellSteps
	}
	out["latency_ms"] = metric{Value: typicalLatency(res), Unit: "ms", N: len(all)}
	out["latency_p50_ms"] = metric{Value: median(all), Unit: "ms", N: len(all)}
	tail(out, "latency_", all)
	if res.elapsed > 0 {
		out["throughput_per_s"] = metric{Value: float64(len(all)) / res.elapsed.Seconds(), Unit: "1/s", N: len(all)}
	}
	for kind, lat := range latenciesByKind(res) {
		out[kind+"_p50_ms"] = metric{Value: median(lat), Unit: "ms", N: len(lat)}
		tail(out, kind+"_", lat)
	}
	for i, ph := range res.phases {
		lat := byPhase[i]
		out[ph.label+"_p50_ms"] = metric{Value: median(lat), Unit: "ms", N: len(lat)}
		tail(out, ph.label+"_", lat)
	}
	if len(res.phases) > 0 {
		lag := make([]float64, len(res.lag))
		for i, d := range res.lag {
			lag[i] = ms(d)
		}
		out["gen_lag_p99_ms"] = metric{Value: percentile(lag, 99), Unit: "ms", N: len(lag)}
		out["gen_late_requests"] = metric{Value: float64(res.late), Unit: "count"}
	}
	if work > 0 && res.elapsed > 0 {
		out["cell_steps_per_s"] = metric{Value: work / res.elapsed.Seconds(), Unit: "1/s", N: len(res.samples)}
	}
	return out
}

// windowLayers computes the per-layer metrics that come from the
// processes' /metrics deltas over the window and the client's own call
// accounting.
func windowLayers(d scrape, paths []string, clientCalls int, clientTime time.Duration) map[string]metric {
	out := map[string]metric{}
	var hsum, hcount float64
	for _, p := range paths {
		hsum += d.sum("swserve_http_request_seconds_sum", `path="`+p+`"`)
		hcount += d.sum("swserve_http_request_seconds_count", `path="`+p+`"`)
	}
	httpMS := 0.0
	if hcount > 0 {
		httpMS = hsum / hcount * 1e3
	}
	overhead := 0.0
	if clientCalls > 0 {
		overhead = ms(clientTime)/float64(clientCalls) - httpMS
	}
	out["swserve.http_ms"] = metric{Value: httpMS, Unit: "ms", N: int(hcount)}
	out["swserve.client_overhead_ms"] = metric{Value: overhead, Unit: "ms", N: clientCalls}

	hits, misses := d.sum("spinwave_engine_cache_hits_total"), d.sum("spinwave_engine_cache_misses_total")
	dhits := d.sum("spinwave_engine_disk_lookups_total", `result="hit"`)
	dmiss := d.sum("spinwave_engine_disk_lookups_total", `result="miss"`)
	out["engine.requests"] = metric{Value: d.sum("spinwave_engine_requests_total"), Unit: "count"}
	out["engine.recomputes"] = metric{Value: d.sum("spinwave_engine_evals_total", `result="ok"`), Unit: "count"}
	out["engine.cache_hit_ratio"] = metric{Value: ratio(hits, hits+misses), Unit: "ratio", N: int(hits + misses)}
	out["engine.disk_hit_ratio"] = metric{Value: ratio(dhits, dhits+dmiss), Unit: "ratio", N: int(dhits + dmiss)}
	out["engine.surrogate_evals"] = metric{Value: d.sum("spinwave_engine_surrogate_evals_total"), Unit: "count"}
	out["engine.coalesced"] = metric{Value: d.sum("spinwave_engine_coalesced_total"), Unit: "count"}
	out["llg.steps"] = metric{Value: d.sum("spinwave_llg_steps_total"), Unit: "count"}
	out["runhistory.indexed"] = metric{Value: d.sum("spinwave_history_indexed_total"), Unit: "count"}
	out["fleet.claims"] = metric{Value: d.sum("spinwave_fleet_claims_total"), Unit: "count"}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replayLayers computes the per-layer metrics of the in-process replay
// from its spans.
func replayLayers(tr *tracer, model map[string]gateWork, calibMops float64) map[string]metric {
	out := map[string]metric{}
	meanMS := func(name string) metric {
		sp := tr.spansNamed(name)
		var total time.Duration
		for _, s := range sp {
			total += s.Dur
		}
		v := 0.0
		if len(sp) > 0 {
			v = ms(total) / float64(len(sp))
		}
		return metric{Value: v, Unit: "ms", N: len(sp)}
	}
	out["core.new_micromag_ms"] = meanMS("core.new_micromag")
	out["core.micromag_setup_ms"] = meanMS("micromag.setup")
	out["core.micromag_transient_ms"] = meanMS("micromag.transient")
	out["core.micromag_lockin_ms"] = meanMS("micromag.lockin")
	app := meanMS("runhistory.append")
	out["runhistory.append_us"] = metric{Value: app.Value * 1e3, Unit: "us", N: app.N}

	var stepTime time.Duration
	work := 0.0
	transients := tr.spansNamed("micromag.transient")
	for _, s := range transients {
		stepTime += s.Dur
		work += model[s.Labels["gate"]].cellSteps()
	}
	nsPer := 0.0
	if work > 0 {
		nsPer = float64(stepTime.Nanoseconds()) / work
	}
	out["llg.ns_per_cell_step"] = metric{Value: nsPer, Unit: "ns", N: len(transients)}
	// ns per cell-step times calibration iterations per ns: how many
	// calibration-loop iterations one cell-step costs on this host.
	out["llg.ns_per_cell_step_norm"] = metric{Value: nsPer * calibMops / 1e3, Unit: "ops", N: len(transients)}

	roots := tr.spansNamed("replay.request")
	self := selfTimes(tr.snapshot())
	var wall, rootSelf time.Duration
	for _, s := range roots {
		wall += s.Dur
		rootSelf += self[s.ID]
	}
	out["replay.coverage"] = metric{Value: 1 - ratio(float64(rootSelf), float64(wall)), Unit: "ratio", N: len(roots)}
	return out
}

// fleetEvent is one line of a fleet request's merged journal.
type fleetEvent struct {
	Node   string         `json:"node"`
	TimeNS int64          `json:"time_ns"`
	Event  string         `json:"event"`
	Fields map[string]any `json:"fields"`
}

// fleetLayers reads each fleet request's merged journal and times the
// queue path: submit→claim and claim→result per job, last result→request
// complete per request. It also counts checkpoint saves and the events
// workers shipped.
func fleetLayers(ctx context.Context, cl *client, base string, requests []string) (map[string]metric, error) {
	var toClaim, toResult, toComplete []float64
	saves, resumes, shipped := 0, 0, 0
	for _, id := range requests {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/fleet/jobs/"+id+"/events?follow=false", nil)
		if err != nil {
			return nil, err
		}
		resp, err := cl.hc.Do(req)
		if err != nil {
			return nil, err
		}
		var evs []fleetEvent
		if resp.StatusCode == http.StatusOK {
			evs, err = readEvents(resp.Body)
		} else {
			err = fmt.Errorf("%s", resp.Status)
		}
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("fleet events of %s: %w", id, err)
		}
		submitted, claimed, done := map[string]int64{}, map[string]int64{}, map[string]int64{}
		var complete, lastDone int64
		for _, ev := range evs {
			if ev.Node != "coordinator" {
				shipped++
			}
			job, _ := ev.Fields["job"].(string)
			status, _ := ev.Fields["status"].(string)
			switch {
			case ev.Event == "fleet.job" && status == "submitted":
				submitted[job] = ev.TimeNS
			case ev.Event == "fleet.claim":
				if _, ok := claimed[job]; !ok {
					claimed[job] = ev.TimeNS
				}
			case ev.Event == "fleet.job" && status == "done":
				done[job] = ev.TimeNS
				if ev.TimeNS > lastDone {
					lastDone = ev.TimeNS
				}
			case ev.Event == "fleet.request" && status == "complete":
				complete = ev.TimeNS
			case ev.Event == "checkpoint.save":
				saves++
			case ev.Event == "checkpoint.resume":
				resumes++
			}
		}
		for job, c := range claimed {
			if s, ok := submitted[job]; ok {
				toClaim = append(toClaim, float64(c-s)/1e9)
			}
			if d, ok := done[job]; ok {
				toResult = append(toResult, float64(d-c)/1e9)
			}
		}
		if complete > 0 && lastDone > 0 {
			toComplete = append(toComplete, float64(complete-lastDone)/1e9)
		}
	}
	return map[string]metric{
		"fleet.submit_to_claim_s":    {Value: median(toClaim), Unit: "s", N: len(toClaim)},
		"fleet.claim_to_result_s":    {Value: median(toResult), Unit: "s", N: len(toResult)},
		"fleet.result_to_complete_s": {Value: median(toComplete), Unit: "s", N: len(toComplete)},
		"checkpoint.saves":           {Value: float64(saves), Unit: "count"},
		"checkpoint.resumes":         {Value: float64(resumes), Unit: "count"},
		"obsplane.events_shipped":    {Value: float64(shipped), Unit: "count"},
	}, nil
}

func readEvents(r io.Reader) ([]fleetEvent, error) {
	var out []fleetEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev fleetEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	return out, sc.Err()
}

// sortedNames returns a metric map's names in order.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
