package main

import (
	"net/http"
	"sort"
	"sync"
	"time"

	"spinwave/internal/fleet"
	"spinwave/internal/obs"
)

// SLO tracking (DESIGN.md §12): every request that passes through the
// metrics middleware is also scored against two service-level
// objectives — availability (share of requests answered without a 5xx)
// and latency (share of requests answered under a threshold) — over a
// rolling window of per-second buckets. The headline signal is the
// burn rate: observed bad fraction ÷ allowed bad fraction, so 1.0 means
// the error budget is being consumed exactly at the sustainable rate,
// and anything much above it means the budget will be exhausted early.
// Burn rates are exported as gauges in /metrics
// (swserve_slo_error_burn_rate / swserve_slo_slow_burn_rate by path)
// and the full per-endpoint breakdown is served at GET /v1/slo.

// Routes that wait on something other than the server: the fleet claim
// waits until a job is pending, and the two NDJSON tails stream until
// their run or request ends. Their durations measure an idle fleet or a
// long run, not slow service, so the SLO scores them for availability
// only.
const (
	claimRoute     = "/v1/fleet/claim"
	runTailRoute   = "/v1/runs/events"
	fleetTailRoute = "/v1/fleet/jobs/events"
)

// availabilityOnly reports whether a route is exempt from latency
// scoring.
func availabilityOnly(path string) bool {
	return path == claimRoute || path == runTailRoute || path == fleetTailRoute
}

// The SLO window, objective and latency threshold.
const (
	defaultSLOWindow    = 5 * time.Minute
	defaultSLOObjective = 99.0 // percent, both availability and latency
	defaultSLOLatency   = 5 * time.Second
)

// sloBucket is one second of per-endpoint traffic.
type sloBucket struct {
	epoch int64 // Unix second this bucket currently represents
	total int64
	errs  int64 // responses with status >= 500
	slow  int64 // responses slower than the latency threshold
}

// sloSeries is the rolling window for one endpoint.
type sloSeries struct {
	buckets []sloBucket
}

// sloTracker scores requests against the availability and latency
// objectives over a rolling window. All methods are safe for concurrent
// use; record is O(1).
type sloTracker struct {
	window    time.Duration
	objective float64 // good-fraction objective in [0, 1), e.g. 0.99
	latency   time.Duration

	mu     sync.Mutex
	series map[string]*sloSeries
}

// newSLOTracker builds a tracker; zero arguments select the defaults.
func newSLOTracker(window time.Duration, objectivePct float64, latency time.Duration) *sloTracker {
	if window < time.Second {
		window = defaultSLOWindow
	}
	if objectivePct <= 0 || objectivePct >= 100 {
		objectivePct = defaultSLOObjective
	}
	if latency <= 0 {
		latency = defaultSLOLatency
	}
	return &sloTracker{
		window:    window,
		objective: objectivePct / 100,
		latency:   latency,
		series:    make(map[string]*sloSeries),
	}
}

// record scores one finished request.
func (t *sloTracker) record(path string, status int, elapsed time.Duration) {
	now := time.Now().Unix()
	t.mu.Lock()
	sr := t.series[path]
	if sr == nil {
		sr = &sloSeries{buckets: make([]sloBucket, int(t.window/time.Second))}
		t.series[path] = sr
		t.registerGauges(path)
	}
	b := &sr.buckets[now%int64(len(sr.buckets))]
	if b.epoch != now {
		*b = sloBucket{epoch: now}
	}
	b.total++
	if status >= http.StatusInternalServerError {
		b.errs++
	}
	if elapsed > t.latency && !availabilityOnly(path) {
		b.slow++
	}
	t.mu.Unlock()
}

// registerGauges exposes the endpoint's burn rates in the obs registry.
// Called under t.mu on first sight of a path; cardinality is bounded by
// the mux's route set (the path label is the route pattern).
func (t *sloTracker) registerGauges(path string) {
	r := obs.Default()
	r.Describe("swserve_slo_error_burn_rate", "availability error-budget burn rate by endpoint (1.0 = consuming the budget at the sustainable rate)")
	r.Describe("swserve_slo_slow_burn_rate", "latency error-budget burn rate by endpoint")
	r.GaugeFunc("swserve_slo_error_burn_rate", func() float64 {
		return t.endpoint(path).ErrorBurnRate
	}, obs.L("path", path))
	r.GaugeFunc("swserve_slo_slow_burn_rate", func() float64 {
		return t.endpoint(path).SlowBurnRate
	}, obs.L("path", path))
}

// sloEndpoint is the JSON-ready SLO state of one endpoint.
type sloEndpoint struct {
	Path          string  `json:"path"`
	Requests      int64   `json:"requests"`
	Errors        int64   `json:"errors"`
	Slow          int64   `json:"slow"`
	ErrorRate     float64 `json:"error_rate"`
	SlowRate      float64 `json:"slow_rate"`
	ErrorBurnRate float64 `json:"error_burn_rate"`
	SlowBurnRate  float64 `json:"slow_burn_rate"`
}

// sloReport is the GET /v1/slo response body.
type sloReport struct {
	WindowSeconds    int           `json:"window_seconds"`
	ObjectivePct     float64       `json:"objective_pct"`
	LatencyThreshold string        `json:"latency_threshold"`
	Endpoints        []sloEndpoint `json:"endpoints"`
}

// endpoint sums one path's live buckets into its SLO state.
func (t *sloTracker) endpoint(path string) sloEndpoint {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.endpointLocked(path)
}

func (t *sloTracker) endpointLocked(path string) sloEndpoint {
	ep := sloEndpoint{Path: path}
	sr := t.series[path]
	if sr == nil {
		return ep
	}
	oldest := time.Now().Unix() - int64(len(sr.buckets)) + 1
	for i := range sr.buckets {
		b := &sr.buckets[i]
		if b.epoch < oldest {
			continue // stale bucket from a previous window revolution
		}
		ep.Requests += b.total
		ep.Errors += b.errs
		ep.Slow += b.slow
	}
	if ep.Requests == 0 {
		return ep
	}
	ep.ErrorRate = float64(ep.Errors) / float64(ep.Requests)
	ep.SlowRate = float64(ep.Slow) / float64(ep.Requests)
	allowed := 1 - t.objective // the error budget as a fraction
	ep.ErrorBurnRate = ep.ErrorRate / allowed
	ep.SlowBurnRate = ep.SlowRate / allowed
	return ep
}

// report renders every tracked endpoint, sorted by path.
func (t *sloTracker) report() sloReport {
	t.mu.Lock()
	paths := make([]string, 0, len(t.series))
	for p := range t.series {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	eps := make([]sloEndpoint, 0, len(paths))
	for _, p := range paths {
		eps = append(eps, t.endpointLocked(p))
	}
	t.mu.Unlock()
	return sloReport{
		WindowSeconds:    int(t.window / time.Second),
		ObjectivePct:     t.objective * 100,
		LatencyThreshold: t.latency.String(),
		Endpoints:        eps,
	}
}

// sloResponse is the GET /v1/slo body: the rolling-window report plus
// the surrogate admission ledger (a degraded surrogate is an SLO
// concern — configured "surrogate"-mode traffic would burn the
// availability budget with 503s).
type sloResponse struct {
	sloReport
	Surrogate []surrogateEntry `json:"surrogate,omitempty"`
	// Fleet is the coordinator snapshot (queue depth, lost workers,
	// duplicate results) — the fleet's own budget signals — present only
	// when the fleet surface is enabled.
	Fleet *fleet.Snapshot `json:"fleet,omitempty"`
}

// handleSLO serves the rolling-window SLO state. Like /metrics it stays
// readable while draining: burn rates are exactly what an operator
// wants to see from a terminating instance.
func (s *server) handleSLO(w http.ResponseWriter, r *http.Request) {
	resp := sloResponse{sloReport: s.slo.report(), Surrogate: s.surrogateSnapshot()}
	if s.fleetEnabled() {
		snap := s.fleet.Snapshot()
		resp.Fleet = &snap
	}
	s.reply(w, resp)
}
