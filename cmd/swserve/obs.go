package main

import (
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"spinwave/internal/obs"
)

// routeMetrics holds one route's HTTP-layer metric handles in the obs
// default registry: its latency histogram and one request counter per
// status code. Each is resolved through the registry once, on the
// route's first request (so a route never served exports no series),
// and reused after.
type routeMetrics struct {
	path    string
	mu      sync.Mutex
	seconds *obs.Histogram
	total   map[int]*obs.Counter
}

// observe accounts one finished request.
func (m *routeMetrics) observe(status int, elapsed time.Duration) {
	reg := obs.Default()
	m.mu.Lock()
	if m.seconds == nil {
		reg.Describe("swserve_http_requests_total", "HTTP requests by endpoint and status code")
		reg.Describe("swserve_http_request_seconds", "HTTP request latency by endpoint")
		m.seconds = reg.Histogram("swserve_http_request_seconds", nil, obs.L("path", m.path))
	}
	seconds, total := m.seconds, m.total[status]
	if total == nil {
		total = reg.Counter("swserve_http_requests_total",
			obs.L("path", m.path), obs.L("status", strconv.Itoa(status)))
		m.total[status] = total
	}
	m.mu.Unlock()
	seconds.Observe(elapsed.Seconds())
	total.Inc()
}

// statusWriter captures the response status for metric labels.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the underlying writer, so
// the NDJSON tails flush through the metrics wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// withMetrics wraps a handler with per-endpoint latency and status
// accounting, and scores the request against the SLO tracker. The
// route pattern (not the raw URL) is the path label, so cardinality
// stays bounded to the mux's route set.
func (s *server) withMetrics(path string, h http.HandlerFunc) http.HandlerFunc {
	m := &routeMetrics{path: path, total: make(map[int]*obs.Counter)}
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		elapsed := time.Since(start)
		m.observe(sw.status, elapsed)
		s.slo.record(path, sw.status, elapsed)
	}
}

// handleMetrics serves the default registry in Prometheus text format.
// Deliberately NOT gated on the drain state: a scrape during shutdown
// must still succeed, or the final counter increments of a terminating
// process (requests it is draining right now) are never observed. Only
// mutating or long-lived endpoints refuse while draining.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.Default().WritePrometheus(w) //nolint:errcheck
}

// draining reports whether the server has started draining.
func (s *server) draining() bool { return s.drainCtx.Err() != nil }

// refuseDraining answers a 503 draining envelope with a Retry-After
// when the server is draining after SIGTERM; reports whether it did.
func (s *server) refuseDraining(w http.ResponseWriter) bool {
	if !s.draining() {
		return false
	}
	w.Header().Set("Retry-After", "5")
	s.failAs(w, http.StatusServiceUnavailable, codeDraining, true, "server is draining")
	return true
}

// registerPprof mounts the net/http/pprof handlers on mux under
// /debug/pprof/ — explicitly, so profiling is opt-in via -pprof rather
// than a side effect of importing the package.
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
