package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"spinwave"
	"spinwave/internal/journal"
)

// Health endpoints (DESIGN.md §12).
//
// GET /v1/healthz is the shallow liveness probe: always cheap, never
// touches the engine. Its response keeps the original {"status","workers"}
// shape and adds build info (Go version, VCS revision), uptime and the
// drain state — additive fields only, so existing probes keep parsing.
//
// GET /v1/healthz?deep=1 is the readiness probe: it additionally runs a
// cached behavioral canary evaluation (an XOR truth table through the
// real engine path — cache, singleflight, worker pool — verifying the
// service still computes correct gates end to end), pings the eval pool
// for queue saturation, and reports the journal sink count. A failing
// canary or a wedged pool answers 503 so load balancers stop routing.

// canaryTTL bounds how often the deep check actually re-evaluates; in
// between, the cached canary outcome is served. The behavioral canary
// is microseconds of compute, but a probe storm should still not
// multiply it.
const canaryTTL = 30 * time.Second

// canaryTimeout caps one canary evaluation.
const canaryTimeout = 10 * time.Second

// canaryState is the cached outcome of the last behavioral canary.
type canaryState struct {
	mu      sync.Mutex
	checked time.Time
	ok      bool
	err     string
	elapsed time.Duration
}

// buildVersion extracts the Go toolchain version and VCS revision from
// the binary's embedded build info.
func buildVersion() (goVersion, revision string) {
	goVersion, revision = "unknown", "unknown"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return
	}
	goVersion = bi.GoVersion
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			revision = s.Value
			if len(revision) > 12 {
				revision = revision[:12]
			}
		}
	}
	return
}

// handleHealthz answers the liveness (shallow) or readiness (?deep=1)
// probe.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	goVersion, revision := buildVersion()
	resp := map[string]any{
		"status":         "ok",
		"workers":        s.eng.Workers(),
		"go_version":     goVersion,
		"vcs_revision":   revision,
		"uptime_seconds": time.Since(s.started).Seconds(),
		"draining":       s.draining(),
	}
	if r.URL.Query().Get("deep") == "" {
		s.reply(w, resp)
		return
	}

	healthy := true

	// Engine pool: acquire-and-release one eval slot. A wedged or
	// saturated pool surfaces as a timeout here instead of a silent
	// route-to-black-hole.
	pingCtx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	wait, perr := s.eng.Ping(pingCtx)
	cancel()
	pool := map[string]any{"wait_ms": float64(wait.Nanoseconds()) / 1e6}
	if perr != nil {
		pool["error"] = perr.Error()
		healthy = false
	}
	resp["pool"] = pool

	// Behavioral canary: the full engine path must still produce a
	// correct XOR truth table.
	ok, cerr, elapsed := s.canaryCheck(r.Context())
	canary := map[string]any{"ok": ok, "elapsed_ms": float64(elapsed.Nanoseconds()) / 1e6}
	if cerr != "" {
		canary["error"] = cerr
	}
	resp["canary"] = canary
	if !ok {
		healthy = false
	}

	// Journal plumbing: the server attaches a ring and a hub at startup,
	// so fewer than two sinks means the flight-recorder endpoints are
	// blind.
	resp["journal_sinks"] = journal.Default().Sinks()

	// Fleet coordinator state: queue counts, worker liveness, and the
	// queue-directory durability probe. An unwritable queue means no
	// outcome can be recorded, so the instance is not ready.
	if s.fleetEnabled() {
		section, ok := s.fleetHealth()
		resp["fleet"] = section
		if !ok {
			healthy = false
		}
	}

	// Artifact store durability: an unwritable store means workers
	// cannot land checkpoints, so transient segments would restart
	// instead of resuming.
	if s.artifactsEnabled() {
		section, ok := s.artifactHealth()
		resp["artifacts"] = section
		if !ok {
			healthy = false
		}
	}

	// Run-history catalog and retention engine: an unwritable catalog
	// means completed work silently stops being indexed, so the
	// instance is not ready. The section also reports the retention
	// engine's last sweep (DESIGN.md §17).
	if s.historyEnabled() {
		section, ok := s.historyHealth()
		resp["history"] = section
		if !ok {
			healthy = false
		}
	}

	// Surrogate admission state: a rejected, failed or stale startup
	// surrogate means "surrogate"-mode traffic the operator configured
	// would 503, so the instance is not ready.
	if entries := s.surrogateSnapshot(); len(entries) > 0 {
		ok := s.surrogateHealthy()
		resp["surrogate"] = map[string]any{"ok": ok, "models": entries}
		if !ok {
			healthy = false
		}
	}

	if !healthy {
		resp["status"] = "unhealthy"
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	s.reply(w, resp)
}

// canaryCheck returns the cached canary outcome, re-evaluating when the
// TTL has lapsed.
func (s *server) canaryCheck(ctx context.Context) (ok bool, errMsg string, elapsed time.Duration) {
	s.canary.mu.Lock()
	defer s.canary.mu.Unlock()
	if time.Since(s.canary.checked) < canaryTTL {
		return s.canary.ok, s.canary.err, s.canary.elapsed
	}
	start := time.Now()
	ok, errMsg = s.runCanary(ctx)
	s.canary.checked = time.Now()
	s.canary.ok = ok
	s.canary.err = errMsg
	s.canary.elapsed = time.Since(start)
	return s.canary.ok, s.canary.err, s.canary.elapsed
}

// runCanary evaluates the behavioral XOR truth table through the engine
// and verifies every case decodes correctly.
func (s *server) runCanary(ctx context.Context) (bool, string) {
	b, err := spinwave.NewBehavioral(spinwave.XOR, spinwave.PaperSpec(), spinwave.FeCoB())
	if err != nil {
		return false, fmt.Sprintf("canary backend: %v", err)
	}
	cctx, cancel := context.WithTimeout(ctx, canaryTimeout)
	defer cancel()
	tt, err := s.eng.XORTable(cctx, b, false)
	if err != nil {
		return false, fmt.Sprintf("canary eval: %v", err)
	}
	if !tt.AllCorrect() {
		return false, "canary XOR truth table decoded incorrectly"
	}
	return true, ""
}
