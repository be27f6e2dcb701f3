package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"sync"

	"spinwave"
	"spinwave/internal/backendspec"
	"spinwave/internal/obs"
)

// Surrogate serving state. At startup (-surrogate xor,maj3) the server
// builds one superposition surrogate per listed gate from the
// micromag solver, runs each through the engine's admission
// gate, and records the verdicts in this ledger. The ledger is what
// GET /v1/healthz?deep=1 and GET /v1/slo expose: any rejected, failed
// or stale (dropped from the engine after admission) entry degrades
// deep health, because "surrogate"-mode traffic the operator expects to
// serve would 503.

// Surrogate admission states recorded in the ledger.
const (
	surrogateAdmitted = "admitted"
	surrogateRejected = "rejected"
	surrogateError    = "error"
	surrogateStale    = "stale"
)

// surrogateEntry is one gate's surrogate admission outcome.
type surrogateEntry struct {
	Gate        string  `json:"gate"`
	Backend     string  `json:"backend"`
	Fingerprint string  `json:"fingerprint,omitempty"`
	State       string  `json:"state"` // admitted, rejected, error, stale
	Error       string  `json:"error,omitempty"`
	BuildSecs   float64 `json:"build_seconds,omitempty"`
}

// surrogateLedger tracks the admission outcome of every startup
// surrogate; safe for concurrent use.
type surrogateLedger struct {
	mu      sync.Mutex
	entries []surrogateEntry
}

// initSurrogates builds and admission-gates one surrogate per gate in
// the comma-separated list, from the named backend. Every verdict is
// recorded in the ledger (and journaled by the engine); the returned
// error summarizes any gate whose surrogate is not serving.
func (s *server) initSurrogates(ctx context.Context, gateList, backendName string) error {
	s.registerSurrogateGauges()
	var failed []string
	for _, name := range strings.Split(gateList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		entry := s.buildSurrogate(ctx, name, backendName)
		s.surrogate.mu.Lock()
		s.surrogate.entries = append(s.surrogate.entries, entry)
		s.surrogate.mu.Unlock()
		if entry.State == surrogateAdmitted {
			log.Printf("surrogate %s (%s): admitted in %.1fs", entry.Gate, entry.Backend, entry.BuildSecs)
		} else {
			log.Printf("surrogate %s (%s): %s: %s", entry.Gate, entry.Backend, entry.State, entry.Error)
			failed = append(failed, name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("surrogate admission failed for %s", strings.Join(failed, ", "))
	}
	return nil
}

// buildSurrogate measures, assembles and admission-gates one gate's
// surrogate, returning the ledger entry either way.
func (s *server) buildSurrogate(ctx context.Context, gateName, backendName string) surrogateEntry {
	entry := surrogateEntry{Gate: gateName, Backend: backendName}
	k, err := backendspec.Resolve(backendspec.Request{Gate: gateName, Backend: backendName})
	if err != nil {
		entry.State = surrogateError
		entry.Error = err.Error()
		return entry
	}
	b, err := s.backends.Get(k)
	if err != nil {
		entry.State = surrogateError
		entry.Error = err.Error()
		return entry
	}
	src, ok := b.(spinwave.SurrogateSource)
	if !ok {
		entry.State = surrogateError
		entry.Error = fmt.Sprintf("backend %s cannot run single-port transients", b.Name())
		return entry
	}
	model, err := spinwave.BuildSurrogate(ctx, src)
	if err != nil {
		entry.State = surrogateError
		entry.Error = err.Error()
		return entry
	}
	entry.Fingerprint = model.BaseFingerprint()
	entry.BuildSecs = model.BuildSeconds()
	if err := s.eng.AdmitSurrogate(model); err != nil {
		entry.State = surrogateRejected
		entry.Error = err.Error()
		return entry
	}
	entry.State = surrogateAdmitted
	return entry
}

// surrogateSnapshot returns the ledger with staleness re-checked
// against the engine: an entry admitted at startup whose model has
// since been dropped reads as stale.
func (s *server) surrogateSnapshot() []surrogateEntry {
	s.surrogate.mu.Lock()
	defer s.surrogate.mu.Unlock()
	out := make([]surrogateEntry, len(s.surrogate.entries))
	for i, e := range s.surrogate.entries {
		if e.State == surrogateAdmitted {
			if _, ok := s.eng.SurrogateFor(e.Fingerprint); !ok {
				e.State = surrogateStale
				e.Error = "admitted model no longer registered with the engine"
			}
		}
		out[i] = e
	}
	return out
}

// surrogateHealthy reports whether every ledger entry is serving; an
// empty ledger (no -surrogate flag) is healthy.
func (s *server) surrogateHealthy() bool {
	for _, e := range s.surrogateSnapshot() {
		if e.State != surrogateAdmitted {
			return false
		}
	}
	return true
}

// registerSurrogateGauges exposes the ledger in /metrics alongside the
// SLO burn rates: counts of serving and degraded surrogate models. The
// series are process-wide; the newest server to register owns them.
func (s *server) registerSurrogateGauges() {
	r := obs.Default()
	r.Describe("swserve_surrogate_models", "startup surrogate models by serving state")
	count := func(healthy bool) float64 {
		n := 0.0
		for _, e := range s.surrogateSnapshot() {
			if (e.State == surrogateAdmitted) == healthy {
				n++
			}
		}
		return n
	}
	r.GaugeFunc("swserve_surrogate_models", func() float64 { return count(true) },
		obs.L("state", "serving"))
	r.GaugeFunc("swserve_surrogate_models", func() float64 { return count(false) },
		obs.L("state", "degraded"))
}
