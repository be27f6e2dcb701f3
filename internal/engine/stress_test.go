package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"spinwave/internal/core"
	"spinwave/internal/obs"
)

// TestConcurrentEvalCacheAndMetrics is the race-focused stress test for
// the observability layer: many goroutines evaluating through a tiny
// LRU (constant churn and eviction) while other goroutines continuously
// read the per-engine Stats and the shared obs registry — snapshots and
// Prometheus rendering included. Run under -race this exercises every
// counter write site against every read site; afterwards the counters
// must be monotone and mutually consistent.
func TestConcurrentEvalCacheAndMetrics(t *testing.T) {
	e := New(WithWorkers(8), WithCacheSize(4))

	const (
		evalWorkers = 16
		rounds      = 40
		backends    = 8 // distinct fingerprints force LRU churn at cap 4
	)

	before := obs.Default().Snapshot()

	var readers, writers sync.WaitGroup
	stop := make(chan struct{})
	// Metric readers: hammer Stats, Snapshot, and the text exposition
	// concurrently with the writers.
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var prev Stats
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := e.Stats()
				if s.Requests < prev.Requests || s.CacheHits < prev.CacheHits ||
					s.CacheMisses < prev.CacheMisses || s.Evals < prev.Evals ||
					s.CacheEvictions < prev.CacheEvictions {
					t.Errorf("counters went backwards: %+v -> %+v", prev, s)
					return
				}
				prev = s
				obs.Default().Snapshot()
				var sb stringsBuilder
				if err := obs.Default().WritePrometheus(&sb); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
			}
		}()
	}
	// Eval workers: every worker sweeps every backend and case, so the
	// same keys are requested concurrently (coalescing) and in sequence
	// (hits), while 8 fingerprints × 4 cases churn the 4-entry LRU.
	for w := 0; w < evalWorkers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for r := 0; r < rounds; r++ {
				b := newFakeXOR(fmt.Sprintf("stress-%d", (w+r)%backends), 0)
				in := []bool{r%2 == 0, (r/2)%2 == 0}
				if _, err := e.Eval(context.Background(), b, in); err != nil {
					t.Errorf("eval: %v", err)
					return
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	s := e.Stats()
	if got, want := s.Requests, int64(evalWorkers*rounds); got != want {
		t.Errorf("requests = %d, want %d", got, want)
	}
	// Every request either hit, missed, or was coalesced onto a miss.
	if s.CacheHits+s.CacheMisses != s.Requests {
		t.Errorf("hits %d + misses %d != requests %d", s.CacheHits, s.CacheMisses, s.Requests)
	}
	if s.CacheEvictions == 0 {
		t.Error("no evictions despite 32 keys through a 4-entry cache")
	}
	if s.CacheEntries > 4 {
		t.Errorf("cache holds %d entries, cap 4", s.CacheEntries)
	}
	if s.EvalErrors != 0 || s.Cancelled != 0 {
		t.Errorf("unexpected failures: %+v", s)
	}
	if s.InFlight != 0 {
		t.Errorf("in-flight %d after all work drained", s.InFlight)
	}

	// The shared registry must have advanced consistently with this
	// engine's own counters (other tests may add on top, never subtract).
	after := obs.Default().Snapshot()
	for _, c := range []struct {
		name string
		min  int64
	}{
		{"spinwave_engine_requests_total", s.Requests},
		{"spinwave_engine_cache_hits_total", s.CacheHits},
		{"spinwave_engine_cache_misses_total", s.CacheMisses},
		{"spinwave_engine_cache_evictions_total", s.CacheEvictions},
		{`spinwave_engine_evals_total{result="ok"}`, s.Evals},
	} {
		delta := after.Counters[c.name] - before.Counters[c.name]
		if delta < c.min {
			t.Errorf("%s advanced by %d, want >= %d", c.name, delta, c.min)
		}
	}
	if g := after.Gauges["spinwave_engine_in_flight"]; g < 0 {
		t.Errorf("in-flight gauge %g went negative", g)
	}
}

// TestConcurrentBandedSolversRace steps two real micromagnetic solvers
// concurrently from one engine, each with its own multi-worker stepping
// pool (ISSUE 3 satellite). Under -race this exercises the tiled LLG
// core end to end: two tile.Pools alive at once, banded field/torque
// kernels with halo reads, sparse antenna overlays and the shared obs
// registry — all from the engine's own task pool. The two cases use
// different inputs, so nothing coalesces and both really step.
func TestConcurrentBandedSolversRace(t *testing.T) {
	if testing.Short() {
		t.Skip("micromagnetic integration test")
	}
	e := New(WithWorkers(2), WithCacheSize(0))
	mk := func() core.Backend {
		t.Helper()
		m, err := core.NewMicromagnetic(core.XOR, core.WithWorkers(3))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	b1, b2 := mk(), mk()
	var wg sync.WaitGroup
	results := make([]map[string]float64, 2)
	for i, job := range []struct {
		b  core.Backend
		in []bool
	}{
		{b1, []bool{false, false}},
		{b2, []bool{true, false}},
	} {
		wg.Add(1)
		go func(slot int, b core.Backend, in []bool) {
			defer wg.Done()
			out, err := e.Eval(context.Background(), b, in)
			if err != nil {
				t.Errorf("eval: %v", err)
				return
			}
			amps := make(map[string]float64, len(out))
			for name, r := range out {
				amps[name] = r.Amplitude
			}
			results[slot] = amps
		}(i, job.b, job.in)
	}
	wg.Wait()
	for i, r := range results {
		if r == nil {
			continue // error already reported
		}
		if r["O1"] <= 0 || r["O2"] <= 0 {
			t.Errorf("case %d: non-positive output amplitudes: %v", i, r)
		}
	}
}

// stringsBuilder is a minimal io.Writer that discards its input — the
// stress test cares that rendering races cleanly, not about the text.
type stringsBuilder struct{}

func (stringsBuilder) Write(p []byte) (int, error) { return len(p), nil }
