package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"spinwave/internal/core"
	"spinwave/internal/detect"
	"spinwave/internal/journal"
)

// ErrSurrogateUnavailable reports that a surrogate-mode evaluation found
// no admitted surrogate model for the requested backend fingerprint.
// Match with errors.Is.
var ErrSurrogateUnavailable = errors.New("engine: no admitted surrogate for backend")

// Mode selects which tiers of the result store an evaluation may be
// served from. See EvalTiered.
type Mode string

const (
	// ModeDirect serves from memory → disk → exact recompute on the
	// given backend; the surrogate tier is skipped. This is the engine's
	// classic (and Eval's) behavior plus the persistent tier.
	ModeDirect Mode = "direct"
	// ModeAuto serves from memory → disk → admitted surrogate → exact
	// recompute: the cheapest tier that can answer wins, and exact
	// results (memory/disk) still beat the approximate surrogate.
	ModeAuto Mode = "auto"
	// ModeSurrogateOnly serves exclusively from an admitted surrogate
	// model and fails with ErrSurrogateUnavailable when none matches —
	// no solver fallback, so latency is bounded by superposition alone.
	ModeSurrogateOnly Mode = "surrogate"
)

// Source identifies the tier that produced an evaluation result.
type Source string

const (
	// SourceCache is the in-memory LRU tier.
	SourceCache Source = "cache"
	// SourceDisk is the persistent disk-store tier.
	SourceDisk Source = "disk"
	// SourceSurrogate is the linear-superposition surrogate tier.
	SourceSurrogate Source = "surrogate"
	// SourceMicromag is a full micromagnetic recompute.
	SourceMicromag Source = "micromag"
	// SourceBehavioral is a behavioral (phasor-model) recompute.
	SourceBehavioral Source = "behavioral"
)

// computeSource maps a backend to the Source its direct evaluation
// reports.
func computeSource(b core.Backend) Source {
	switch b.Name() {
	case "micromagnetic":
		return SourceMicromag
	case "behavioral":
		return SourceBehavioral
	default:
		return Source(b.Name())
	}
}

// EvalResult is a tiered evaluation outcome: the readouts, the tier that
// produced them, and the canonical fingerprint they are keyed under
// (empty for unfingerprintable backends).
type EvalResult struct {
	Readouts    map[string]detect.Readout
	Source      Source
	Fingerprint string
}

// Surrogate is the engine's view of a superposition surrogate model
// (internal/surrogate.Model implements it; the interface keeps the
// engine free of a surrogate dependency). Verify is the admission gate;
// Eval answers one input case from stored phasors.
type Surrogate interface {
	// Kind returns the gate the model covers.
	Kind() core.GateKind
	// BaseFingerprint is the canonical fingerprint of the backend the
	// model was built from — the identity incoming requests match on.
	BaseFingerprint() string
	// Eval superposes the stored unit responses for one input case.
	Eval(inputs []bool) (map[string]detect.Readout, error)
	// Verify checks the model's full truth table against the golden
	// tolerance bands; non-nil means the model must not serve.
	Verify() error
}

// AdmitSurrogate runs the admission gate on s and, only if every truth
// table row sits inside the golden bands, registers it for serving under
// its base fingerprint. The verdict (either way) is counted, exported as
// a metric, and journaled as a surrogate.admission event. A rejected
// model leaves any previously admitted model for the same fingerprint
// in place.
func (e *Engine) AdmitSurrogate(s Surrogate) error {
	initMetrics()
	verr := s.Verify()
	j := journal.Default()
	if verr != nil {
		e.surrRejected.Add(1)
		mAdmissionsRejected.Inc()
		if j.Enabled() {
			j.Emit("", "surrogate.admission",
				journal.F("verdict", "rejected"),
				journal.F("gate", s.Kind().String()),
				journal.F("fingerprint", s.BaseFingerprint()),
				journal.F("error", verr.Error()))
		}
		return fmt.Errorf("engine: surrogate admission: %w", verr)
	}
	e.surrMu.Lock()
	if e.surrogates == nil {
		e.surrogates = make(map[string]Surrogate)
	}
	e.surrogates[s.BaseFingerprint()] = s
	e.surrMu.Unlock()
	e.surrAdmitted.Add(1)
	mAdmissionsOK.Inc()
	if j.Enabled() {
		j.Emit("", "surrogate.admission",
			journal.F("verdict", "admitted"),
			journal.F("gate", s.Kind().String()),
			journal.F("fingerprint", s.BaseFingerprint()))
	}
	return nil
}

// DropSurrogate removes the admitted model for the fingerprint, if any;
// subsequent surrogate-mode requests fail until a new model is admitted.
func (e *Engine) DropSurrogate(baseFingerprint string) {
	e.surrMu.Lock()
	delete(e.surrogates, baseFingerprint)
	e.surrMu.Unlock()
}

// SurrogateFor returns the admitted model for the fingerprint.
func (e *Engine) SurrogateFor(baseFingerprint string) (Surrogate, bool) {
	e.surrMu.RLock()
	s, ok := e.surrogates[baseFingerprint]
	e.surrMu.RUnlock()
	return s, ok
}

// Surrogates returns the base fingerprints with admitted models.
func (e *Engine) Surrogates() []string {
	e.surrMu.RLock()
	defer e.surrMu.RUnlock()
	out := make([]string, 0, len(e.surrogates))
	for fp := range e.surrogates {
		out = append(out, fp)
	}
	return out
}

// plan is the per-backend half of a tiered lookup, resolved once for
// every case of a batch: the validated mode, the backend's canonical
// fingerprint and the admitted surrogate model that matches it.
type plan struct {
	b         core.Backend
	mode      Mode
	src       Source    // what a recompute on b reports
	fp        string    // canonical fingerprint (when cacheable)
	cacheable bool      // b is fingerprintable: results may be stored and coalesced
	sur       Surrogate // admitted model for fp (auto and surrogate modes only)
}

func (e *Engine) plan(b core.Backend, mode Mode) (plan, error) {
	switch mode {
	case ModeDirect, ModeAuto, ModeSurrogateOnly:
	case "":
		mode = ModeDirect
	default:
		return plan{}, fmt.Errorf("engine: unknown eval mode %q", mode)
	}
	p := plan{b: b, mode: mode, src: computeSource(b)}
	if fper, ok := b.(core.Fingerprinter); ok {
		p.fp, p.cacheable = fper.Fingerprint()
	}
	if p.cacheable && mode != ModeDirect {
		p.sur, _ = e.SurrogateFor(p.fp)
	}
	return p, nil
}

// key derives the cache/singleflight key of one case: the backend's
// canonical fingerprint, "/", and the input bits.
func (p *plan) key(inputs []bool) string {
	buf := make([]byte, 0, len(p.fp)+1+len(inputs))
	buf = append(buf, p.fp...)
	buf = append(buf, '/')
	return string(appendBits(buf, inputs))
}

// EvalTiered evaluates one input case through the tiered result store:
// in-memory LRU, then the persistent disk store, then (ModeAuto) an
// admitted surrogate model, then exact recompute on the backend. The
// result reports which tier answered. ModeSurrogateOnly bypasses the
// store entirely and fails with ErrSurrogateUnavailable when no admitted
// model matches the backend's fingerprint.
//
// Only exact results enter the store: a surrogate answer is never cached
// under the backend's key, so a later ModeDirect request can never be
// served superposed values labeled as cache hits. Recompute results are
// persisted to disk only when the evaluation cost clears the persist
// threshold (microsecond behavioral evals stay IO-free).
//
// EvalTiered runs on the caller's goroutine; only a recompute takes an
// eval slot. EvalBatch is the same two halves for many cases.
func (e *Engine) EvalTiered(ctx context.Context, b core.Backend, inputs []bool, mode Mode) (EvalResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p, err := e.plan(b, mode)
	if err != nil {
		return EvalResult{}, err
	}
	res, hit, err := e.lookup(ctx, &p, inputs, journal.RunID(ctx))
	if err != nil || hit {
		return res, err
	}
	return e.recompute(ctx, &p, inputs)
}

// EvalBatch evaluates every case through the tiered store, in the same
// two halves as EvalTiered. The lookups over the microsecond tiers
// (memory, disk, surrogate) run one after another on the caller's
// goroutine: they need neither a goroutine nor a worker slot. Only the
// cases that miss every tier are fanned out, each recompute in an eval
// slot, so stored answers never queue behind multi-second solver runs
// and the misses still run up to Workers at once.
//
// runIDs, when non-nil, holds one journal run ID per case: its tier
// events and, on a miss, its recompute journal under that ID. The
// results are in case order; the first error fails the batch, and so
// does a cancelled ctx.
func (e *Engine) EvalBatch(ctx context.Context, b core.Backend, cases [][]bool, mode Mode, runIDs []string) ([]EvalResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if runIDs != nil && len(runIDs) != len(cases) {
		return nil, fmt.Errorf("engine: %d run IDs for %d cases", len(runIDs), len(cases))
	}
	p, err := e.plan(b, mode)
	if err != nil {
		return nil, err
	}
	runID := journal.RunID(ctx)
	out := make([]EvalResult, len(cases))
	var misses []int
	for i, in := range cases {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if runIDs != nil {
			runID = runIDs[i]
		}
		res, hit, err := e.lookup(ctx, &p, in, runID)
		if err != nil {
			return nil, fmt.Errorf("engine: case %v: %w", in, err)
		}
		if hit {
			out[i] = res
		} else {
			misses = append(misses, i)
		}
	}
	if len(misses) == 0 {
		return out, nil
	}
	err = e.fanout(ctx, len(misses), func(ctx context.Context, m int) error {
		i := misses[m]
		if runIDs != nil {
			ctx = journal.WithRunID(ctx, runIDs[i])
		}
		res, err := e.recompute(ctx, &p, cases[i])
		if err != nil {
			return fmt.Errorf("case %v: %w", cases[i], err)
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return out, nil
}

// lookup is the first half of a tiered evaluation: it counts the
// request and answers the case from the memory, disk and (per mode)
// surrogate tiers. hit is false when the case needs an exact recompute.
// Tier events journal under runID.
func (e *Engine) lookup(ctx context.Context, p *plan, inputs []bool, runID string) (res EvalResult, hit bool, err error) {
	e.requests.Add(1)
	mRequests.Inc()
	if p.mode == ModeSurrogateOnly {
		if p.sur == nil {
			return EvalResult{}, false, fmt.Errorf("%w: %s (%s)", ErrSurrogateUnavailable, p.b.Kind(), p.b.Name())
		}
		out, err := e.evalSurrogate(ctx, p.sur, inputs, runID)
		if err != nil {
			return EvalResult{}, false, err
		}
		return EvalResult{Readouts: out, Source: SourceSurrogate, Fingerprint: p.sur.BaseFingerprint()}, true, nil
	}
	if !p.cacheable {
		return EvalResult{}, false, nil
	}

	key := p.key(inputs)
	j := journal.Default()
	// Memory tier.
	if e.cache != nil {
		if v, ok := e.cache.get(key); ok {
			e.hits.Add(1)
			mCacheHits.Inc()
			if j.Enabled() {
				j.Emit(runID, "engine.cache",
					journal.F("result", "hit"), journal.F("key", key))
			}
			return EvalResult{Readouts: cloneReadouts(v), Source: SourceCache, Fingerprint: p.fp}, true, nil
		}
		e.misses.Add(1)
		mCacheMisses.Inc()
		if j.Enabled() {
			j.Emit(runID, "engine.cache",
				journal.F("result", "miss"), journal.F("key", key))
		}
	}
	// Disk tier.
	if e.disk != nil {
		start := time.Now()
		out, ok := e.disk.Get(key)
		mDiskSeconds.Observe(time.Since(start).Seconds())
		if ok {
			e.diskHits.Add(1)
			mDiskHits.Inc()
			if e.cache != nil {
				if n := e.cache.put(key, cloneReadouts(out)); n > 0 {
					e.evicted.Add(n)
					mCacheEvictions.Add(n)
				}
			}
			if j.Enabled() {
				j.Emit(runID, "engine.tier",
					journal.F("tier", "disk"), journal.F("result", "hit"), journal.F("key", key))
			}
			return EvalResult{Readouts: out, Source: SourceDisk, Fingerprint: p.fp}, true, nil
		}
		e.diskMisses.Add(1)
		mDiskMisses.Inc()
	}
	// Surrogate tier (auto mode only; exact tiers above already missed).
	if p.sur != nil {
		if out, err := e.evalSurrogate(ctx, p.sur, inputs, runID); err == nil {
			return EvalResult{Readouts: out, Source: SourceSurrogate, Fingerprint: p.fp}, true, nil
		}
		// A failing surrogate (bad input length surfaces earlier; this
		// is defensive) falls through to exact recompute.
	}
	return EvalResult{}, false, nil
}

// recompute is the second half of a tiered evaluation: an exact run of
// the case in an eval slot. Cacheable backends go through singleflight
// and store the result; only exact results are memoized, so concurrent
// ModeDirect and ModeAuto misses may share one evaluation safely.
func (e *Engine) recompute(ctx context.Context, p *plan, inputs []bool) (EvalResult, error) {
	if !p.cacheable {
		out, err := e.runEval(ctx, p.b, inputs)
		if err != nil {
			return EvalResult{}, err
		}
		return EvalResult{Readouts: out, Source: p.src}, nil
	}
	key := p.key(inputs)
	v, err, shared := e.flight.do(ctx, key, func() (map[string]detect.Readout, error) {
		start := time.Now()
		out, err := e.runEval(ctx, p.b, inputs)
		if err == nil {
			if e.cache != nil {
				if n := e.cache.put(key, out); n > 0 {
					e.evicted.Add(n)
					mCacheEvictions.Add(n)
				}
			}
			if e.disk != nil && time.Since(start) >= e.persistMin {
				wStart := time.Now()
				if perr := e.disk.Put(key, out); perr != nil {
					e.diskWriteErrs.Add(1)
					mDiskWriteErrs.Inc()
				} else {
					e.diskWrites.Add(1)
					mDiskWrites.Inc()
				}
				mDiskSeconds.Observe(time.Since(wStart).Seconds())
			}
		}
		return out, err
	})
	if shared {
		e.deduped.Add(1)
		mCoalesced.Inc()
		if j := journal.Default(); j.Enabled() {
			j.Emit(journal.RunID(ctx), "engine.cache",
				journal.F("result", "coalesced"), journal.F("key", key))
		}
	}
	if err != nil {
		return EvalResult{}, err
	}
	return EvalResult{Readouts: cloneReadouts(v), Source: p.src, Fingerprint: p.fp}, nil
}

// evalSurrogate answers one case from an admitted model, with tier
// accounting and the context checked up front (superposition is
// microseconds — not worth a worker slot).
func (e *Engine) evalSurrogate(ctx context.Context, s Surrogate, inputs []bool, runID string) (map[string]detect.Readout, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	out, err := s.Eval(inputs)
	elapsed := time.Since(start)
	if err != nil {
		return nil, err
	}
	e.surrEvals.Add(1)
	mSurrogateEvals.Inc()
	mSurrogateSeconds.Observe(elapsed.Seconds())
	if j := journal.Default(); j.Enabled() {
		j.Emit(runID, "engine.tier",
			journal.F("tier", "surrogate"), journal.F("result", "hit"),
			journal.F("fingerprint", s.BaseFingerprint()))
	}
	return out, nil
}

// warmFromDisk loads persisted entries into the LRU at startup (up to
// the cache capacity), so a restarted process serves its hot set from
// memory without recompute. Returns the number of entries warmed.
func (e *Engine) warmFromDisk() int {
	if e.disk == nil || e.cache == nil {
		return 0
	}
	n := 0
	e.disk.Each(func(key string, out map[string]detect.Readout) bool {
		e.cache.put(key, out)
		n++
		return n < e.cache.cap
	})
	e.warmed.Add(int64(n))
	mWarmed.Add(int64(n))
	return n
}
