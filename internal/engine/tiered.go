package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
	src       Source         // what a recompute on b reports
	fp        string         // canonical fingerprint (when cacheable)
	cacheable bool           // b is fingerprintable: results may be stored and coalesced
	sur       Surrogate      // admitted model for fp (auto and surrogate modes only)
	sym       core.Symmetric // b, when one run answers a case's orbit
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
	p.sym, _ = b.(core.Symmetric)
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
// When the backend has exact symmetries (core.Symmetric), the misses in
// one orbit — c, ¬c, the mirror image σc and ¬σc — are one recompute:
// the run of the member with the smallest input bits answers all of
// them, in one eval slot, and each enters the store as that backend's
// exact result. A truth table's misses therefore cost one run per orbit.
// A miss alone in its orbit runs on its own. Jobs ask for eval slots in
// order, whole-film runs before half-film ones, so on a busy pool the
// short half-film runs follow each other in one slot while a whole-film
// run holds another.
//
// runIDs, when non-nil, holds one journal run ID per case: its tier
// events and, on a miss, its recompute journal under that ID (a derived
// case journals its engine.tier complement or mirror event). The
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
	jobs := p.groupMisses(cases, misses)
	err = e.fanout(ctx, len(jobs), func(ctx context.Context, m int) error {
		job := jobs[m]
		i := job.run
		if runIDs != nil {
			ctx = journal.WithRunID(ctx, runIDs[i])
		}
		if len(job.derived) == 0 {
			res, err := e.recompute(ctx, &p, cases[i])
			if err != nil {
				return fmt.Errorf("case %v: %w", cases[i], err)
			}
			out[i] = res
			return nil
		}
		derived := make([][]bool, len(job.derived))
		derivedRuns := make([]string, len(job.derived))
		for k, d := range job.derived {
			derived[k], derivedRuns[k] = cases[d], runID
			if runIDs != nil {
				derivedRuns[k] = runIDs[d]
			}
		}
		res, more, err := e.recomputeOrbit(ctx, &p, cases[i], derived, derivedRuns)
		if err != nil {
			return fmt.Errorf("case %v and %d of its orbit: %w", cases[i], len(derived), err)
		}
		out[i] = res
		for k, d := range job.derived {
			out[d] = more[k]
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return out, nil
}

// missJob is one recompute of a batch: the case at index run, the
// indices of the other misses its run answers (none for a plain
// recompute), and whether the run steps only half the film.
type missJob struct {
	run     int
	derived []int
	half    bool
}

// groupMisses groups a batch's misses into recomputes: on a backend with
// exact symmetries, the misses of one orbit share one job, run from the
// member with the smallest input bits (so concurrent batches of the same
// cases pick the same run and coalesce); every other miss is a job of its
// own. Whole-film jobs come first, each kind in the order of its first
// case.
func (p *plan) groupMisses(cases [][]bool, misses []int) []missJob {
	jobs := make([]missJob, 0, len(misses))
	byOrbit := make(map[string]int) // smallest orbit member's bits → job
	for _, i := range misses {
		if p.sym == nil {
			jobs = append(jobs, missJob{run: i})
			continue
		}
		bits := string(appendBits(nil, cases[i]))
		rep := bits
		for _, c := range p.sym.Orbit(cases[i])[1:] {
			rep = min(rep, string(appendBits(nil, c)))
		}
		j, ok := byOrbit[rep]
		if !ok {
			byOrbit[rep] = len(jobs)
			jobs = append(jobs, missJob{run: i})
			continue
		}
		if run := jobs[j].run; bits < string(appendBits(nil, cases[run])) {
			jobs[j].run = i
			i = run
		}
		jobs[j].derived = append(jobs[j].derived, i)
	}
	if p.sym != nil {
		for j := range jobs {
			jobs[j].half = p.sym.HalfDomain(cases[jobs[j].run])
		}
		slices.SortStableFunc(jobs, func(a, b missJob) int {
			if a.half == b.half {
				return 0
			}
			if a.half {
				return 1
			}
			return -1
		})
	}
	return jobs
}

// complement returns the input vector with every bit inverted.
func complement(inputs []bool) []bool {
	out := make([]bool, len(inputs))
	for i, v := range inputs {
		out[i] = !v
	}
	return out
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
			e.store(key, out, time.Since(start))
		}
		return out, err
	})
	if shared {
		e.coalesced(ctx, key)
	}
	if err != nil {
		return EvalResult{}, err
	}
	return EvalResult{Readouts: cloneReadouts(v), Source: p.src, Fingerprint: p.fp}, nil
}

// orbitRun is the outcome of one orbit evaluation: the orbit's cases,
// their readouts in the same order, and the run ID that produced them.
type orbitRun struct {
	cases [][]bool
	outs  []map[string]detect.Readout
	run   string
}

// recomputeOrbit is recompute for the misses of one orbit on a backend
// with exact symmetries: one run of inputs, in one eval slot, answers
// inputs and every derived case. Each of them is stored under its own
// key and reported as the backend's recompute source. A derived
// case journals an engine.tier hit under its derivedRuns entry — tier
// complement for ¬inputs, mirror for a mirror image — naming the run and
// the key of its partner. Concurrent recomputes of the same orbit run
// coalesce.
func (e *Engine) recomputeOrbit(ctx context.Context, p *plan, inputs []bool, derived [][]bool, derivedRuns []string) (EvalResult, []EvalResult, error) {
	var key string
	if p.cacheable {
		key = p.key(inputs)
	}
	runID := journal.RunID(ctx)
	if runID == "" {
		runID = journal.NewRunID()
		ctx = journal.WithRunID(ctx, runID)
	}
	eval := func() (orbitRun, error) {
		start := time.Now()
		r := orbitRun{run: runID, cases: p.sym.Orbit(inputs)}
		err := e.inSlot(ctx, p.b, inputs, func(ctx context.Context) (err error) {
			r.outs, err = p.sym.RunOrbit(ctx, inputs)
			return err
		})
		if err == nil && len(r.outs) != len(r.cases) {
			err = fmt.Errorf("orbit of %d cases answered with %d readouts", len(r.cases), len(r.outs))
		}
		if err == nil && p.cacheable {
			cost := time.Since(start)
			for k, c := range r.cases {
				if k == 0 || slices.ContainsFunc(derived, func(d []bool) bool { return slices.Equal(d, c) }) {
					e.store(p.key(c), r.outs[k], cost)
				}
			}
		}
		return r, err
	}
	var (
		v      orbitRun
		err    error
		shared bool
	)
	if p.cacheable {
		v, err, shared = e.orbits.do(ctx, key, eval)
	} else {
		v, err = eval()
	}
	if shared {
		e.coalesced(ctx, key)
	}
	if err != nil {
		return EvalResult{}, nil, err
	}
	result := func(c []bool) (EvalResult, bool) {
		for k, o := range v.cases {
			if slices.Equal(o, c) {
				return EvalResult{Readouts: cloneReadouts(v.outs[k]), Source: p.src, Fingerprint: p.fp}, true
			}
		}
		return EvalResult{}, false
	}
	res, _ := result(inputs)
	more := make([]EvalResult, len(derived))
	j := journal.Default()
	not := complement(inputs)
	for k, d := range derived {
		var ok bool
		if more[k], ok = result(d); !ok {
			return EvalResult{}, nil, fmt.Errorf("case %v is not in the orbit of %v", d, inputs)
		}
		tier := "mirror"
		switch {
		case slices.Equal(d, inputs):
			continue // the run case listed twice
		case slices.Equal(d, not):
			tier = "complement"
			e.complements.Add(1)
			mComplements.Inc()
		default:
			e.mirrors.Add(1)
			mMirrors.Inc()
		}
		if j.Enabled() {
			fields := []journal.Field{
				journal.F("tier", tier), journal.F("result", "hit"),
				journal.F("inputs", string(appendBits(nil, d))),
				journal.F("partner_run", v.run),
			}
			if p.cacheable {
				fields = append(fields, journal.F("key", p.key(d)), journal.F("partner_key", key))
			}
			j.Emit(derivedRuns[k], "engine.tier", fields...)
		}
	}
	return res, more, nil
}

// store memoizes an exact result under key: into the LRU, and onto the
// disk tier when its evaluation cost clears the persist threshold.
func (e *Engine) store(key string, out map[string]detect.Readout, cost time.Duration) {
	if e.cache != nil {
		if n := e.cache.put(key, out); n > 0 {
			e.evicted.Add(n)
			mCacheEvictions.Add(n)
		}
	}
	if e.disk != nil && cost >= e.persistMin {
		start := time.Now()
		if err := e.disk.Put(key, out); err != nil {
			e.diskWriteErrs.Add(1)
			mDiskWriteErrs.Inc()
		} else {
			e.diskWrites.Add(1)
			mDiskWrites.Inc()
		}
		mDiskSeconds.Observe(time.Since(start).Seconds())
	}
}

// coalesced counts and journals a request served by another caller's
// in-flight evaluation of key.
func (e *Engine) coalesced(ctx context.Context, key string) {
	e.deduped.Add(1)
	mCoalesced.Inc()
	if j := journal.Default(); j.Enabled() {
		j.Emit(journal.RunID(ctx), "engine.cache",
			journal.F("result", "coalesced"), journal.F("key", key))
	}
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
