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
// EvalTiered is EvalBatch of the one case: only a recompute takes an
// eval slot, and it joins any in-flight run that answers the case.
func (e *Engine) EvalTiered(ctx context.Context, b core.Backend, inputs []bool, mode Mode) (EvalResult, error) {
	res, err := e.EvalBatch(ctx, b, [][]bool{inputs}, mode, nil)
	if err != nil {
		return EvalResult{}, err
	}
	return res[0], nil
}

// EvalBatch evaluates every case through the tiered store in two
// halves. The lookups over the microsecond tiers (memory, disk,
// surrogate) run one after another on the caller's goroutine: they need
// neither a goroutine nor a worker slot. Only the cases that miss every
// tier are fanned out, each recompute in an eval slot, so stored answers
// never queue behind multi-second solver runs and the misses still run
// up to Workers at once.
//
// When the backend has exact symmetries (core.Symmetric), the misses in
// one orbit — c, ¬c, the mirror image σc and ¬σc — are one recompute:
// the run of the orbit's member with the smallest input bits, requested
// or not, answers all of them, in one eval slot, and each miss enters
// the store as that backend's exact result (the run case only when it
// is one of them: a later request for it is not prepaid). A truth
// table's misses therefore cost one run per orbit, and every caller
// missing anywhere in an orbit joins the same run. Jobs ask for eval
// slots in order, whole-film runs before half-film ones, so on a busy
// pool the short half-film runs follow each other in one slot while a
// whole-film run holds another.
//
// runIDs, when non-nil, holds one journal run ID per case: its tier
// events journal under that ID. A recompute journals under the run
// case's ID when the batch asked for the run case, else under the ID of
// the first miss it answers; each miss other than the run case journals
// its engine.tier complement or mirror event under its own. The
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
		if runIDs != nil {
			ctx = journal.WithRunID(ctx, runIDs[job.cases[0]])
		}
		answers := make([][]bool, len(job.cases))
		answerRuns := make([]string, len(job.cases))
		for k, c := range job.cases {
			answers[k], answerRuns[k] = cases[c], runID
			if runIDs != nil {
				answerRuns[k] = runIDs[c]
			}
		}
		res, err := e.recompute(ctx, &p, job.run, answers, answerRuns)
		if err != nil {
			return fmt.Errorf("case %v: %w", cases[job.cases[0]], err)
		}
		for k, c := range job.cases {
			out[c] = res[k]
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return out, nil
}

// missJob is one recompute of a batch: the case the solver runs, the
// indices of the misses its run answers (the run case first when the
// batch asked for it), and whether the run steps only half the film.
type missJob struct {
	run   []bool
	cases []int
	half  bool
}

// groupMisses groups a batch's misses into recomputes: on a backend with
// exact symmetries, the misses of one orbit share one job, run from the
// orbit's member with the smallest input bits whether or not the batch
// asked for it, so every caller missing in that orbit picks the same run
// and coalesces; on any other backend each miss is a job of its own.
// Whole-film jobs come first, each kind in the order of its first miss.
func (p *plan) groupMisses(cases [][]bool, misses []int) []missJob {
	jobs := make([]missJob, 0, len(misses))
	byOrbit := make(map[string]int) // smallest orbit member's bits → job
	for _, i := range misses {
		if p.sym == nil {
			jobs = append(jobs, missJob{run: cases[i], cases: []int{i}})
			continue
		}
		own := string(appendBits(nil, cases[i]))
		run, rep := cases[i], own
		for _, c := range p.sym.Orbit(cases[i])[1:] {
			if bits := string(appendBits(nil, c)); bits < rep {
				run, rep = c, bits
			}
		}
		if j, ok := byOrbit[rep]; ok {
			if own == rep {
				jobs[j].cases = slices.Insert(jobs[j].cases, 0, i)
			} else {
				jobs[j].cases = append(jobs[j].cases, i)
			}
			continue
		}
		byOrbit[rep] = len(jobs)
		jobs = append(jobs, missJob{run: run, cases: []int{i}, half: p.sym.HalfDomain(run)})
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

// orbitRun is the outcome of one recompute: the cases its run answers,
// their readouts in the same order, the run ID that produced them, the
// run's cost, and which of the cases the leader stored.
type orbitRun struct {
	cases  [][]bool
	outs   []map[string]detect.Readout
	run    string
	cost   time.Duration
	stored []bool
}

// runOrbit runs inputs once on p's backend, returning the cases that run
// answers, inputs first, and their readouts: inputs' orbit on a backend
// with exact symmetries, inputs alone on any other.
func (p *plan) runOrbit(ctx context.Context, inputs []bool) ([][]bool, []map[string]detect.Readout, error) {
	if p.sym == nil {
		out, err := core.RunContext(ctx, p.b, inputs)
		return [][]bool{inputs}, []map[string]detect.Readout{out}, err
	}
	outs, err := p.sym.RunOrbit(ctx, inputs)
	return p.sym.Orbit(inputs), outs, err
}

// recompute is the second half of a tiered evaluation: one exact run of
// inputs, in one eval slot, answers every case of answers — inputs
// itself or members of its orbit (core.Symmetric). Each is reported as
// the backend's recompute source, in answers' order. On a cacheable
// backend the run goes through singleflight, keyed by inputs' key, and
// stores the answered cases under their own keys — inputs only when it
// is one of them; a caller that joins another's run stores the cases
// that run did not. Only exact results are memoized, so concurrent
// ModeDirect and ModeAuto misses may share one run safely. An answered
// case other than inputs journals an engine.tier hit under its
// answerRuns entry — tier complement for ¬inputs, mirror for a mirror
// image — naming the run and the key of its partner.
func (e *Engine) recompute(ctx context.Context, p *plan, inputs []bool, answers [][]bool, answerRuns []string) ([]EvalResult, error) {
	var key string
	if p.cacheable {
		key = p.key(inputs)
	}
	runID := journal.RunID(ctx)
	if runID == "" {
		runID = journal.NewRunID()
		ctx = journal.WithRunID(ctx, runID)
	}
	// The run ID journals a derived answer after the run when it asked
	// for a case of the orbit other than the run case.
	derived := false
	for k, a := range answers {
		if answerRuns[k] == runID && !slices.Equal(a, inputs) {
			derived = true
		}
	}
	eval := func() (orbitRun, error) {
		start := time.Now()
		r := orbitRun{run: runID}
		err := e.inSlot(ctx, p.b, inputs, derived, func(ctx context.Context) (err error) {
			r.cases, r.outs, err = p.runOrbit(ctx, inputs)
			return err
		})
		if err == nil && len(r.outs) != len(r.cases) {
			err = fmt.Errorf("orbit of %d cases answered with %d readouts", len(r.cases), len(r.outs))
		}
		if err == nil && p.cacheable {
			r.cost = time.Since(start)
			r.stored = make([]bool, len(r.cases))
			for k, c := range r.cases {
				if slices.ContainsFunc(answers, func(a []bool) bool { return slices.Equal(a, c) }) {
					e.store(p.key(c), r.outs[k], r.cost)
					r.stored[k] = true
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
		v, err, shared = e.flight.do(ctx, key, eval, e.countCoalesced)
	} else {
		v, err = eval()
	}
	if shared {
		e.journalCoalesced(ctx, key, err, derived)
	}
	if err != nil {
		return nil, err
	}
	res := make([]EvalResult, len(answers))
	j := journal.Default()
	not := complement(inputs)
	for k, a := range answers {
		at := slices.IndexFunc(v.cases, func(o []bool) bool { return slices.Equal(o, a) })
		if at < 0 {
			return nil, fmt.Errorf("case %v is not in the orbit of %v", a, inputs)
		}
		res[k] = EvalResult{Readouts: cloneReadouts(v.outs[at]), Source: p.src, Fingerprint: p.fp}
		if shared && !v.stored[at] {
			e.store(p.key(a), v.outs[at], v.cost)
		}
		tier := "mirror"
		switch {
		case at == 0:
			continue // the run case
		case slices.Equal(a, not):
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
				journal.F("inputs", string(appendBits(nil, a))),
				journal.F("partner_run", v.run),
			}
			if p.cacheable {
				fields = append(fields, journal.F("key", p.key(a)), journal.F("partner_key", key))
			}
			j.Emit(answerRuns[k], "engine.tier", fields...)
		}
	}
	return res, nil
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

// countCoalesced counts a request that joins another caller's in-flight
// evaluation.
func (e *Engine) countCoalesced() {
	e.deduped.Add(1)
	mCoalesced.Inc()
}

// journalCoalesced journals the end of a joined caller's wait on
// another's evaluation of key, with the wait's status like
// engine.eval.done: ok, cancelled (the joiner's own context ended) or
// error. derived marks a successful wait whose run ID asked for a case
// other than the run case: that case's tier hit follows.
func (e *Engine) journalCoalesced(ctx context.Context, key string, err error, derived bool) {
	j := journal.Default()
	if !j.Enabled() {
		return
	}
	status := "ok"
	switch {
	case err == nil:
	case ctx.Err() != nil:
		status = "cancelled"
	default:
		status = "error"
	}
	fields := []journal.Field{
		journal.F("result", "coalesced"), journal.F("key", key), journal.F("status", status),
	}
	if derived && err == nil {
		fields = append(fields, journal.F("derived", true))
	}
	j.Emit(journal.RunID(ctx), "engine.cache", fields...)
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
