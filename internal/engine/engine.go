// Package engine is the concurrent evaluation engine: it fans
// truth-table cases, sweep points, and parallel-word channels out over a
// bounded worker pool, plumbs context cancellation through to the LLG
// step loop, memoizes readouts in an LRU cache keyed by a canonical
// backend fingerprint, de-duplicates identical in-flight requests
// with singleflight, and answers the complemented and mirrored cases of
// a batch from one run of their orbit where the backend's symmetries are
// exact.
//
// Two separate semaphores bound the work:
//
//   - eval slots gate case recomputes (Eval, EvalTiered, EvalBatch), the
//     unit of real compute — a case answered by the memory, disk or
//     surrogate tier takes no slot;
//   - task slots gate coarse-grained jobs (Map — e.g. one sweep point
//     each), which may themselves submit Evals.
//
// Keeping the pools separate means a coarse task that fans out inner
// Evals can never deadlock waiting for a slot its own kind is holding,
// while each pool still bounds its level at the configured worker count.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spinwave/internal/core"
	"spinwave/internal/detect"
	"spinwave/internal/journal"
)

// Options configures an Engine.
type Options struct {
	// Workers bounds the number of concurrently running evaluations
	// (default runtime.NumCPU()).
	Workers int
	// CacheSize is the maximum number of memoized case readouts
	// (default 4096; 0 disables the cache).
	CacheSize int
	// Disk is the persistent tier of the result store (nil disables it).
	Disk *DiskStore
	// PersistThreshold is the minimum evaluation cost before a result is
	// written to the disk tier (default 50ms): micromag transients always
	// persist, microsecond behavioral evals never pay the IO.
	PersistThreshold time.Duration
}

// Option mutates Options.
type Option func(*Options)

// WithWorkers sets the worker-pool size.
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// WithCacheSize sets the LRU capacity in entries; 0 disables caching.
func WithCacheSize(n int) Option { return func(o *Options) { o.CacheSize = n } }

// WithDiskStore attaches a persistent result store; entries found on
// disk warm the in-memory cache at construction.
func WithDiskStore(d *DiskStore) Option { return func(o *Options) { o.Disk = d } }

// WithPersistThreshold sets the minimum evaluation cost before a result
// is persisted to disk (0 persists everything).
func WithPersistThreshold(d time.Duration) Option {
	return func(o *Options) { o.PersistThreshold = d }
}

// Engine is a concurrent gate-evaluation engine. The zero value is not
// usable; construct with New. An Engine is safe for concurrent use.
type Engine struct {
	workers    int
	evalSlots  chan struct{}
	taskSlots  chan struct{}
	cache      *lruCache // nil when caching is disabled
	flight     group[map[string]detect.Readout]
	orbits     group[orbitRun] // orbit runs, keyed by the run case's key
	disk       *DiskStore      // nil when the persistent tier is disabled
	persistMin time.Duration

	surrMu     sync.RWMutex
	surrogates map[string]Surrogate // admitted models by base fingerprint

	// Counters, exported via Stats for expvar publication.
	requests      atomic.Int64
	hits          atomic.Int64
	misses        atomic.Int64
	deduped       atomic.Int64
	evals         atomic.Int64
	evalErrs      atomic.Int64
	inFlight      atomic.Int64
	satWaits      atomic.Int64
	latNanos      atomic.Int64
	latCount      atomic.Int64
	cancelled     atomic.Int64
	evicted       atomic.Int64
	diskHits      atomic.Int64
	diskMisses    atomic.Int64
	diskWrites    atomic.Int64
	diskWriteErrs atomic.Int64
	warmed        atomic.Int64
	surrEvals     atomic.Int64
	surrAdmitted  atomic.Int64
	surrRejected  atomic.Int64
	complements   atomic.Int64
	mirrors       atomic.Int64
}

// New builds an engine with the given options.
func New(opts ...Option) *Engine {
	o := Options{Workers: runtime.NumCPU(), CacheSize: 4096, PersistThreshold: 50 * time.Millisecond}
	for _, f := range opts {
		f(&o)
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	initMetrics()
	e := &Engine{
		workers:    o.Workers,
		evalSlots:  make(chan struct{}, o.Workers),
		taskSlots:  make(chan struct{}, o.Workers),
		disk:       o.Disk,
		persistMin: o.PersistThreshold,
	}
	if o.CacheSize > 0 {
		e.cache = newLRUCache(o.CacheSize)
	}
	e.warmFromDisk()
	return e
}

// Workers returns the worker-pool size.
func (e *Engine) Workers() int { return e.workers }

// Stats is a snapshot of the engine's counters.
type Stats struct {
	Workers         int   // configured pool size
	Requests        int64 // Eval calls
	CacheHits       int64
	CacheMisses     int64
	CacheEntries    int   // current number of cached readouts
	Deduped         int64 // requests coalesced onto an identical in-flight eval
	Evals           int64 // evaluations actually run to completion
	EvalErrors      int64 // evaluations that returned an error
	Cancelled       int64 // evaluations aborted by context
	InFlight        int64 // evaluations holding a worker slot right now
	SaturationWaits int64 // times a request had to queue for a free worker
	EvalNanos       int64 // cumulative wall-clock spent in evaluations
	EvalCount       int64 // evaluations timed (for mean latency)
	CacheEvictions  int64 // readouts evicted from the LRU at capacity

	DiskHits        int64 // evaluations served from the persistent disk tier
	DiskMisses      int64 // disk-tier lookups that fell through
	DiskEntries     int   // entries currently on disk (0 when the tier is off)
	DiskWrites      int64 // results persisted to disk
	DiskWriteErrors int64 // failed disk persists (served result unaffected)
	Warmed          int64 // disk entries loaded into the LRU at construction

	SurrogateEvals    int64 // evaluations answered by superposition
	SurrogateAdmitted int64 // surrogate models that passed the admission gate
	SurrogateRejected int64 // surrogate models rejected by the admission gate
	SurrogateModels   int   // admitted models currently registered

	Complements int64 // cases answered from their complement partner's run
	Mirrors     int64 // cases answered from their mirror partner's run
}

// MeanLatency returns the average evaluation wall-clock time.
func (s Stats) MeanLatency() time.Duration {
	if s.EvalCount == 0 {
		return 0
	}
	return time.Duration(s.EvalNanos / s.EvalCount)
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Workers:         e.workers,
		Requests:        e.requests.Load(),
		CacheHits:       e.hits.Load(),
		CacheMisses:     e.misses.Load(),
		Deduped:         e.deduped.Load(),
		Evals:           e.evals.Load(),
		EvalErrors:      e.evalErrs.Load(),
		Cancelled:       e.cancelled.Load(),
		InFlight:        e.inFlight.Load(),
		SaturationWaits: e.satWaits.Load(),
		EvalNanos:       e.latNanos.Load(),
		EvalCount:       e.latCount.Load(),
		CacheEvictions:  e.evicted.Load(),

		DiskHits:        e.diskHits.Load(),
		DiskMisses:      e.diskMisses.Load(),
		DiskWrites:      e.diskWrites.Load(),
		DiskWriteErrors: e.diskWriteErrs.Load(),
		Warmed:          e.warmed.Load(),

		SurrogateEvals:    e.surrEvals.Load(),
		SurrogateAdmitted: e.surrAdmitted.Load(),
		SurrogateRejected: e.surrRejected.Load(),

		Complements: e.complements.Load(),
		Mirrors:     e.mirrors.Load(),
	}
	if e.cache != nil {
		s.CacheEntries = e.cache.len()
	}
	if e.disk != nil {
		s.DiskEntries = e.disk.Len()
	}
	e.surrMu.RLock()
	s.SurrogateModels = len(e.surrogates)
	e.surrMu.RUnlock()
	return s
}

// appendBits appends the "10"-style case label of an input vector, as
// used in cache keys and journal events.
func appendBits(dst []byte, inputs []bool) []byte {
	for _, v := range inputs {
		if v {
			dst = append(dst, '1')
		} else {
			dst = append(dst, '0')
		}
	}
	return dst
}

// Eval evaluates one input case of the backend; a recompute runs in an
// eval slot of the worker pool. Identical requests are served from the
// result store (in-memory LRU, then the disk tier when one is attached)
// when the backend is fingerprintable; identical in-flight requests are
// coalesced onto one evaluation. Eval is exact-only — the surrogate tier requires
// EvalTiered with ModeAuto. The returned map is the caller's to keep.
func (e *Engine) Eval(ctx context.Context, b core.Backend, inputs []bool) (map[string]detect.Readout, error) {
	res, err := e.EvalTiered(ctx, b, inputs, ModeDirect)
	if err != nil {
		return nil, err
	}
	return res.Readouts, nil
}

// runEval acquires an eval slot and runs the case with context support.
// Each evaluation is assigned a run ID, propagated down through the
// context so the backend journals and publishes probes under the same
// ID, and stamped as a pprof goroutine label so CPU profiles attribute
// solver time to individual evaluations.
func (e *Engine) runEval(ctx context.Context, b core.Backend, inputs []bool) (map[string]detect.Readout, error) {
	var out map[string]detect.Readout
	err := e.inSlot(ctx, b, inputs, func(ctx context.Context) (err error) {
		out, err = core.RunContext(ctx, b, inputs)
		return err
	})
	return out, err
}

// inSlot runs one evaluation of the case, run, in an eval slot with
// runEval's run ID, profiling label, counters and journal events. An
// orbit is one evaluation: run answers all of its cases. Once the slot
// is taken (or the wait failed), the next job of ctx's batch may ask.
func (e *Engine) inSlot(ctx context.Context, b core.Backend, inputs []bool, run func(context.Context) error) error {
	err := e.acquire(ctx, e.evalSlots)
	passTurn(ctx)
	if err != nil {
		e.cancelled.Add(1)
		mEvalsCancelled.Inc()
		return err
	}
	defer func() { <-e.evalSlots }()
	e.inFlight.Add(1)
	mInFlight.Add(1)
	defer func() {
		e.inFlight.Add(-1)
		mInFlight.Add(-1)
	}()
	evalID := journal.RunID(ctx)
	if evalID == "" {
		evalID = journal.NewRunID()
		ctx = journal.WithRunID(ctx, evalID)
	}
	j := journal.Default()
	if j.Enabled() {
		j.Emit(evalID, "engine.eval.start",
			journal.F("backend", b.Name()),
			journal.F("inputs", string(appendBits(nil, inputs))))
	}
	start := time.Now()
	pprof.Do(ctx, pprof.Labels("engine", "eval", "run", evalID), func(ctx context.Context) {
		err = run(ctx)
	})
	elapsed := time.Since(start)
	e.latNanos.Add(elapsed.Nanoseconds())
	e.latCount.Add(1)
	mEvalSeconds.Observe(elapsed.Seconds())
	status := "ok"
	switch {
	case err == nil:
		e.evals.Add(1)
		mEvalsOK.Inc()
	case ctx.Err() != nil:
		status = "cancelled"
		e.cancelled.Add(1)
		mEvalsCancelled.Inc()
	default:
		status = "error"
		e.evalErrs.Add(1)
		mEvalsErr.Inc()
	}
	if j.Enabled() {
		j.Emit(evalID, "engine.eval.done",
			journal.F("status", status),
			journal.F("elapsed_ms", elapsed.Seconds()*1e3))
	}
	return err
}

// Ping verifies the eval pool is serviceable: it acquires and
// immediately releases one eval slot, returning how long the
// acquisition waited. A saturated or wedged pool shows up as a long
// wait or a context error — the signal swserve's deep health check
// reports without running a real evaluation.
func (e *Engine) Ping(ctx context.Context) (wait time.Duration, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	if err := e.acquire(ctx, e.evalSlots); err != nil {
		return time.Since(start), err
	}
	<-e.evalSlots
	return time.Since(start), nil
}

// acquire takes a slot from the semaphore, counting a saturation wait
// when none is immediately free, and aborting on context cancellation.
func (e *Engine) acquire(ctx context.Context, slots chan struct{}) error {
	select {
	case slots <- struct{}{}:
		return nil
	default:
	}
	e.satWaits.Add(1)
	mQueueWaits.Inc()
	start := time.Now()
	defer func() { mQueueSeconds.Observe(time.Since(start).Seconds()) }()
	select {
	case slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Map runs f(ctx, i) for every i in [0, n) through the coarse task pool:
// at most Workers tasks run at once. The first error cancels the shared
// context of the remaining tasks and is returned after all started tasks
// finish. Use Map for jobs that are themselves units of work (sweep
// points, word channels); truth-table cases go through EvalBatch.
func (e *Engine) Map(ctx context.Context, n int, f func(ctx context.Context, i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return ctx.Err()
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	for i := 0; i < n; i++ {
		if err := e.acquire(ctx, e.taskSlots); err != nil {
			fail(err)
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-e.taskSlots }()
			if ctx.Err() != nil {
				return
			}
			mTasks.Inc()
			start := time.Now()
			var err error
			pprof.Do(ctx, pprof.Labels("engine", "task", "task", strconv.Itoa(i)), func(ctx context.Context) {
				err = f(ctx, i)
			})
			mTaskSeconds.Observe(time.Since(start).Seconds())
			if err != nil {
				fail(fmt.Errorf("engine: task %d: %w", i, err))
			}
		}(i)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		return firstErr
	}
	// Tasks skipped by an already-cancelled parent context never call
	// fail; surface that cancellation instead of silent empty results.
	return parent.Err()
}

// fanout runs f(ctx, i) for every i in [0, n) on its own goroutine —
// concurrency here is bounded by what f itself acquires (eval slots),
// not by the task pool. Calls ask for eval slots in index order: call i
// starts once call i−1 has taken a slot, joined another caller's
// in-flight run, or returned. The first error cancels the rest.
// EvalBatch uses it for the cases no tier answered.
func (e *Engine) fanout(ctx context.Context, n int, f func(ctx context.Context, i int) error) error {
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	prev := make(chan struct{})
	close(prev)
	for i := 0; i < n; i++ {
		t := &turn{next: make(chan struct{})}
		wait := prev
		prev = t.next
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer t.pass()
			select {
			case <-wait:
			case <-ctx.Done():
			}
			if ctx.Err() != nil {
				return
			}
			if err := f(context.WithValue(ctx, turnKey{}, t), i); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				cancel()
			}
		}(i)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		return firstErr
	}
	return parent.Err()
}

// turn orders a fanout's calls onto the eval slots: it is passed once
// its call has taken a slot, joined another caller's in-flight run, or
// returned, and the next call waits for that.
type turn struct {
	once sync.Once
	next chan struct{}
}

func (t *turn) pass() { t.once.Do(func() { close(t.next) }) }

type turnKey struct{}

// passTurn lets the next call of ctx's fanout ask for an eval slot.
func passTurn(ctx context.Context) {
	if t, ok := ctx.Value(turnKey{}).(*turn); ok {
		t.pass()
	}
}

// cloneReadouts copies a readout map so cached values stay immutable.
func cloneReadouts(m map[string]detect.Readout) map[string]detect.Readout {
	out := make(map[string]detect.Readout, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
