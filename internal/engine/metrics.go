package engine

import (
	"sync"

	"spinwave/internal/obs"
)

// Process-wide engine metrics in the obs default registry. Every engine
// in the process shares these series (they are workload totals — the
// per-engine view stays available through Engine.Stats); they register
// lazily on the first New so an importing program that never builds an
// engine exports nothing.
var (
	metricsOnce sync.Once

	mRequests       *obs.Counter
	mCacheHits      *obs.Counter
	mCacheMisses    *obs.Counter
	mCacheEvictions *obs.Counter
	mCoalesced      *obs.Counter
	mEvalsOK        *obs.Counter
	mEvalsErr       *obs.Counter
	mEvalsCancelled *obs.Counter
	mQueueWaits     *obs.Counter
	mInFlight       *obs.Gauge
	mEvalSeconds    *obs.Histogram
	mQueueSeconds   *obs.Histogram

	mDiskHits           *obs.Counter
	mDiskMisses         *obs.Counter
	mDiskWrites         *obs.Counter
	mDiskWriteErrs      *obs.Counter
	mDiskSeconds        *obs.Histogram
	mWarmed             *obs.Counter
	mSurrogateEvals     *obs.Counter
	mSurrogateSeconds   *obs.Histogram
	mAdmissionsOK       *obs.Counter
	mAdmissionsRejected *obs.Counter
	mComplements        *obs.Counter
	mMirrors            *obs.Counter
)

func initMetrics() {
	metricsOnce.Do(func() {
		r := obs.Default()
		r.Describe("spinwave_engine_requests_total", "Eval calls across all engines")
		mRequests = r.Counter("spinwave_engine_requests_total")
		r.Describe("spinwave_engine_cache_hits_total", "evaluations served from the LRU result cache")
		mCacheHits = r.Counter("spinwave_engine_cache_hits_total")
		r.Describe("spinwave_engine_cache_misses_total", "cacheable evaluations not found in the LRU")
		mCacheMisses = r.Counter("spinwave_engine_cache_misses_total")
		r.Describe("spinwave_engine_cache_evictions_total", "readouts evicted from the LRU at capacity")
		mCacheEvictions = r.Counter("spinwave_engine_cache_evictions_total")
		r.Describe("spinwave_engine_coalesced_total", "requests coalesced onto an identical in-flight evaluation")
		mCoalesced = r.Counter("spinwave_engine_coalesced_total")
		r.Describe("spinwave_engine_evals_total", "evaluations by outcome")
		mEvalsOK = r.Counter("spinwave_engine_evals_total", obs.L("result", "ok"))
		mEvalsErr = r.Counter("spinwave_engine_evals_total", obs.L("result", "error"))
		mEvalsCancelled = r.Counter("spinwave_engine_evals_total", obs.L("result", "cancelled"))
		r.Describe("spinwave_engine_queue_waits_total", "times a request queued for a free worker slot")
		mQueueWaits = r.Counter("spinwave_engine_queue_waits_total")
		r.Describe("spinwave_engine_in_flight", "evaluations holding a worker slot right now")
		mInFlight = r.Gauge("spinwave_engine_in_flight")
		r.Describe("spinwave_engine_eval_seconds", "wall-clock latency of one case evaluation")
		mEvalSeconds = r.Histogram("spinwave_engine_eval_seconds", nil)
		r.Describe("spinwave_engine_queue_wait_seconds", "time spent waiting for a worker slot (saturated pool only)")
		mQueueSeconds = r.Histogram("spinwave_engine_queue_wait_seconds", nil)
		r.Describe("spinwave_engine_disk_lookups_total", "persistent-tier lookups by result")
		mDiskHits = r.Counter("spinwave_engine_disk_lookups_total", obs.L("result", "hit"))
		mDiskMisses = r.Counter("spinwave_engine_disk_lookups_total", obs.L("result", "miss"))
		r.Describe("spinwave_engine_disk_writes_total", "results persisted to the disk tier by outcome")
		mDiskWrites = r.Counter("spinwave_engine_disk_writes_total", obs.L("result", "ok"))
		mDiskWriteErrs = r.Counter("spinwave_engine_disk_writes_total", obs.L("result", "error"))
		r.Describe("spinwave_engine_disk_seconds", "disk-tier IO latency (reads and writes)")
		mDiskSeconds = r.Histogram("spinwave_engine_disk_seconds", nil)
		r.Describe("spinwave_engine_warmed_total", "disk entries loaded into the LRU at engine construction")
		mWarmed = r.Counter("spinwave_engine_warmed_total")
		r.Describe("spinwave_engine_surrogate_evals_total", "evaluations answered by the superposition surrogate tier")
		mSurrogateEvals = r.Counter("spinwave_engine_surrogate_evals_total")
		r.Describe("spinwave_engine_surrogate_seconds", "wall-clock latency of one surrogate evaluation")
		mSurrogateSeconds = r.Histogram("spinwave_engine_surrogate_seconds", nil)
		r.Describe("spinwave_engine_surrogate_admissions_total", "surrogate admission-gate verdicts")
		mAdmissionsOK = r.Counter("spinwave_engine_surrogate_admissions_total", obs.L("verdict", "admitted"))
		mAdmissionsRejected = r.Counter("spinwave_engine_surrogate_admissions_total", obs.L("verdict", "rejected"))
		r.Describe("spinwave_engine_complements_total", "cases answered from their complement partner's run")
		mComplements = r.Counter("spinwave_engine_complements_total")
		r.Describe("spinwave_engine_mirrors_total", "cases answered from their mirror partner's run")
		mMirrors = r.Counter("spinwave_engine_mirrors_total")
	})
}
