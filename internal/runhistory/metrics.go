package runhistory

import (
	"sync"

	"spinwave/internal/obs"
)

// Process-wide history/retention metrics in the obs default registry,
// registered lazily on first catalog or sweeper use so an importing
// program that never indexes exports nothing.
var (
	metricsOnce sync.Once

	mDuplicates *obs.Counter
	mErrors     *obs.Counter
	mSweeps     *obs.Counter
	mSweepErrs  *obs.Counter
	mSkippedQ   *obs.Counter
	// mIndexedKinds holds the indexed counter of each kind the programs
	// write, resolved once; it is read-only after initMetrics.
	mIndexedKinds map[string]*obs.Counter
)

func initMetrics() {
	metricsOnce.Do(func() {
		r := obs.Default()
		r.Describe("spinwave_history_indexed_total", "catalog records accepted, by record kind")
		mIndexedKinds = make(map[string]*obs.Counter)
		for _, kind := range []string{"eval", "table", "fleet", "sim"} {
			mIndexedKinds[kind] = r.Counter("spinwave_history_indexed_total", obs.L("kind", kind))
		}
		r.Describe("spinwave_history_duplicates_total", "catalog appends dropped as duplicate IDs")
		mDuplicates = r.Counter("spinwave_history_duplicates_total")
		r.Describe("spinwave_history_errors_total", "catalog appends that failed at the disk layer")
		mErrors = r.Counter("spinwave_history_errors_total")
		r.Describe("spinwave_retention_sweeps_total", "retention GC sweeps completed")
		mSweeps = r.Counter("spinwave_retention_sweeps_total")
		r.Describe("spinwave_retention_sweep_errors_total", "retention GC sweeps that hit at least one error")
		mSweepErrs = r.Counter("spinwave_retention_sweep_errors_total")
		r.Describe("spinwave_retention_deleted_total", "files/directories deleted by retention, by class")
		r.Describe("spinwave_retention_bytes_reclaimed_total", "bytes reclaimed by retention, by class")
		r.Describe("spinwave_retention_skipped_quarantined_total", "retention candidates skipped because quarantined data was present")
		mSkippedQ = r.Counter("spinwave_retention_skipped_quarantined_total")
	})
}

func mIndexed(kind string) *obs.Counter {
	initMetrics()
	if c := mIndexedKinds[kind]; c != nil {
		return c
	}
	return obs.Default().Counter("spinwave_history_indexed_total", obs.L("kind", kind))
}

func mDeleted(class Class) *obs.Counter {
	initMetrics()
	return obs.Default().Counter("spinwave_retention_deleted_total", obs.L("class", string(class)))
}

func mReclaimed(class Class) *obs.Counter {
	initMetrics()
	return obs.Default().Counter("spinwave_retention_bytes_reclaimed_total", obs.L("class", string(class)))
}
