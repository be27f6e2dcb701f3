package runhistory

import (
	"fmt"
	"runtime"
	"testing"

	"spinwave/internal/journal"
	"spinwave/internal/obsplane"
)

// BenchmarkCatalogAppend measures the per-record indexing cost on the
// serving path (one durable JSONL append + the in-memory index), and
// the live heap the catalog retains per record (heap-B/record).
func BenchmarkCatalogAppend(b *testing.B) {
	cat, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	rec := Record{
		Kind: "eval", Gate: "xor", Backend: "behavioral",
		Inputs: "10", Tier: "micromag", Verdict: "healthy", Cases: 1,
	}
	before := liveHeap()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.ID = fmt.Sprintf("r%08d", i)
		if _, err := cat.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(liveHeap()-before)/float64(b.N), "heap-B/record")
	runtime.KeepAlive(cat)
}

// catalogHeapPerRecord indexes n records into a fresh catalog and
// returns the live heap the catalog retains per record.
func catalogHeapPerRecord(tb testing.TB, n int) float64 {
	cat, err := Open(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	batch := make([]Record, 0, 500)
	before := liveHeap()
	for i := 0; i < n; i++ {
		batch = append(batch, Record{ID: fmt.Sprintf("r%08d", i), Kind: "eval"})
		if len(batch) == cap(batch) || i == n-1 {
			if _, err := cat.Append(batch...); err != nil {
				tb.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	after := liveHeap()
	runtime.KeepAlive(cat)
	if after < before {
		return 0
	}
	return float64(after-before) / float64(n)
}

// liveHeap returns the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkSweepSteadyState measures one GC sweep over a trace store
// with nothing to reclaim — the cost every idle cadence pays.
func BenchmarkSweepSteadyState(b *testing.B) {
	st, err := obsplane.OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		ev := []journal.Event{{Seq: 1, TimeNS: int64(i + 1), Name: "fleet.claim"}}
		if _, err := st.Append(fmt.Sprintf("t%02d", i), "w1", ev); err != nil {
			b.Fatal(err)
		}
	}
	gc := &GC{MaxTraces: 100, Traces: st}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gc.Sweep(); err != nil {
			b.Fatal(err)
		}
	}
}
