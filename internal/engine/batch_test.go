package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spinwave/internal/core"
	"spinwave/internal/detect"
)

// pickySurrogate is a fakeSurrogate that declines one input case, so an
// auto-mode batch has a case the surrogate tier falls through on.
type pickySurrogate struct {
	fakeSurrogate
	decline string
}

func (p *pickySurrogate) Eval(inputs []bool) (map[string]detect.Readout, error) {
	if string(appendBits(nil, inputs)) == p.decline {
		return nil, fmt.Errorf("declined %s", p.decline)
	}
	return p.fakeSurrogate.Eval(inputs)
}

// TestEvalBatchMatchesEvalTiered is the differential test of the batch
// path: one auto-mode batch holding a memory hit, a disk hit, a
// surrogate answer and a recompute, plus a batch on an unfingerprintable
// backend, must return the same readouts, sources and fingerprints, and
// leave the same counters, as EvalTiered called case by case.
func TestEvalBatchMatchesEvalTiered(t *testing.T) {
	ctx := context.Background()
	cases := [][]bool{{true, true}, {true, false}, {false, true}, {false, false}}
	wantSources := []Source{SourceCache, SourceDisk, SourceSurrogate, Source("fake")}

	type world struct {
		e   *Engine
		b   *fakeBackend
		raw core.Backend
	}
	setup := func() world {
		ds, err := OpenDiskStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		e := New(WithWorkers(2), WithDiskStore(ds))
		b := newFakeXOR("diff", 0)
		if err := e.AdmitSurrogate(&pickySurrogate{fakeSurrogate{fp: "fake/diff"}, "00"}); err != nil {
			t.Fatal(err)
		}
		// Memory tier: computed once. Disk tier: written after New, so
		// construction did not warm it into the LRU.
		if _, err := e.EvalTiered(ctx, b, cases[0], ModeDirect); err != nil {
			t.Fatal(err)
		}
		if err := ds.Put("fake/diff/10", testReadouts()); err != nil {
			t.Fatal(err)
		}
		return world{e: e, b: b, raw: struct{ core.Backend }{newFakeXOR("raw", 0)}}
	}

	serial, batch := setup(), setup()
	var want, got []EvalResult
	for _, in := range cases {
		res, err := serial.e.EvalTiered(ctx, serial.b, in, ModeAuto)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}
	for _, in := range cases[:2] {
		res, err := serial.e.EvalTiered(ctx, serial.raw, in, ModeAuto)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}
	res, err := batch.e.EvalBatch(ctx, batch.b, cases, ModeAuto, nil)
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, res...)
	res, err = batch.e.EvalBatch(ctx, batch.raw, cases[:2], ModeAuto, nil)
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, res...)

	for i, s := range wantSources {
		if want[i].Source != s {
			t.Fatalf("serial case %d source %q, want %q: the fixture does not cover every tier", i, want[i].Source, s)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batch results differ from EvalTiered:\n got %+v\nwant %+v", got, want)
	}
	ws, gs := serial.e.Stats(), batch.e.Stats()
	ws.EvalNanos, gs.EvalNanos = 0, 0 // wall-clock, not a tier counter
	if gs != ws {
		t.Fatalf("batch stats differ from EvalTiered:\n got %+v\nwant %+v", gs, ws)
	}
	if g, w := batch.b.runs.Load(), serial.b.runs.Load(); g != w {
		t.Fatalf("backend ran %d times in the batch, %d case by case", g, w)
	}
}

// blockingXOR returns a fake backend whose every run waits for release
// (or a 10 s safety timeout), counting concurrent and peak runs.
func blockingXOR(id string, release <-chan struct{}) (b *fakeBackend, cur, peak *atomic.Int64) {
	cur, peak = new(atomic.Int64), new(atomic.Int64)
	b = newFakeXOR(id, 0)
	b.gate = func([]bool) (map[string]detect.Readout, error) {
		n := cur.Add(1)
		defer cur.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		select {
		case <-release:
		case <-time.After(10 * time.Second):
		}
		return testReadouts(), nil
	}
	return b, cur, peak
}

// waitFor polls cond until it holds or a 5 s deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestEvalBatchHitsSkipBusyPool: with every eval slot held by blocked
// recomputes, a batch of stored answers must still return at once —
// tier hits take no slot.
func TestEvalBatchHitsSkipBusyPool(t *testing.T) {
	const workers = 2
	e := New(WithWorkers(workers))
	ctx := context.Background()
	stored := newFakeXOR("stored", 0)
	cases := [][]bool{{false, false}, {false, true}, {true, false}, {true, true}}
	if _, err := e.EvalBatch(ctx, stored, cases, ModeDirect, nil); err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	slow, cur, _ := blockingXOR("slow", release)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		in := []bool{i == 0, i == 1}
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.EvalTiered(ctx, slow, in, ModeDirect) //nolint:errcheck
		}()
	}
	defer func() { close(release); wg.Wait() }()
	waitFor(t, "the pool to fill", func() bool { return cur.Load() == workers })

	waits := e.Stats().SaturationWaits
	bctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	start := time.Now()
	res, err := e.EvalBatch(bctx, stored, cases, ModeDirect, nil)
	if err != nil {
		t.Fatalf("batch of stored answers behind a full pool: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("batch of stored answers took %v behind a full pool", d)
	}
	for i, r := range res {
		if r.Source != SourceCache {
			t.Fatalf("case %d source %q, want cache", i, r.Source)
		}
	}
	if w := e.Stats().SaturationWaits; w != waits {
		t.Fatalf("stored answers queued for a slot (%d saturation waits, was %d)", w, waits)
	}
}

// TestEvalBatchMissesRunConcurrently: a batch's misses recompute in
// parallel, up to the worker count and never beyond it.
func TestEvalBatchMissesRunConcurrently(t *testing.T) {
	const workers = 3
	e := New(WithWorkers(workers))
	release := make(chan struct{})
	b, cur, peak := blockingXOR("wide", release)
	// Hold every run until the pool is full (or 5 s pass, which leaves
	// the peak short and fails the test).
	go func() {
		for deadline := time.Now().Add(5 * time.Second); cur.Load() < workers && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		close(release)
	}()
	cases := [][]bool{{false, false}, {false, true}, {true, false}, {true, true}}
	// Two more misses than there are cases of a 2-input gate: the
	// uncacheable wrapper keeps duplicates from coalescing.
	cases = append(cases, cases[:2]...)
	res, err := e.EvalBatch(context.Background(), struct{ core.Backend }{b}, cases, ModeDirect, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(cases) {
		t.Fatalf("%d results for %d cases", len(res), len(cases))
	}
	if p := peak.Load(); p != workers {
		t.Fatalf("peak concurrent recomputes %d, want the worker count %d", p, workers)
	}
	if got := b.runs.Load(); got != int64(len(cases)) {
		t.Fatalf("backend ran %d times, want %d", got, len(cases))
	}
}

// TestEvalBatchCancelled: a cancelled context fails the batch, whether
// its cases are stored answers or recomputes waiting on a busy pool.
func TestEvalBatchCancelled(t *testing.T) {
	e := New(WithWorkers(1))
	ctx := context.Background()
	b := newFakeXOR("cancel", 0)
	cases := [][]bool{{false, false}, {true, true}}
	if _, err := e.EvalBatch(ctx, b, cases, ModeDirect, nil); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := e.EvalBatch(cctx, b, cases, ModeDirect, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("batch of stored answers under a cancelled ctx: err = %v, want context.Canceled", err)
	}

	release := make(chan struct{})
	slow, cur, _ := blockingXOR("hold", release)
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.EvalTiered(ctx, slow, []bool{true, false}, ModeDirect) //nolint:errcheck
	}()
	defer func() { close(release); <-done }()
	waitFor(t, "the slot to fill", func() bool { return cur.Load() == 1 })
	dctx, dcancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer dcancel()
	_, err := e.EvalBatch(dctx, newFakeXOR("queued", 0), [][]bool{{false, true}, {true, false}}, ModeDirect, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued misses past the deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

// TestEvalBatchErrors: errors keep their sentinels through the batch,
// and a bad mode or run-ID count is rejected before any lookup.
func TestEvalBatchErrors(t *testing.T) {
	e := New(WithWorkers(2))
	ctx := context.Background()
	b := newFakeXOR("errs", 0)
	cases := [][]bool{{true, false}, {false, true}}
	if _, err := e.EvalBatch(ctx, b, cases, ModeSurrogateOnly, nil); !errors.Is(err, ErrSurrogateUnavailable) {
		t.Fatalf("surrogate-only batch without a model: err = %v, want ErrSurrogateUnavailable", err)
	}
	if _, err := e.EvalBatch(ctx, b, cases, Mode("warp"), nil); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if _, err := e.EvalBatch(ctx, b, cases, ModeDirect, []string{"r1"}); err == nil {
		t.Fatal("one run ID for two cases accepted")
	}
	boom := errors.New("boom")
	b.gate = func([]bool) (map[string]detect.Readout, error) { return nil, boom }
	if _, err := e.EvalBatch(ctx, b, cases, ModeDirect, nil); !errors.Is(err, boom) {
		t.Fatalf("failing recompute: err = %v, want it wrapped", err)
	}
	// One case of the surrogate-only batch, both of the failing one;
	// rejected batches count nothing.
	if s := e.Stats(); s.Requests != 3 {
		t.Fatalf("Requests = %d, want 3", s.Requests)
	}
}

// BenchmarkEvalBatchStored times the warm path of a store-churn-like
// load: 4-case batches over 12 stored cases (three backends of four
// cases) behind a 4-entry LRU, so every lookup misses memory and is
// answered by the disk tier. Run with -benchmem.
func BenchmarkEvalBatchStored(b *testing.B) {
	ds, err := OpenDiskStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	cases := [][]bool{{false, false}, {false, true}, {true, false}, {true, true}}
	var backends []core.Backend
	for _, id := range []string{"a", "b", "c"} {
		fb := newFakeXOR(id, 0)
		for _, in := range cases {
			if err := ds.Put("fake/"+id+"/"+string(appendBits(nil, in)), testReadouts()); err != nil {
				b.Fatal(err)
			}
		}
		backends = append(backends, fb)
	}
	e := New(WithWorkers(2), WithCacheSize(4), WithDiskStore(ds))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.EvalBatch(ctx, backends[i%len(backends)], cases, ModeDirect, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res[0].Source != SourceDisk && i >= len(backends) {
			b.Fatalf("source %q, want disk", res[0].Source)
		}
	}
}
