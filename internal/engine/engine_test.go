package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spinwave/internal/core"
	"spinwave/internal/detect"
	"spinwave/internal/layout"
	"spinwave/internal/material"
)

// fakeBackend is a deterministic, fingerprintable XOR-shaped backend
// whose evaluation latency and run count are controllable — the unit
// under the cache/singleflight/pool tests.
type fakeBackend struct {
	id    string
	delay time.Duration
	runs  atomic.Int64
	gate  func(inputs []bool) (map[string]detect.Readout, error)
}

func newFakeXOR(id string, delay time.Duration) *fakeBackend {
	return &fakeBackend{id: id, delay: delay}
}

func (f *fakeBackend) Name() string        { return "fake" }
func (f *fakeBackend) Kind() core.GateKind { return core.XOR }

func (f *fakeBackend) Run(inputs []bool) (map[string]detect.Readout, error) {
	f.runs.Add(1)
	time.Sleep(f.delay)
	if f.gate != nil {
		return f.gate(inputs)
	}
	// Phase-encoded XOR: equal bits interfere constructively (logic 0
	// under phase detection), unequal destructively.
	amp, phase := 1.0, 0.0
	if inputs[0] != inputs[1] {
		phase = 3.14159
	}
	r := detect.Readout{Amplitude: amp, Phase: phase}
	return map[string]detect.Readout{"O1": r, "O2": r}, nil
}

func (f *fakeBackend) Fingerprint() (string, bool) { return "fake/" + f.id, true }

func TestEvalCachesByFingerprintAndInputs(t *testing.T) {
	e := New(WithWorkers(4))
	b := newFakeXOR("cache", 0)
	ctx := context.Background()
	in := []bool{true, false}
	first, err := e.Eval(ctx, b, in)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Eval(ctx, b, in)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.runs.Load(); got != 1 {
		t.Fatalf("backend ran %d times, want 1 (cache miss then hit)", got)
	}
	if first["O1"] != second["O1"] {
		t.Fatalf("cache returned different readout: %+v vs %+v", first["O1"], second["O1"])
	}
	// Different inputs are a different key.
	if _, err := e.Eval(ctx, b, []bool{false, false}); err != nil {
		t.Fatal(err)
	}
	if got := b.runs.Load(); got != 2 {
		t.Fatalf("backend ran %d times after new inputs, want 2", got)
	}
	s := e.Stats()
	if s.CacheHits != 1 || s.CacheMisses != 2 {
		t.Fatalf("stats hits=%d misses=%d, want 1/2", s.CacheHits, s.CacheMisses)
	}
	// A cached map is the caller's to mutate.
	first["O1"] = detect.Readout{}
	again, err := e.Eval(ctx, b, in)
	if err != nil {
		t.Fatal(err)
	}
	if again["O1"] == (detect.Readout{}) {
		t.Fatal("caller mutation leaked into the cache")
	}
}

func TestEvalCoalescesIdenticalInFlight(t *testing.T) {
	e := New(WithWorkers(8), WithCacheSize(0)) // no cache: only singleflight dedups
	b := newFakeXOR("flight", 50*time.Millisecond)
	ctx := context.Background()
	const callers = 8
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Eval(ctx, b, []bool{true, true}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := b.runs.Load(); got >= callers {
		t.Fatalf("no coalescing: %d runs for %d identical concurrent calls", got, callers)
	}
	if e.Stats().Deduped == 0 {
		t.Fatal("deduped counter never incremented")
	}
}

func TestEvalUncacheableBackendAlwaysRuns(t *testing.T) {
	e := New(WithWorkers(2))
	b := newFakeXOR("raw", 0)
	// Behavioral backends built with a region mutator (or any backend
	// without Fingerprint) must bypass the cache; simulate by wrapping.
	raw := struct{ core.Backend }{b}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := e.Eval(ctx, raw, []bool{true, false}); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.runs.Load(); got != 3 {
		t.Fatalf("uncacheable backend ran %d times, want 3", got)
	}
}

func TestLRUEviction(t *testing.T) {
	e := New(WithWorkers(1), WithCacheSize(2))
	b := newFakeXOR("lru", 0)
	ctx := context.Background()
	cases := [][]bool{{false, false}, {false, true}, {true, false}}
	for _, in := range cases {
		if _, err := e.Eval(ctx, b, in); err != nil {
			t.Fatal(err)
		}
	}
	// {false,false} was evicted by the third insert; re-evaluating it
	// must miss and run the backend again.
	if _, err := e.Eval(ctx, b, cases[0]); err != nil {
		t.Fatal(err)
	}
	if got := b.runs.Load(); got != 4 {
		t.Fatalf("backend ran %d times, want 4 (third insert evicts first)", got)
	}
	if entries := e.Stats().CacheEntries; entries != 2 {
		t.Fatalf("cache holds %d entries, want capacity 2", entries)
	}
}

// TestEvalContextCancellation: a request whose context is already done
// fails before it queues for a slot, and a queued request aborts as soon
// as its context is cancelled, counted as a cancelled evaluation.
func TestEvalContextCancellation(t *testing.T) {
	e := New(WithWorkers(1))
	slow := newFakeXOR("slow", 200*time.Millisecond)
	ctx := context.Background()
	// Saturate the single worker slot.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.Eval(ctx, slow, []bool{false, false}) //nolint:errcheck
	}()
	defer wg.Wait()
	waitFor(t, "the slot to fill", func() bool { return e.Stats().InFlight == 1 })

	dead, cancelDead := context.WithCancel(ctx)
	cancelDead()
	if _, err := e.Eval(dead, newFakeXOR("dead", 0), []bool{true, true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("eval under a cancelled ctx returned %v, want context.Canceled", err)
	}
	if s := e.Stats(); s.SaturationWaits != 0 || s.Cancelled != 0 {
		t.Fatalf("an eval under a cancelled ctx queued for the slot: %d saturation waits, %d cancelled", s.SaturationWaits, s.Cancelled)
	}

	cctx, cancel := context.WithCancel(ctx)
	errc := make(chan error, 1)
	go func() {
		_, err := e.Eval(cctx, newFakeXOR("waiting", 0), []bool{true, true})
		errc <- err
	}()
	waitFor(t, "the eval to queue", func() bool { return e.Stats().SaturationWaits == 1 })
	start := time.Now()
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued eval under cancelled ctx returned %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("cancelled eval took %v to return", d)
	}
	if e.Stats().Cancelled == 0 {
		t.Fatal("cancelled counter never incremented")
	}
}

func TestTablesMatchSerialCore(t *testing.T) {
	e := New(WithWorkers(8))
	ctx := context.Background()
	spec, mat := layout.PaperSpec(), material.FeCoB()
	for _, kind := range []core.GateKind{core.MAJ3, core.MAJ3Single, core.MAJ5} {
		b, err := core.NewBehavioral(kind, spec, mat)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.MajorityTruthTable(b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.MajorityTable(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		assertTablesEqual(t, fmt.Sprintf("majority %v", kind), got, want)
	}
	xb, err := core.NewBehavioral(core.XOR, spec, mat)
	if err != nil {
		t.Fatal(err)
	}
	for _, inverted := range []bool{false, true} {
		want, err := core.XORTruthTable(xb, inverted)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.XORTable(ctx, xb, inverted)
		if err != nil {
			t.Fatal(err)
		}
		assertTablesEqual(t, fmt.Sprintf("xor inverted=%v", inverted), got, want)
	}
	mb, err := core.NewBehavioral(core.MAJ3, spec, mat)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []core.DerivedGate{core.AND, core.OR, core.NAND, core.NOR} {
		want, err := core.DerivedTruthTable(mb, d)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.DerivedTable(ctx, mb, d)
		if err != nil {
			t.Fatal(err)
		}
		assertTablesEqual(t, d.String(), got, want)
	}
}

func assertTablesEqual(t *testing.T, name string, got, want *core.TruthTable) {
	t.Helper()
	if got.Gate != want.Gate || got.Detection != want.Detection || len(got.Cases) != len(want.Cases) {
		t.Fatalf("%s: table shape differs: got %s/%s/%d cases, want %s/%s/%d",
			name, got.Gate, got.Detection, len(got.Cases), want.Gate, want.Detection, len(want.Cases))
	}
	for i := range got.Cases {
		g, w := got.Cases[i], want.Cases[i]
		if g.Expected != w.Expected || g.Correct != w.Correct || len(g.Outputs) != len(w.Outputs) {
			t.Fatalf("%s case %d: got %+v, want %+v", name, i, g, w)
		}
		for j := range g.Outputs {
			if g.Outputs[j] != w.Outputs[j] {
				t.Fatalf("%s case %d output %d: got %+v, want %+v",
					name, i, j, g.Outputs[j], w.Outputs[j])
			}
		}
	}
}

func TestMicromagCancellationMidIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("micromagnetic run")
	}
	m, err := core.NewMicromagnetic(core.XOR)
	if err != nil {
		t.Fatal(err)
	}
	e := New(WithWorkers(1))
	// The case steps the half film for about 0.1 s; the deadline lands
	// about a third of the way in.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = e.Eval(ctx, m, []bool{true, false})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-integration eval returned %v, want deadline exceeded", err)
	}
	// The abort must happen within one step-check of the deadline.
	if elapsed > 3*time.Second {
		t.Fatalf("micromagnetic eval took %v to honor a 30ms deadline", elapsed)
	}
	if e.Stats().Cancelled == 0 {
		t.Fatal("cancelled counter never incremented")
	}
}
