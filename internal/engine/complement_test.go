package engine

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"spinwave/internal/core"
	"spinwave/internal/detect"
	"spinwave/internal/journal"
)

// reducedMAJ3Trim is backendspec's committed I3 trim of the reduced
// FeCoB MAJ3 (engine cannot import the resolver).
const reducedMAJ3Trim = -1.4343993474621755

func micromagFor(t *testing.T, kind core.GateKind, opts ...core.MicromagOption) *core.Micromagnetic {
	t.Helper()
	if testing.Short() {
		t.Skip("micromagnetic integration test")
	}
	m, err := core.NewMicromagnetic(kind, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func caseKey(t *testing.T, b core.Backend, inputs []bool) string {
	t.Helper()
	fp, ok := b.(core.Fingerprinter).Fingerprint()
	if !ok {
		t.Fatal("backend not fingerprintable")
	}
	return fp + "/" + string(appendBits(nil, inputs))
}

// TestEvalBatchPairsComplements runs the reduced XOR and MAJ3 tables
// through EvalBatch: 2ⁿ⁻¹ solver runs answer all 2ⁿ cases, the results
// equal per-case EvalTiered on a cache-less engine (2ⁿ runs) exactly,
// both keys of every pair land in memory and on disk, a later eval of a
// derived case is a cache hit, and each derived case journals its
// complement provenance under its own run ID.
func TestEvalBatchPairsComplements(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind core.GateKind
		opts []core.MicromagOption
	}{
		{"xor", core.XOR, nil},
		{"maj3", core.MAJ3, []core.MicromagOption{core.WithI3PhaseTrim(reducedMAJ3Trim)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := micromagFor(t, tc.kind, tc.opts...)
			ctx := context.Background()
			cases := core.EnumerateInputs(tc.kind.NumInputs())
			half := int64(len(cases) / 2)

			ds, err := OpenDiskStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			e := New(WithWorkers(2), WithDiskStore(ds))
			ring := journal.NewRingSink(4096)
			defer journal.Default().Attach(ring)()
			runIDs := make([]string, len(cases))
			for i, in := range cases {
				runIDs[i] = "pair-" + tc.name + "-" + string(appendBits(nil, in))
			}
			got, err := e.EvalBatch(ctx, m, cases, ModeDirect, runIDs)
			if err != nil {
				t.Fatal(err)
			}
			if s := e.Stats(); s.Evals != half || s.Complements != half {
				t.Fatalf("table of %d cases: %d solver runs and %d complements, want %d of each",
					len(cases), s.Evals, s.Complements, half)
			}

			direct := New(WithWorkers(2), WithCacheSize(0))
			want := make([]EvalResult, len(cases))
			for i, in := range cases {
				if want[i], err = direct.EvalTiered(ctx, m, in, ModeDirect); err != nil {
					t.Fatal(err)
				}
			}
			if n := direct.Stats().Evals; n != int64(len(cases)) {
				t.Fatalf("cache-less per-case evals ran %d solves, want %d", n, len(cases))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("paired batch differs from direct runs:\n got %+v\nwant %+v", got, want)
			}

			for i, in := range cases {
				key := caseKey(t, m, in)
				if v, ok := e.cache.get(key); !ok || !reflect.DeepEqual(v, got[i].Readouts) {
					t.Errorf("case %v: memory tier holds %v (ok=%v)", in, v, ok)
				}
				if v, ok := ds.Get(key); !ok || !reflect.DeepEqual(v, got[i].Readouts) {
					t.Errorf("case %v: disk tier holds %v (ok=%v)", in, v, ok)
				}
				if !in[0] {
					continue
				}
				// A derived case: its run ID carries only the complement tier
				// event, naming its partner's key and run.
				not := complement(in)
				evs := ring.EventsFor(runIDs[i])
				if len(evs) == 0 {
					t.Fatalf("case %v journaled nothing", in)
				}
				last := evs[len(evs)-1]
				if last.Name != "engine.tier" || last.Fields["tier"] != "complement" || last.Fields["result"] != "hit" ||
					last.Fields["key"] != key || last.Fields["partner_key"] != caseKey(t, m, not) ||
					last.Fields["partner_run"] != "pair-"+tc.name+"-"+string(appendBits(nil, not)) {
					t.Errorf("case %v ends its journal on %s %v", in, last.Name, last.Fields)
				}
			}

			allOnes := cases[len(cases)-1]
			res, err := e.EvalTiered(ctx, m, allOnes, ModeDirect)
			if err != nil {
				t.Fatal(err)
			}
			if res.Source != SourceCache || e.Stats().Evals != half {
				t.Fatalf("derived case %v re-evaluated: source %s, %d solves", allOnes, res.Source, e.Stats().Evals)
			}
		})
	}
}

// TestEvalBatchLoneComplementMiss: when a batch holds both cases of a
// pair but only one misses the store, that one runs directly — one
// solve, no derivation.
func TestEvalBatchLoneComplementMiss(t *testing.T) {
	m := micromagFor(t, core.XOR)
	e := New(WithWorkers(2))
	stored := map[string]detect.Readout{"O1": {Probe: "O1", Amplitude: 1}, "O2": {Probe: "O2", Amplitude: 1}}
	e.cache.put(caseKey(t, m, []bool{false, false}), stored)
	res, err := e.EvalBatch(context.Background(), m, [][]bool{{false, false}, {true, true}}, ModeDirect, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Evals != 1 || s.Complements != 0 {
		t.Fatalf("%d solves and %d complements, want 1 and 0", s.Evals, s.Complements)
	}
	if res[0].Source != SourceCache || res[1].Source != SourceMicromag {
		t.Fatalf("sources %s, %s; want cache, micromag", res[0].Source, res[1].Source)
	}
}

// TestEvalBatchPairCancelled: cancelling a pair's one run fails both of
// its cases, and neither is stored.
func TestEvalBatchPairCancelled(t *testing.T) {
	m := micromagFor(t, core.XOR)
	e := New(WithWorkers(1))
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	pair := [][]bool{{false, true}, {true, false}}
	if _, err := e.EvalBatch(ctx, m, pair, ModeDirect, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled pair returned %v, want deadline exceeded", err)
	}
	s := e.Stats()
	if s.Cancelled != 1 || s.Evals != 0 || s.Complements != 0 || s.CacheEntries != 0 {
		t.Fatalf("after a cancelled pair: %+v", s)
	}
}

// TestEvalBatchThermalRunsEveryCase: a thermal field breaks the
// complement symmetry, so a thermal backend never pairs.
func TestEvalBatchThermalRunsEveryCase(t *testing.T) {
	m := micromagFor(t, core.XOR, core.WithTemperature(300, 1))
	e := New(WithWorkers(2))
	if _, err := e.EvalBatch(context.Background(), m, [][]bool{{false, false}, {true, true}}, ModeDirect, nil); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Evals != 2 || s.Complements != 0 {
		t.Fatalf("thermal pair: %d solves and %d complements, want 2 and 0", s.Evals, s.Complements)
	}
}

// TestPairMisses pins the grouping rule on input bits alone: a pair
// runs from its member whose first input is 0, whatever the batch
// order; a miss without its complement in the batch runs alone; a
// backend without an exact pairing never groups.
func TestPairMisses(t *testing.T) {
	cases := [][]bool{{true, true}, {false, true}, {false, false}, {true, false}}
	paired := plan{pair: &core.Micromagnetic{}}
	got := paired.pairMisses(cases, []int{0, 1, 2})
	want := []missJob{{run: 2, derived: 0}, {run: 1, derived: -1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("paired jobs %+v, want %+v", got, want)
	}
	got = paired.pairMisses(cases, []int{0, 1, 2, 3})
	want = []missJob{{run: 2, derived: 0}, {run: 1, derived: 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("paired jobs %+v, want %+v", got, want)
	}
	var unpaired plan
	got = unpaired.pairMisses(cases, []int{0, 2})
	want = []missJob{{run: 0, derived: -1}, {run: 2, derived: -1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unpaired jobs %+v, want %+v", got, want)
	}
}

// fakeComplementer is a fakeBackend whose complement pairing is exact:
// RunComplement is one counted run answering both cases.
type fakeComplementer struct{ *fakeBackend }

func (f fakeComplementer) ComplementExact() bool { return true }

func (f fakeComplementer) RunComplement(ctx context.Context, inputs []bool) (c, notC map[string]detect.Readout, err error) {
	if c, err = f.Run(inputs); err != nil {
		return nil, nil, err
	}
	notC = make(map[string]detect.Readout, len(c))
	for k, v := range c {
		v.Phase = -v.Phase
		notC[k] = v
	}
	return c, notC, nil
}

// TestEvalBatchPairCoalesces: concurrent batches of the same pair share
// runs through the pair singleflight, whatever order each batch lists
// the two cases in, and every caller gets both answers.
func TestEvalBatchPairCoalesces(t *testing.T) {
	b := fakeComplementer{newFakeXOR("pairflight", 50*time.Millisecond)}
	e := New(WithWorkers(4), WithCacheSize(0))
	var wg sync.WaitGroup
	results := make([][]EvalResult, 8)
	errs := make([]error, len(results))
	for g := range results {
		cases := [][]bool{{false, true}, {true, false}}
		if g%2 == 1 {
			cases[0], cases[1] = cases[1], cases[0]
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = e.EvalBatch(context.Background(), b, cases, ModeDirect, nil)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("batch %d: %v", g, err)
		}
		run, derived := results[g][0], results[g][1]
		if g%2 == 1 {
			run, derived = derived, run
		}
		if run.Source != "fake" || derived.Source != "fake" || derived.Readouts["O1"].Phase != -run.Readouts["O1"].Phase {
			t.Fatalf("batch %d: run %+v, derived %+v", g, run, derived)
		}
	}
	runs := b.runs.Load()
	if runs >= int64(len(results)) {
		t.Fatalf("no coalescing: %d runs for %d concurrent batches of one pair", runs, len(results))
	}
	if s := e.Stats(); s.Evals != runs || s.Deduped+runs != int64(len(results)) || s.Complements != int64(len(results)) {
		t.Fatalf("%d runs: evals %d, coalesced %d, complements %d", runs, s.Evals, s.Deduped, s.Complements)
	}
}
