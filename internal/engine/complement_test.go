package engine

import (
	"context"
	"errors"
	"reflect"
	"slices"
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

// derivedFrom maps each derived case of the reduced XOR and MAJ3 tables
// to its orbit's run case and the tier it journals.
var derivedFrom = map[string][2]string{
	"11": {"00", "complement"}, "10": {"01", "complement"},
	"111": {"000", "complement"}, "110": {"001", "complement"},
	"101": {"010", "complement"}, "100": {"010", "mirror"}, "011": {"010", "mirror"},
}

func bitsOf(s string) []bool {
	out := make([]bool, len(s))
	for i := range s {
		out[i] = s[i] == '1'
	}
	return out
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
// through EvalBatch: one solver run per orbit answers all 2ⁿ cases (2 on
// XOR: 00 on the half film, 01 on the whole; 3 on MAJ3: 010 on the
// whole film, 000 and 001 on the half), the results equal per-case
// EvalTiered on a cache-less engine (2ⁿ runs) exactly, every key lands
// in memory and on disk, a later eval of a derived case is a cache hit,
// and each derived case journals its complement or mirror provenance
// under its own run ID.
func TestEvalBatchPairsComplements(t *testing.T) {
	for _, tc := range []struct {
		name                        string
		kind                        core.GateKind
		opts                        []core.MicromagOption
		solves, complements, mirror int64
	}{
		{"xor", core.XOR, nil, 2, 2, 0},
		{"maj3", core.MAJ3, []core.MicromagOption{core.WithI3PhaseTrim(reducedMAJ3Trim)}, 3, 3, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := micromagFor(t, tc.kind, tc.opts...)
			ctx := context.Background()
			cases := core.EnumerateInputs(tc.kind.NumInputs())

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
			if s := e.Stats(); s.Evals != tc.solves || s.Complements != tc.complements || s.Mirrors != tc.mirror {
				t.Fatalf("table of %d cases: %d solver runs, %d complements and %d mirrors, want %d, %d and %d",
					len(cases), s.Evals, s.Complements, s.Mirrors, tc.solves, tc.complements, tc.mirror)
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
				// A derived case: its run ID carries only the complement or
				// mirror tier event, naming its partner's key and run. The
				// run of each orbit is its member with the smallest bits.
				partner, tier := derivedFrom[string(appendBits(nil, in))][0], derivedFrom[string(appendBits(nil, in))][1]
				if partner == "" {
					continue
				}
				evs := ring.EventsFor(runIDs[i])
				if len(evs) == 0 {
					t.Fatalf("case %v journaled nothing", in)
				}
				last := evs[len(evs)-1]
				if last.Name != "engine.tier" || last.Fields["tier"] != tier || last.Fields["result"] != "hit" ||
					last.Fields["key"] != key || last.Fields["partner_key"] != caseKey(t, m, bitsOf(partner)) ||
					last.Fields["partner_run"] != "pair-"+tc.name+"-"+partner {
					t.Errorf("case %v ends its journal on %s %v", in, last.Name, last.Fields)
				}
			}

			allOnes := cases[len(cases)-1]
			res, err := e.EvalTiered(ctx, m, allOnes, ModeDirect)
			if err != nil {
				t.Fatal(err)
			}
			if res.Source != SourceCache || e.Stats().Evals != tc.solves {
				t.Fatalf("derived case %v re-evaluated: source %s, %d solves", allOnes, res.Source, e.Stats().Evals)
			}
		})
	}
}

// TestEvalBatchLoneComplementMiss: when a batch holds both cases of a
// pair but only 11 misses the store, 11 is answered from a run of its
// orbit's smallest member 00 — one solve, one complement.
func TestEvalBatchLoneComplementMiss(t *testing.T) {
	m := micromagFor(t, core.XOR)
	e := New(WithWorkers(2))
	stored := map[string]detect.Readout{"O1": {Probe: "O1", Amplitude: 1}, "O2": {Probe: "O2", Amplitude: 1}}
	e.cache.put(caseKey(t, m, []bool{false, false}), stored)
	res, err := e.EvalBatch(context.Background(), m, [][]bool{{false, false}, {true, true}}, ModeDirect, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Evals != 1 || s.Complements != 1 {
		t.Fatalf("%d solves and %d complements, want 1 and 1", s.Evals, s.Complements)
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
	// The pair's one run steps the half film for about 0.1 s; the
	// deadline lands about a third of the way in.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
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

// TestPairMisses pins the grouping rule on input bits alone: the misses
// of one orbit run from the orbit's member with the smallest bits,
// whatever the batch order and whether or not the batch asked for it —
// a miss alone in its orbit too; a requested run case is listed first;
// whole-film jobs come before half-film ones; a backend without
// symmetries never groups.
func TestPairMisses(t *testing.T) {
	sym := plan{sym: fakeSymmetric{newFakeXOR("group", 0)}}
	xor := [][]bool{{true, true}, {false, true}, {false, false}, {true, false}}
	got := sym.groupMisses(xor, []int{0, 1, 2})
	want := []missJob{{run: bitsOf("01"), cases: []int{1}}, {run: bitsOf("00"), cases: []int{2, 0}, half: true}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("xor jobs %+v, want %+v", got, want)
	}
	got = sym.groupMisses(xor, []int{0, 1, 2, 3})
	want = []missJob{{run: bitsOf("01"), cases: []int{1, 3}}, {run: bitsOf("00"), cases: []int{2, 0}, half: true}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("xor jobs %+v, want %+v", got, want)
	}
	got = sym.groupMisses(xor, []int{3, 0})
	want = []missJob{{run: bitsOf("01"), cases: []int{3}}, {run: bitsOf("00"), cases: []int{0}, half: true}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("lone xor jobs %+v, want %+v", got, want)
	}
	maj3 := core.EnumerateInputs(3)
	all := make([]int, len(maj3))
	for i := range all {
		all[i] = len(maj3) - 1 - i // the table backwards
	}
	got = sym.groupMisses(maj3, all)
	want = []missJob{ // case c has inputs[b] = bit b of c
		{run: bitsOf("010"), cases: []int{2, 6, 5, 1}},       // 010 answers 010, 011, 101, 100
		{run: bitsOf("000"), cases: []int{0, 7}, half: true}, // 000 answers 000, 111
		{run: bitsOf("001"), cases: []int{4, 3}, half: true}, // 001 answers 001, 110
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("maj3 jobs %+v, want %+v", got, want)
	}
	var plain plan
	got = plain.groupMisses(xor, []int{0, 2})
	want = []missJob{{run: xor[0], cases: []int{0}}, {run: xor[2], cases: []int{2}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("plain jobs %+v, want %+v", got, want)
	}
}

// fakeSymmetric is a fakeBackend with the micromagnetic backend's
// orbits: complement, and the swap of the first two inputs. RunOrbit is
// one counted run; a derived case reads the run's readouts with its
// phase negated (complement) or its O1 and O2 swapped (mirror). Cases
// with equal first inputs are half-film runs.
type fakeSymmetric struct{ *fakeBackend }

func (f fakeSymmetric) swap(in []bool) []bool {
	out := append([]bool(nil), in...)
	out[0], out[1] = in[1], in[0]
	return out
}

func (f fakeSymmetric) Orbit(in []bool) [][]bool {
	orbit := [][]bool{in}
	for _, c := range [][]bool{complement(in), f.swap(in), complement(f.swap(in))} {
		if !slices.ContainsFunc(orbit, func(o []bool) bool { return slices.Equal(o, c) }) {
			orbit = append(orbit, c)
		}
	}
	return orbit
}

func (f fakeSymmetric) HalfDomain(in []bool) bool { return in[0] == in[1] }

func (f fakeSymmetric) RunOrbit(ctx context.Context, in []bool) ([]map[string]detect.Readout, error) {
	out, err := f.Run(in)
	if err != nil {
		return nil, err
	}
	orbit := f.Orbit(in)
	res := make([]map[string]detect.Readout, len(orbit))
	for k, c := range orbit {
		r := make(map[string]detect.Readout, len(out))
		for name, v := range out {
			if !slices.Equal(c, in) && (slices.Equal(c, complement(in)) || slices.Equal(c, complement(f.swap(in)))) {
				v.Phase = -v.Phase
			}
			if (slices.Equal(c, f.swap(in)) || slices.Equal(c, complement(f.swap(in)))) && !slices.Equal(c, complement(in)) {
				name = map[string]string{"O1": "O2", "O2": "O1"}[name]
			}
			r[name] = v
		}
		res[k] = r
	}
	return res, nil
}

// TestEvalBatchPairCoalesces: concurrent batches of the same orbit share
// runs through the orbit singleflight, whatever order each batch lists
// the two cases in, and every caller gets both answers.
func TestEvalBatchPairCoalesces(t *testing.T) {
	b := fakeSymmetric{newFakeXOR("pairflight", 50*time.Millisecond)}
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
		t.Fatalf("no coalescing: %d runs for %d concurrent batches of one orbit", runs, len(results))
	}
	if s := e.Stats(); s.Evals != runs || s.Deduped+runs != int64(len(results)) || s.Complements != int64(len(results)) {
		t.Fatalf("%d runs: evals %d, coalesced %d, complements %d", runs, s.Evals, s.Deduped, s.Complements)
	}
}

// TestRecomputeJoinsOrbitRun: a lone recompute of 01 or of 10 and a
// batch of {01, 10} in flight together share one run of 01's orbit —
// the lone miss runs from its orbit's smallest member 01 even when it is
// 10, the batch joins that run, and 10, derived from it, is stored for
// the next caller.
func TestRecomputeJoinsOrbitRun(t *testing.T) {
	for _, lone := range []string{"01", "10"} {
		t.Run(lone, func(t *testing.T) {
			release := make(chan struct{})
			blocked, _, _ := blockingXOR("join"+lone, release)
			b := fakeSymmetric{blocked}
			e := New(WithWorkers(2))
			ctx := context.Background()
			loneDone := make(chan error, 1)
			go func() {
				_, err := e.EvalTiered(ctx, b, bitsOf(lone), ModeDirect)
				loneDone <- err
			}()
			waitFor(t, "the lone run to start", func() bool { return b.runs.Load() == 1 })
			batch := make(chan error, 1)
			go func() {
				_, err := e.EvalBatch(ctx, b, [][]bool{{false, true}, {true, false}}, ModeDirect, nil)
				batch <- err
			}()
			// Either the batch joins the lone run or it starts a run of its own.
			waitFor(t, "the batch to join or run", func() bool { return e.Stats().Deduped > 0 || b.runs.Load() > 1 })
			close(release)
			if err := <-loneDone; err != nil {
				t.Fatal(err)
			}
			if err := <-batch; err != nil {
				t.Fatal(err)
			}
			// 10 is derived once per caller that asked for it.
			complements := int64(1)
			if lone == "10" {
				complements = 2
			}
			if runs, s := b.runs.Load(), e.Stats(); runs != 1 || s.Evals != 1 || s.Deduped != 1 || s.Complements != complements {
				t.Fatalf("%d runs, %d evals, %d deduped, %d complements; want 1, 1, 1 and %d", runs, s.Evals, s.Deduped, s.Complements, complements)
			}
			res, err := e.EvalTiered(ctx, b, []bool{true, false}, ModeDirect)
			if err != nil {
				t.Fatal(err)
			}
			if res.Source != SourceCache {
				t.Fatalf("derived case 10 after the shared run: source %s, want cache", res.Source)
			}
		})
	}
}

// orderedSymmetric is a fakeSymmetric that records the order its runs
// start in.
type orderedSymmetric struct {
	fakeSymmetric
	mu     *sync.Mutex
	starts *[]string
}

func (f orderedSymmetric) RunOrbit(ctx context.Context, in []bool) ([]map[string]detect.Readout, error) {
	f.mu.Lock()
	*f.starts = append(*f.starts, string(appendBits(nil, in)))
	f.mu.Unlock()
	return f.fakeSymmetric.RunOrbit(ctx, in)
}

// TestEvalBatchStartsWholeFilmFirst: a MAJ3-shaped table on a one-slot
// engine runs its whole-film orbit before the two half-film ones, every
// time. On two slots, with the runs held, the whole-film run holds one
// of the two slots and the last half-film run starts only once a slot
// frees.
func TestEvalBatchStartsWholeFilmFirst(t *testing.T) {
	cases := core.EnumerateInputs(3)
	for _, workers := range []int{1, 2} {
		for rep := 0; rep < 20; rep++ {
			var mu sync.Mutex
			var starts []string
			started := func() []string {
				mu.Lock()
				defer mu.Unlock()
				return slices.Clone(starts)
			}
			hold := make(chan struct{})
			if workers == 1 {
				close(hold)
			}
			fake := newFakeXOR("order", time.Millisecond)
			fake.gate = func([]bool) (map[string]detect.Readout, error) {
				<-hold
				r := detect.Readout{Amplitude: 1}
				return map[string]detect.Readout{"O1": r, "O2": r}, nil
			}
			b := orderedSymmetric{fakeSymmetric{fake}, &mu, &starts}
			e := New(WithWorkers(workers), WithCacheSize(0))
			done := make(chan error, 1)
			go func() {
				_, err := e.EvalBatch(context.Background(), b, cases, ModeDirect, nil)
				done <- err
			}()
			if workers == 2 {
				waitFor(t, "two runs to start", func() bool { return len(started()) == 2 })
				if first := started(); !slices.Contains(first, "010") {
					t.Fatalf("two workers: runs %v hold the slots, want 010 among them", first)
				}
				close(hold)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if len(starts) != 3 || starts[2] != "001" {
				t.Fatalf("%d workers: runs started %v, want 001 third of 3", workers, starts)
			}
			if workers == 1 && (starts[0] != "010" || starts[1] != "000") {
				t.Fatalf("one worker: runs started %v, want 010 000 001", starts)
			}
			if s := e.Stats(); s.Evals != 3 || s.Complements != 3 || s.Mirrors != 2 {
				t.Fatalf("%d workers: %+v", workers, s)
			}
		}
	}
}
