package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"spinwave/internal/core"
	"spinwave/internal/detect"
)

func testReadouts() map[string]detect.Readout {
	return map[string]detect.Readout{
		"O1": {Probe: "O1", Amplitude: 0.5, Phase: 1.25},
		"O2": {Probe: "O2", Amplitude: 0.5, Phase: 1.25},
	}
}

func TestDiskStoreRoundTrip(t *testing.T) {
	ds, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "fake/rt/10"
	if _, ok := ds.Get(key); ok {
		t.Fatal("Get on empty store reported a hit")
	}
	want := testReadouts()
	if err := ds.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := ds.Get(key)
	if !ok {
		t.Fatal("Get after Put missed")
	}
	for name, w := range want {
		if got[name] != w {
			t.Fatalf("readout %s = %+v, want %+v", name, got[name], w)
		}
	}
	if n := ds.Len(); n != 1 {
		t.Fatalf("Len() = %d, want 1", n)
	}
}

// openStore opens a disk store on dir and closes it with the test.
func openStore(t testing.TB, dir string) *DiskStore {
	t.Helper()
	ds, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.log.Close() })
	return ds
}

// segmentLines returns the store's segment split into its lines.
func segmentLines(t *testing.T, dir string) [][]byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, storeFile))
	if err != nil {
		t.Fatal(err)
	}
	return bytes.SplitAfter(raw, []byte("\n"))
}

// TestDiskStoreCorruptionTolerant: a garbled, torn or truncated segment
// must read as misses for the damaged entries only, never crash or
// surface bogus readouts — the store's contract with unclean shutdowns.
func TestDiskStoreCorruptionTolerant(t *testing.T) {
	t.Run("garbled middle line", func(t *testing.T) {
		dir := t.TempDir()
		ds := openStore(t, dir)
		keys := []string{"fake/corrupt/00", "fake/corrupt/01", "fake/corrupt/10"}
		for _, k := range keys {
			if err := ds.Put(k, testReadouts()); err != nil {
				t.Fatal(err)
			}
		}
		lines := segmentLines(t, dir)
		copy(lines[1][10:], "\x00{{garbage")
		if err := os.WriteFile(filepath.Join(dir, storeFile), bytes.Join(lines, nil), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, ds := range []*DiskStore{ds, openStore(t, dir)} {
			if _, ok := ds.Get(keys[1]); ok {
				t.Fatal("Get returned a hit from a garbled line")
			}
			for _, k := range []string{keys[0], keys[2]} {
				if _, ok := ds.Get(k); !ok {
					t.Fatalf("neighbour %s of a garbled line missed", k)
				}
			}
		}
		seen := 0
		openStore(t, dir).Each(func(string, map[string]detect.Readout) bool { seen++; return true })
		if seen != 2 {
			t.Fatalf("Each yielded %d entries after a reopen, want the 2 intact ones", seen)
		}
	})

	t.Run("lines swapped under an open store", func(t *testing.T) {
		dir := t.TempDir()
		ds := openStore(t, dir)
		a, b := "fake/swap/01", "fake/swap/10"
		for _, k := range []string{a, b} {
			if err := ds.Put(k, testReadouts()); err != nil {
				t.Fatal(err)
			}
		}
		// Same-length lines, so each indexed span now holds the other
		// key's complete entry.
		lines := segmentLines(t, dir)
		if len(lines[0]) != len(lines[1]) {
			t.Fatalf("entry lines differ in length: %d, %d", len(lines[0]), len(lines[1]))
		}
		lines[0], lines[1] = lines[1], lines[0]
		if err := os.WriteFile(filepath.Join(dir, storeFile), bytes.Join(lines, nil), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{a, b} {
			if _, ok := ds.Get(k); ok {
				t.Fatalf("Get(%s) returned another key's entry", k)
			}
		}
	})

	t.Run("torn tail", func(t *testing.T) {
		dir := t.TempDir()
		ds := openStore(t, dir)
		if err := ds.Put("fake/torn/01", testReadouts()); err != nil {
			t.Fatal(err)
		}
		ds.log.Close()
		// A crash mid-append leaves a line without its '\n'.
		f, err := os.OpenFile(filepath.Join(dir, storeFile), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteString(`{"version":2,"key":"fake/torn/10","readou`)
		f.Close()
		ds = openStore(t, dir)
		if _, ok := ds.Get("fake/torn/10"); ok {
			t.Fatal("Get returned a hit from a torn line")
		}
		// The next Put must not be glued to the torn line.
		if err := ds.Put("fake/torn/11", testReadouts()); err != nil {
			t.Fatal(err)
		}
		ds = openStore(t, dir)
		for _, k := range []string{"fake/torn/01", "fake/torn/11"} {
			if _, ok := ds.Get(k); !ok {
				t.Fatalf("%s missed after a torn tail and a reopen", k)
			}
		}
		if n := ds.Len(); n != 2 {
			t.Fatalf("Len() = %d, want 2", n)
		}
	})

	t.Run("truncated under an open store", func(t *testing.T) {
		dir := t.TempDir()
		ds := openStore(t, dir)
		for _, k := range []string{"fake/trunc/00", "fake/trunc/01"} {
			if err := ds.Put(k, testReadouts()); err != nil {
				t.Fatal(err)
			}
		}
		first := len(segmentLines(t, dir)[0])
		if err := os.Truncate(filepath.Join(dir, storeFile), int64(first+5)); err != nil {
			t.Fatal(err)
		}
		if _, ok := ds.Get("fake/trunc/01"); ok {
			t.Fatal("Get returned a hit past the truncation")
		}
		if _, ok := ds.Get("fake/trunc/00"); !ok {
			t.Fatal("the intact first entry missed")
		}
	})
}

// TestDiskStoreReopen: a reopened store answers what the old one did,
// the last Put for a key wins, Each and Len agree with the index, and a
// segment mostly made of superseded lines is compacted at open.
func TestDiskStoreReopen(t *testing.T) {
	dir := t.TempDir()
	ds := openStore(t, dir)
	readout := func(v float64) map[string]detect.Readout {
		return map[string]detect.Readout{"O1": {Probe: "O1", Amplitude: v}}
	}
	const keys, rounds = 5, 4
	for r := 0; r < rounds; r++ {
		for k := 0; k < keys; k++ {
			if err := ds.Put(fmt.Sprintf("fake/reopen/%d", k), readout(float64(10*r+k))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := len(segmentLines(t, dir)) - 1; n != keys*rounds {
		t.Fatalf("segment holds %d lines, want %d", n, keys*rounds)
	}
	ds.log.Close()

	ds = openStore(t, dir)
	if n := len(segmentLines(t, dir)) - 1; n != keys {
		t.Fatalf("segment holds %d lines after the compacting open, want %d", n, keys)
	}
	if ds.Len() != keys {
		t.Fatalf("Len() = %d, want %d", ds.Len(), keys)
	}
	want := map[string]float64{}
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("fake/reopen/%d", k)
		want[key] = float64(10*(rounds-1) + k)
		got, ok := ds.Get(key)
		if !ok || got["O1"].Amplitude != want[key] {
			t.Fatalf("Get(%s) = %v, %t; want the last Put's %v", key, got, ok, want[key])
		}
	}
	// A Put after the compaction lands in the rewritten segment.
	if err := ds.Put("fake/reopen/0", readout(-1)); err != nil {
		t.Fatal(err)
	}
	want["fake/reopen/0"] = -1
	ds = openStore(t, dir)
	got := map[string]float64{}
	ds.Each(func(key string, out map[string]detect.Readout) bool {
		got[key] = out["O1"].Amplitude
		return true
	})
	if !reflect.DeepEqual(got, want) || ds.Len() != len(want) {
		t.Fatalf("Each after reopen = %v (Len %d), want %v", got, ds.Len(), want)
	}
}

// TestDiskStoreConcurrent runs Gets, Puts and compactions at once; every
// hit must carry the readouts its own key stored. Run under -race.
func TestDiskStoreConcurrent(t *testing.T) {
	ds := openStore(t, t.TempDir())
	const keys = 8
	readout := func(k int) map[string]detect.Readout {
		return map[string]detect.Readout{"O1": {Probe: "O1", Amplitude: float64(k)}}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (w + i) % keys
				key := fmt.Sprintf("fake/conc/%d", k)
				if i%3 == 0 {
					if err := ds.Put(key, readout(k)); err != nil {
						t.Error(err)
						return
					}
				} else if got, ok := ds.Get(key); ok && got["O1"].Amplitude != float64(k) {
					t.Errorf("Get(%s) = %v, another key's readouts", key, got)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			ds.mu.Lock()
			err := ds.compact()
			ds.mu.Unlock()
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if ds.Len() != keys {
		t.Fatalf("Len() = %d, want %d", ds.Len(), keys)
	}
	for k := 0; k < keys; k++ {
		if got, ok := ds.Get(fmt.Sprintf("fake/conc/%d", k)); !ok || got["O1"].Amplitude != float64(k) {
			t.Fatalf("key %d after the run: %v, %t", k, got, ok)
		}
	}
}

// FuzzStoreRecover opens a store over arbitrary prior segment bytes.
// Get must never return readouts stored under another key, and a Put
// after the open must read back, before and after a reopen.
func FuzzStoreRecover(f *testing.F) {
	entry := func(key string, amp float64) string {
		line, _ := json.Marshal(diskEntry{Version: diskEntryVersion, Key: key,
			Readouts: map[string]detect.Readout{"O1": {Probe: "O1", Amplitude: amp}}})
		return string(line)
	}
	f.Add([]byte(""))
	f.Add([]byte(entry("fuzz/a", 1) + "\n" + entry("fuzz/b", 2) + "\n"))
	f.Add([]byte(entry("fuzz/a", 1) + "\n" + entry("fuzz/new", 2)[:20]))
	f.Add([]byte(entry("fuzz/new", 7) + "\n" + entry("fuzz/new", 8) + "\r\n  \n{{\n"))
	f.Add([]byte(`{"version":1,"key":"fuzz/new","readouts":{"O1":{"Amplitude":3}}}` + "\n"))
	f.Fuzz(func(t *testing.T, prior []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, storeFile), prior, 0o644); err != nil {
			t.Fatal(err)
		}
		ds, err := OpenDiskStore(dir)
		if err != nil {
			t.Skip("line beyond the scan limit")
		}
		defer ds.log.Close()
		// Any hit must be a line stored for exactly that key.
		for _, key := range []string{"fuzz/a", "fuzz/b", "fuzz/new", ""} {
			if out, ok := ds.Get(key); ok && !storedFor(prior, key, out) {
				t.Fatalf("Get(%q) = %v, not a line stored for that key", key, out)
			}
		}
		want := map[string]detect.Readout{"O1": {Probe: "O1", Amplitude: 42}}
		if err := ds.Put("fuzz/new", want); err != nil {
			t.Fatal(err)
		}
		ds2, err := OpenDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer ds2.log.Close()
		for _, s := range []*DiskStore{ds, ds2} {
			if got, ok := s.Get("fuzz/new"); !ok || !reflect.DeepEqual(got, want) {
				t.Fatalf("prior %q: Put swallowed: Get = %v, %t", prior, got, ok)
			}
		}
	})
}

// storedFor reports whether some line of seg is a valid entry for key
// carrying exactly out.
func storedFor(seg []byte, key string, out map[string]detect.Readout) bool {
	for _, line := range bytes.Split(seg, []byte("\n")) {
		if e, ok := decodeEntry(bytes.TrimSpace(line)); ok && e.Key == key && reflect.DeepEqual(e.Readouts, out) {
			return true
		}
	}
	return false
}

// TestTieredDiskHitAndWarming: results persisted by one engine must be
// served by the next — from disk directly when the memory tier is off,
// and from the warmed LRU when it is on.
func TestTieredDiskHitAndWarming(t *testing.T) {
	ds, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	in := []bool{true, false}
	b := newFakeXOR("disk", 0)

	// PersistThreshold 0: even the instant fake evaluation persists.
	e1 := New(WithWorkers(2), WithDiskStore(ds), WithPersistThreshold(0))
	res, err := e1.EvalTiered(ctx, b, in, ModeDirect)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != Source("fake") {
		t.Fatalf("first eval source %q, want computed (fake)", res.Source)
	}
	if s := e1.Stats(); s.DiskWrites != 1 || s.DiskEntries != 1 {
		t.Fatalf("disk writes %d entries %d, want 1/1", s.DiskWrites, s.DiskEntries)
	}

	// No memory tier: the persistent tier must answer without recompute.
	e2 := New(WithWorkers(2), WithDiskStore(ds), WithCacheSize(0))
	res, err = e2.EvalTiered(ctx, b, in, ModeDirect)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceDisk {
		t.Fatalf("restart eval source %q, want %q", res.Source, SourceDisk)
	}
	if got := b.runs.Load(); got != 1 {
		t.Fatalf("backend ran %d times, want 1 (disk hit must not recompute)", got)
	}

	// Memory tier on: construction warms the LRU from disk, so the first
	// request is already a cache hit.
	e3 := New(WithWorkers(2), WithDiskStore(ds))
	if s := e3.Stats(); s.Warmed != 1 {
		t.Fatalf("warmed %d entries, want 1", s.Warmed)
	}
	res, err = e3.EvalTiered(ctx, b, in, ModeDirect)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceCache {
		t.Fatalf("warmed eval source %q, want %q", res.Source, SourceCache)
	}
}

// TestPersistThresholdSkipsCheapEvals: a microsecond evaluation under
// the default 50ms threshold must not touch the disk tier.
func TestPersistThresholdSkipsCheapEvals(t *testing.T) {
	ds, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := New(WithWorkers(2), WithDiskStore(ds))
	if _, err := e.EvalTiered(context.Background(), newFakeXOR("cheap", 0), []bool{false, true}, ModeDirect); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.DiskWrites != 0 || s.DiskEntries != 0 {
		t.Fatalf("cheap eval persisted (%d writes, %d entries), want none", s.DiskWrites, s.DiskEntries)
	}
}

// fakeSurrogate implements the engine's Surrogate interface with a
// controllable verdict and eval counter.
type fakeSurrogate struct {
	fp        string
	verifyErr error
	evals     int
}

func (f *fakeSurrogate) Kind() core.GateKind     { return core.XOR }
func (f *fakeSurrogate) BaseFingerprint() string { return f.fp }
func (f *fakeSurrogate) Verify() error           { return f.verifyErr }
func (f *fakeSurrogate) Eval([]bool) (map[string]detect.Readout, error) {
	f.evals++
	return map[string]detect.Readout{"O1": {Probe: "O1", Amplitude: 0.25}}, nil
}

// TestAdmissionGate: a model failing Verify must not be registered (and
// must not displace a previously admitted model), with both verdicts
// counted.
func TestAdmissionGate(t *testing.T) {
	e := New(WithWorkers(1))
	good := &fakeSurrogate{fp: "fake/adm"}
	if err := e.AdmitSurrogate(good); err != nil {
		t.Fatal(err)
	}
	bad := &fakeSurrogate{fp: "fake/adm", verifyErr: fmt.Errorf("band violation")}
	if err := e.AdmitSurrogate(bad); err == nil {
		t.Fatal("rejected model was admitted")
	}
	if s, ok := e.SurrogateFor("fake/adm"); !ok || s != Surrogate(good) {
		t.Fatal("rejected model displaced the previously admitted one")
	}
	st := e.Stats()
	if st.SurrogateAdmitted != 1 || st.SurrogateRejected != 1 || st.SurrogateModels != 1 {
		t.Fatalf("admission stats %+v, want 1 admitted / 1 rejected / 1 model", st)
	}
	e.DropSurrogate("fake/adm")
	if _, ok := e.SurrogateFor("fake/adm"); ok {
		t.Fatal("DropSurrogate left the model registered")
	}
}

// TestTieredSurrogateDispatch pins the tier semantics around the
// surrogate: auto mode serves superposition on a store miss, the
// surrogate answer is never memoized under the backend's key, exact
// results still outrank the surrogate, and surrogate-only mode fails
// with the sentinel when no model is admitted.
func TestTieredSurrogateDispatch(t *testing.T) {
	ctx := context.Background()
	in := []bool{true, true}
	b := newFakeXOR("sur", 0)
	e := New(WithWorkers(2))

	// No admitted model: surrogate-only fails with the sentinel; auto
	// falls through to exact compute.
	if _, err := e.EvalTiered(ctx, b, in, ModeSurrogateOnly); !errors.Is(err, ErrSurrogateUnavailable) {
		t.Fatalf("surrogate-only without a model: err = %v, want ErrSurrogateUnavailable", err)
	}
	res, err := e.EvalTiered(ctx, b, []bool{false, true}, ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != Source("fake") || b.runs.Load() != 1 {
		t.Fatalf("auto without a model: source %q after %d runs, want exact compute", res.Source, b.runs.Load())
	}

	sur := &fakeSurrogate{fp: "fake/sur"}
	if err := e.AdmitSurrogate(sur); err != nil {
		t.Fatal(err)
	}

	// Auto on a cold key: the surrogate answers, the backend does not run,
	// and nothing is cached under the backend's key.
	res, err = e.EvalTiered(ctx, b, in, ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceSurrogate || sur.evals != 1 || b.runs.Load() != 1 {
		t.Fatalf("auto with model: source %q, surrogate evals %d, backend runs %d", res.Source, sur.evals, b.runs.Load())
	}
	res, err = e.EvalTiered(ctx, b, in, ModeDirect)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source == SourceCache || b.runs.Load() != 2 {
		t.Fatalf("direct after surrogate answer: source %q, runs %d — superposed values leaked into the exact store",
			res.Source, b.runs.Load())
	}

	// The exact result is now cached, and cache beats surrogate in auto.
	res, err = e.EvalTiered(ctx, b, in, ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceCache || sur.evals != 1 {
		t.Fatalf("auto after exact compute: source %q (surrogate evals %d), want cache hit", res.Source, sur.evals)
	}

	// Surrogate-only always superposes, even with a cached exact result.
	res, err = e.EvalTiered(ctx, b, in, ModeSurrogateOnly)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceSurrogate || sur.evals != 2 {
		t.Fatalf("surrogate-only: source %q, surrogate evals %d", res.Source, sur.evals)
	}
	if res.Fingerprint != "fake/sur" {
		t.Fatalf("surrogate-only fingerprint %q, want the base fingerprint", res.Fingerprint)
	}

	if _, err := e.EvalTiered(ctx, b, in, Mode("warp")); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if s := e.Stats(); s.SurrogateEvals != 2 {
		t.Fatalf("SurrogateEvals = %d, want 2", s.SurrogateEvals)
	}
}

// TestEvalDelegatesToTiered: the classic Eval API must keep its exact
// cache semantics on top of the tiered path.
func TestEvalDelegatesToTiered(t *testing.T) {
	e := New(WithWorkers(2))
	b := newFakeXOR("delegate", 0)
	sur := &fakeSurrogate{fp: "fake/delegate"}
	if err := e.AdmitSurrogate(sur); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := e.Eval(context.Background(), b, []bool{true, false}); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.runs.Load(); got != 1 {
		t.Fatalf("backend ran %d times, want 1 (miss then cache hits)", got)
	}
	if sur.evals != 0 {
		t.Fatalf("Eval consulted the surrogate %d times; the direct path must not", sur.evals)
	}
}
