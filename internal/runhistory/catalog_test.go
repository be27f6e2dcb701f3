package runhistory

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spinwave/internal/journal"
	"spinwave/internal/obs"
)

func TestCatalogAppendQuery(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{ID: "r1", Kind: "eval", Gate: "xor", Tier: "micromag", Verdict: "healthy", IndexedNS: 100},
		{ID: "r2", Kind: "eval", Gate: "maj3", Tier: "surrogate", IndexedNS: 200},
		{ID: "q1", Kind: "fleet", Gate: "xor", Trace: "t1", Tier: "mixed", IndexedNS: 300},
	}
	if n, err := c.Append(recs...); err != nil || n != 3 {
		t.Fatalf("Append = %d, %v; want 3, nil", n, err)
	}
	all, err := c.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 || all[0].ID != "q1" || all[2].ID != "r1" {
		t.Fatalf("Records not newest-first: %+v", all)
	}

	for _, tc := range []struct {
		f    Filter
		want []string
	}{
		{Filter{Gate: "xor"}, []string{"q1", "r1"}},
		{Filter{Kind: "fleet"}, []string{"q1"}},
		{Filter{Trace: "t1"}, []string{"q1"}},
		{Filter{Tier: "surrogate"}, []string{"r2"}},
		{Filter{Verdict: "healthy"}, []string{"r1"}},
		{Filter{SinceNS: 200}, []string{"q1", "r2"}},
		{Filter{Gate: "xor", Limit: 1}, []string{"q1"}},
		{Filter{Gate: "nand"}, nil},
	} {
		got, err := c.Query(tc.f)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]string, len(got))
		for i, r := range got {
			ids[i] = r.ID
		}
		if strings.Join(ids, ",") != strings.Join(tc.want, ",") {
			t.Errorf("Query(%+v) = %v, want %v", tc.f, ids, tc.want)
		}
	}
}

func TestCatalogDedupAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := c.Append(Record{ID: "r1", Kind: "eval"}); n != 1 {
		t.Fatalf("first append = %d, want 1", n)
	}
	if n, _ := c.Append(Record{ID: "r1", Kind: "eval"}); n != 0 {
		t.Fatalf("duplicate append = %d, want 0", n)
	}
	if c.Duplicates() != 1 {
		t.Fatalf("Duplicates = %d, want 1", c.Duplicates())
	}
	// A reopened catalog rebuilds the dedup set from disk.
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := c2.Append(Record{ID: "r1", Kind: "eval"}); n != 0 {
		t.Fatal("reopen forgot an indexed ID")
	}
	if c2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c2.Len())
	}
}

func TestCatalogTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Append(Record{ID: "r1", Kind: "eval"}, Record{ID: "r2", Kind: "eval"})
	// Simulate a crash mid-append: a torn, unparseable final line.
	f, err := os.OpenFile(c.Path(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"id":"r3","ki`)
	f.Close()

	c2, err := Open(dir)
	if err != nil {
		t.Fatalf("torn tail failed the open: %v", err)
	}
	recs, err := c2.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records across a torn tail, want 2", len(recs))
	}
	// The torn ID was never committed, so indexing it again must work.
	if n, _ := c2.Append(Record{ID: "r3", Kind: "eval"}); n != 1 {
		t.Fatal("torn record could not be re-indexed")
	}
	// The re-indexed record must land on a line of its own, not glued to
	// the torn one: readable now and after a reopen.
	c3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Catalog{c2, c3} {
		recs, err := c.Records()
		if err != nil || len(recs) != 3 {
			t.Fatalf("after re-index: %d records, %v; want 3 (r3 lost to the torn line)", len(recs), err)
		}
	}
	if n, _ := c3.Append(Record{ID: "r3", Kind: "eval"}); n != 0 {
		t.Fatal("reopened catalog forgot the re-indexed r3")
	}
}

func TestCatalogWritableProbe(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WritableProbe(); err != nil {
		t.Fatalf("probe on writable dir: %v", err)
	}
	// A vanished catalog directory must fail the probe — this is the
	// deep-healthz 503 trigger.
	os.RemoveAll(dir)
	if err := c.WritableProbe(); err == nil {
		t.Fatal("probe passed on a missing directory")
	}
}

func TestCatalogJournalsHistoryIndexed(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ring := journal.NewRingSink(16)
	defer journal.Default().Attach(ring)()
	c.Append(Record{ID: "q1", Kind: "fleet", Trace: "t1", Gate: "xor", Cases: 4,
		Files: []FileRef{{Class: ClassTrace, Path: "t1.jsonl", Size: 512}}})

	var found bool
	for _, e := range ring.Events() {
		if e.Name != "history.indexed" {
			continue
		}
		found = true
		if e.Fields["id"] != "q1" || e.Fields["kind"] != "fleet" {
			t.Fatalf("history.indexed missing id/kind: %+v", e.Fields)
		}
		if e.Fields["trace"] != "t1" {
			t.Fatalf("history.indexed missing trace stamp: %+v", e.Fields)
		}
	}
	if !found {
		t.Fatal("no history.indexed event emitted")
	}
}

func TestInputsLabel(t *testing.T) {
	if got := InputsLabel([]bool{true, false}); got != "10" {
		t.Fatalf("InputsLabel = %q, want 10", got)
	}
	if got := InputsLabel(nil); got != "" {
		t.Fatalf("InputsLabel(nil) = %q, want empty", got)
	}
}

// TestCatalogHashCollision: a hash hit is confirmed against the exact
// ID, so an unseen ID whose hash is already in the set is still indexed
// while a true duplicate is still dropped — in the log and in the batch.
func TestCatalogHashCollision(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := c.Append(Record{ID: "r1", Kind: "eval"}); n != 1 {
		t.Fatal("first append rejected")
	}
	// Inject collisions: r2 and r3 now hash onto a set entry without
	// ever having been indexed.
	c.seen.add(c.hash("r2"))
	c.seen.add(c.hash("r3"))
	if n, err := c.Append(Record{ID: "r2", Kind: "eval"}); err != nil || n != 1 {
		t.Fatalf("colliding unseen ID: Append = %d, %v; want 1, nil", n, err)
	}
	if n, _ := c.Append(Record{ID: "r1", Kind: "eval"}); n != 0 {
		t.Fatal("true duplicate accepted")
	}
	// Within one batch the first r3 is new and the second a duplicate.
	if n, _ := c.Append(Record{ID: "r3", Kind: "eval"}, Record{ID: "r3", Kind: "eval"}); n != 1 {
		t.Fatalf("batch with a colliding ID twice accepted %d, want 1", n)
	}
	if c.Len() != 3 || c.Duplicates() != 2 {
		t.Fatalf("Len = %d, Duplicates = %d; want 3, 2", c.Len(), c.Duplicates())
	}
	recs, err := c.Records()
	if err != nil || len(recs) != 3 {
		t.Fatalf("Records = %d, %v; want 3", len(recs), err)
	}
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 3 {
		t.Fatalf("reopened Len = %d, want 3", c2.Len())
	}
}

// TestCatalogHeapPerRecord pins the dedup set's memory: the catalog
// keeps a few bytes per indexed record in memory, not the ID itself.
func TestCatalogHeapPerRecord(t *testing.T) {
	const n = 50000
	if per := catalogHeapPerRecord(t, n); per > 32 {
		t.Fatalf("catalog holds %.1f B of live heap per record, want <= 32", per)
	}
}

func TestCatalogAppendRollbackOnDiskError(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Replace the catalog path with a directory so the append fails at
	// the disk layer.
	if err := os.Mkdir(filepath.Join(dir, CatalogFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(Record{ID: "r1", Kind: "eval"}); err == nil {
		t.Fatal("append into a directory succeeded")
	}
	// The failed ID must not be poisoned in the dedup set.
	os.RemoveAll(filepath.Join(dir, CatalogFile))
	if n, err := c.Append(Record{ID: "r1", Kind: "eval"}); err != nil || n != 1 {
		t.Fatalf("retry after disk error = %d, %v; want 1, nil", n, err)
	}
}

// TestIndexedCounterPerKind: the kinds the programs write resolve to the
// registry's own series, resolved once, and any other kind still gets
// its series from the registry.
func TestIndexedCounterPerKind(t *testing.T) {
	for _, kind := range []string{"eval", "table", "fleet", "sim", "custom"} {
		want := obs.Default().Counter("spinwave_history_indexed_total", obs.L("kind", kind))
		if got := mIndexed(kind); got != want {
			t.Fatalf("mIndexed(%q) is not the registry's series", kind)
		}
	}
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	before := mIndexed("eval").Value()
	if _, err := c.Append(Record{ID: "k1", Kind: "eval"}, Record{ID: "k2", Kind: "eval"}); err != nil {
		t.Fatal(err)
	}
	if got := mIndexed("eval").Value() - before; got != 2 {
		t.Fatalf("indexed{kind=eval} rose by %d, want 2", got)
	}
}
