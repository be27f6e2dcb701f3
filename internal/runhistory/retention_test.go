package runhistory

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"spinwave/internal/journal"
	"spinwave/internal/obsplane"
)

// mkfile writes size bytes at path with the given age before now.
func mkfile(t *testing.T, path string, size int, age time.Duration) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, make([]byte, size), 0o644); err != nil {
		t.Fatal(err)
	}
	mod := time.Now().Add(-age)
	if err := os.Chtimes(path, mod, mod); err != nil {
		t.Fatal(err)
	}
}

// seedTrace appends one event emitted age ago to a trace and back-dates
// its file to match.
func seedTrace(t *testing.T, st *obsplane.Store, trace string, age time.Duration) {
	t.Helper()
	mod := time.Now().Add(-age)
	_, err := st.Append(trace, "w1", []journal.Event{{Seq: 1, TimeNS: mod.UnixNano(), Name: "fleet.claim"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(filepath.Join(st.Dir(), trace+".jsonl"), mod, mod); err != nil {
		t.Fatal(err)
	}
}

func gcEvents(ring *journal.RingSink) []journal.Event {
	var out []journal.Event
	for _, e := range ring.Events() {
		if e.Name == "retention.gc" {
			out = append(out, e)
		}
	}
	return out
}

func TestSweepTracesCountCap(t *testing.T) {
	st, err := obsplane.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seedTrace(t, st, "t1", 3*time.Hour)
	seedTrace(t, st, "t2", 2*time.Hour)
	seedTrace(t, st, "t3", time.Hour)
	ring := journal.NewRingSink(32)
	defer journal.Default().Attach(ring)()

	g := &GC{Policy: Policy{Traces: ClassPolicy{MaxCount: 1}}, Traces: st}
	res, err := g.Sweep(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	cr := res.Classes[ClassTrace]
	if cr.Examined != 3 || cr.Deleted != 2 || cr.BytesReclaimed <= 0 {
		t.Fatalf("trace sweep = %+v", cr)
	}
	traces, _ := st.Traces()
	if len(traces) != 1 || traces[0] != "t3" {
		t.Fatalf("surviving traces = %v, want [t3]", traces)
	}

	evs := gcEvents(ring)
	if len(evs) != 2 {
		t.Fatalf("retention.gc events = %d, want 2", len(evs))
	}
	for _, e := range evs {
		if e.Fields["class"] != string(ClassTrace) || e.Fields["reason"] != "count" {
			t.Fatalf("bad gc event: %+v", e.Fields)
		}
		if b, ok := e.Fields["bytes"].(int64); !ok || b <= 0 {
			t.Fatalf("gc event bytes = %v", e.Fields["bytes"])
		}
		// A trace field here would make the coordinator mirror re-file
		// the event into the store, resurrecting the deleted trace.
		if _, has := e.Fields["trace"]; has {
			t.Fatal("retention.gc must not carry a trace field")
		}
	}
}

// TestSweepLateAppendKeepsNewerTrace replays the retention race of two
// sequential fleet requests under a one-trace budget: a worker's late
// journal flush appends to the older request's trace. Whether it lands
// after retention reclaimed that trace or before, the next sweep must
// keep the newer request's trace and leave the older one gone.
func TestSweepLateAppendKeepsNewerTrace(t *testing.T) {
	sweep := func(t *testing.T, g *GC) {
		t.Helper()
		if _, err := g.Sweep(time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	for _, removeFirst := range []bool{true, false} {
		st, err := obsplane.OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		seedTrace(t, st, "q1", 2*time.Minute)
		seedTrace(t, st, "q2", time.Minute)
		g := &GC{Policy: Policy{Traces: ClassPolicy{MaxCount: 1}}, Traces: st}
		if removeFirst {
			sweep(t, g) // reclaims q1
		}
		if _, err := st.Append("q1", "w1", []journal.Event{
			{Seq: 2, TimeNS: time.Now().UnixNano(), Name: "fleet.job"},
		}); err != nil {
			t.Fatal(err)
		}
		sweep(t, g)
		if traces, _ := st.Traces(); len(traces) != 1 || traces[0] != "q2" {
			t.Fatalf("removeFirst=%v: surviving traces = %v, want [q2]", removeFirst, traces)
		}
	}
}

func TestSweepTracesAgeAndProtection(t *testing.T) {
	st, err := obsplane.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seedTrace(t, st, "t1", 3*time.Hour) // expired
	seedTrace(t, st, "t2", 3*time.Hour) // expired but protected (active request)
	seedTrace(t, st, "t3", time.Minute) // fresh

	g := &GC{
		Policy: Policy{Traces: ClassPolicy{MaxAge: time.Hour}},
		Traces: st,
		Protected: func() (map[string]bool, map[string]bool) {
			return map[string]bool{"t2": true}, nil
		},
	}
	res, err := g.Sweep(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	cr := res.Classes[ClassTrace]
	if cr.Deleted != 1 || cr.SkippedProtected != 1 {
		t.Fatalf("trace sweep = %+v", cr)
	}
	traces, _ := st.Traces()
	if len(traces) != 2 {
		t.Fatalf("surviving traces = %v, want t2+t3", traces)
	}
}

func TestSweepQuarantinedNeverDeleted(t *testing.T) {
	dir := t.TempDir()
	st, err := obsplane.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mkfile(t, filepath.Join(dir, "t9.jsonl.quarantined"), 64, 100*time.Hour)
	seedTrace(t, st, "t1", 100*time.Hour)

	g := &GC{Policy: Policy{Traces: ClassPolicy{MaxAge: time.Hour}}, Traces: st}
	res, err := g.Sweep(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	cr := res.Classes[ClassTrace]
	if cr.SkippedQuarantined != 1 || cr.Deleted != 1 {
		t.Fatalf("trace sweep = %+v", cr)
	}
	if _, err := os.Stat(filepath.Join(dir, "t9.jsonl.quarantined")); err != nil {
		t.Fatal("quarantined file was deleted by retention")
	}
}

func TestSweepCheckpointsKeepNewestPair(t *testing.T) {
	root := t.TempDir()
	run := filepath.Join(root, "r1")
	for i, age := range []time.Duration{3 * time.Hour, 2 * time.Hour, time.Hour} {
		stem := filepath.Join(run, "ck-"+string(rune('1'+i)))
		mkfile(t, stem+".json", 100, age)
		mkfile(t, stem+".ovf", 1000, age)
	}
	g := &GC{
		Policy:       Policy{Checkpoints: ClassPolicy{MaxAge: time.Minute}},
		ArtifactRoot: root,
	}
	res, err := g.Sweep(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	cr := res.Classes[ClassCheckpoint]
	// Every pair is over-age, but the newest (ck-3) is the resume point
	// and must survive any policy.
	if cr.Deleted != 2 {
		t.Fatalf("checkpoint sweep = %+v, want 2 deleted", cr)
	}
	if cr.BytesReclaimed != 2200 {
		t.Fatalf("reclaimed %d bytes, want 2200 (two json+ovf pairs)", cr.BytesReclaimed)
	}
	for _, stem := range []string{"ck-1", "ck-2"} {
		if _, err := os.Stat(filepath.Join(run, stem+".json")); err == nil {
			t.Fatalf("%s.json survived", stem)
		}
		if _, err := os.Stat(filepath.Join(run, stem+".ovf")); err == nil {
			t.Fatalf("%s.ovf survived", stem)
		}
	}
	if _, err := os.Stat(filepath.Join(run, "ck-3.ovf")); err != nil {
		t.Fatal("newest pair deleted — resume point lost")
	}
}

func TestSweepProbeCSVAge(t *testing.T) {
	root := t.TempDir()
	mkfile(t, filepath.Join(root, "r1", "probes.csv"), 500, 2*time.Hour)
	mkfile(t, filepath.Join(root, "r2", "probes.csv"), 500, time.Minute)
	g := &GC{
		Policy:       Policy{ProbeCSV: ClassPolicy{MaxAge: time.Hour}},
		ArtifactRoot: root,
	}
	res, err := g.Sweep(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	cr := res.Classes[ClassProbeCSV]
	if cr.Deleted != 1 || cr.BytesReclaimed != 500 {
		t.Fatalf("probe sweep = %+v", cr)
	}
	if _, err := os.Stat(filepath.Join(root, "r2", "probes.csv")); err != nil {
		t.Fatal("fresh probe CSV deleted")
	}
}

func TestSweepArtifactDirsByteCap(t *testing.T) {
	root := t.TempDir()
	mkfile(t, filepath.Join(root, "r-old", "ck-1.ovf"), 4000, 2*time.Hour)
	mkfile(t, filepath.Join(root, "r-new", "ck-1.ovf"), 4000, time.Minute)
	g := &GC{
		Policy:       Policy{Artifacts: ClassPolicy{MaxBytes: 5000}},
		ArtifactRoot: root,
	}
	res, err := g.Sweep(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	cr := res.Classes[ClassArtifact]
	if cr.Deleted != 1 || cr.BytesReclaimed != 4000 {
		t.Fatalf("artifact sweep = %+v", cr)
	}
	if _, err := os.Stat(filepath.Join(root, "r-old")); err == nil {
		t.Fatal("oldest run dir survived the byte cap")
	}
	if _, err := os.Stat(filepath.Join(root, "r-new", "ck-1.ovf")); err != nil {
		t.Fatal("newest run dir deleted")
	}
}

func TestSweepArtifactDirQuarantineBlocksRemoval(t *testing.T) {
	root := t.TempDir()
	mkfile(t, filepath.Join(root, "r1", "ck-1.ovf"), 100, 10*time.Hour)
	mkfile(t, filepath.Join(root, "r1", "ck-0.json.quarantined"), 10, 10*time.Hour)
	g := &GC{
		Policy:       Policy{Artifacts: ClassPolicy{MaxAge: time.Hour}},
		ArtifactRoot: root,
	}
	res, err := g.Sweep(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	cr := res.Classes[ClassArtifact]
	if cr.Deleted != 0 || cr.SkippedQuarantined != 1 {
		t.Fatalf("artifact sweep = %+v", cr)
	}
	if _, err := os.Stat(filepath.Join(root, "r1")); err != nil {
		t.Fatal("run dir with quarantined data was deleted")
	}
}

func TestSweepDryRun(t *testing.T) {
	st, err := obsplane.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seedTrace(t, st, "t1", 3*time.Hour)
	ring := journal.NewRingSink(16)
	defer journal.Default().Attach(ring)()

	g := &GC{
		Policy: Policy{Traces: ClassPolicy{MaxAge: time.Hour}, DryRun: true},
		Traces: st,
	}
	res, err := g.Sweep(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if !res.DryRun || res.Deleted() != 1 || res.BytesReclaimed() <= 0 {
		t.Fatalf("dry-run result = %+v", res)
	}
	if traces, _ := st.Traces(); len(traces) != 1 {
		t.Fatal("dry run deleted a trace")
	}
	evs := gcEvents(ring)
	if len(evs) != 1 || evs[0].Fields["dry_run"] != true {
		t.Fatalf("dry-run gc events = %+v", evs)
	}
}

func TestSweepCompactsCatalog(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		c.Append(Record{ID: "r" + string(rune('0'+i)), Kind: "eval", IndexedNS: int64(i + 1)})
	}
	ring := journal.NewRingSink(16)
	defer journal.Default().Attach(ring)()

	g := &GC{Policy: Policy{HistoryMaxRecords: 2}, Catalog: c}
	res, err := g.Sweep(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	cr := res.Classes[ClassHistory]
	if cr.Deleted != 4 || cr.BytesReclaimed <= 0 {
		t.Fatalf("catalog compaction = %+v", cr)
	}
	if c.Len() != 2 {
		t.Fatalf("catalog Len = %d after compaction, want 2", c.Len())
	}
	if evs := gcEvents(ring); len(evs) != 1 || evs[0].Fields["class"] != string(ClassHistory) {
		t.Fatalf("compaction gc events = %+v", evs)
	}
}

func TestSweepRunPeriodic(t *testing.T) {
	st, err := obsplane.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seedTrace(t, st, "t1", 3*time.Hour)
	g := &GC{Policy: Policy{Traces: ClassPolicy{MaxAge: time.Hour}}, Traces: st}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	done := make(chan struct{})
	go func() { g.Run(ctx, 10*time.Millisecond); close(done) }()

	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, at, _, n := g.LastSweep(); n > 0 && !at.IsZero() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic sweeper never swept")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if traces, _ := st.Traces(); len(traces) != 0 {
		t.Fatal("periodic sweep did not delete the expired trace")
	}
	cancel()
	<-done
}
