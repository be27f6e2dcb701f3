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

	g := &GC{MaxTraces: 1, Traces: st}
	res, err := g.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if res.Examined != 3 || res.Deleted != 2 || res.BytesReclaimed <= 0 {
		t.Fatalf("trace sweep = %+v", res)
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
		if _, err := g.Sweep(); err != nil {
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
		g := &GC{MaxTraces: 1, Traces: st}
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

// TestSweepTracesAgeAndProtection: the cap keeps the youngest trace,
// and an older trace past the cap survives while the Protected hook
// claims it (an active request).
func TestSweepTracesAgeAndProtection(t *testing.T) {
	st, err := obsplane.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seedTrace(t, st, "t1", 3*time.Hour) // past the cap
	seedTrace(t, st, "t2", 3*time.Hour) // past the cap but protected
	seedTrace(t, st, "t3", time.Minute) // youngest: kept by the cap

	g := &GC{
		MaxTraces: 1,
		Traces:    st,
		Protected: func() map[string]bool { return map[string]bool{"t2": true} },
	}
	res, err := g.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 1 || res.SkippedProtected != 1 {
		t.Fatalf("trace sweep = %+v", res)
	}
	if traces, _ := st.Traces(); len(traces) != 2 || traces[0] == "t1" || traces[1] == "t1" {
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
	seedTrace(t, st, "t2", time.Hour)

	g := &GC{MaxTraces: 1, Traces: st}
	res, err := g.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if res.SkippedQuarantined != 1 || res.Deleted != 1 {
		t.Fatalf("trace sweep = %+v", res)
	}
	if _, err := os.Stat(filepath.Join(dir, "t9.jsonl.quarantined")); err != nil {
		t.Fatal("quarantined file was deleted by retention")
	}
}

func TestSweepRunPeriodic(t *testing.T) {
	st, err := obsplane.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seedTrace(t, st, "t1", 3*time.Hour)
	seedTrace(t, st, "t2", time.Hour)
	g := &GC{MaxTraces: 1, Traces: st}

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
	if traces, _ := st.Traces(); len(traces) != 1 || traces[0] != "t2" {
		t.Fatalf("surviving traces = %v after a periodic sweep, want [t2]", traces)
	}
	cancel()
	<-done
}
