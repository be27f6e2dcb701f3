package obsplane

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"spinwave/internal/journal"
)

// ev builds a journal event with explicit seq/time for merge tests.
func ev(seq uint64, timeNS int64, name string) journal.Event {
	return journal.Event{Seq: seq, TimeNS: timeNS, Name: name,
		Fields: map[string]any{"n": int(seq)}}
}

func TestStoreAppendAndEvents(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.Append("t1", "w1", []journal.Event{ev(1, 10, "a"), ev(2, 20, "b")}); err != nil || n != 2 {
		t.Fatalf("Append = %d, %v; want 2, nil", n, err)
	}
	if n, err := s.Append("t1", "w2", []journal.Event{ev(1, 15, "c")}); err != nil || n != 1 {
		t.Fatalf("Append = %d, %v; want 1, nil", n, err)
	}
	events, err := s.Events("t1")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range events {
		got = append(got, e.Node+"/"+e.Name)
	}
	want := []string{"w1/a", "w2/c", "w1/b"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged order = %v, want %v", got, want)
	}
	if s.Shipped() != 3 {
		t.Fatalf("Shipped = %d, want 3", s.Shipped())
	}
}

func TestStoreIdempotentReship(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	batch := []journal.Event{ev(1, 10, "a"), ev(2, 20, "b")}
	if n, _ := s.Append("t1", "w1", batch); n != 2 {
		t.Fatalf("first ship accepted %d, want 2", n)
	}
	// A retried batch (the worker never saw the ack) must be dropped.
	if n, _ := s.Append("t1", "w1", batch); n != 0 {
		t.Fatalf("re-ship accepted %d, want 0", n)
	}
	// A batch overlapping the watermark ships only the new tail.
	if n, _ := s.Append("t1", "w1", []journal.Event{ev(2, 20, "b"), ev(3, 30, "c")}); n != 1 {
		t.Fatalf("overlap ship accepted %d, want 1", n)
	}
	events, _ := s.Events("t1")
	if len(events) != 3 {
		t.Fatalf("stored %d events, want 3", len(events))
	}
}

// TestStoreReopenWatermarks pins the durability story: after a
// coordinator restart the per-node watermarks are rebuilt from the
// file, so a worker retrying its last batch still cannot duplicate.
func TestStoreReopenWatermarks(t *testing.T) {
	dir := t.TempDir()
	s1, _ := OpenStore(dir)
	if _, err := s1.Append("t1", "w1", []journal.Event{ev(1, 10, "a"), ev(2, 20, "b")}); err != nil {
		t.Fatal(err)
	}
	s2, _ := OpenStore(dir)
	if n, err := s2.Append("t1", "w1", []journal.Event{ev(2, 20, "b")}); err != nil || n != 0 {
		t.Fatalf("post-restart re-ship accepted %d, %v; want 0, nil", n, err)
	}
	if n, _ := s2.Append("t1", "w1", []journal.Event{ev(3, 30, "c")}); n != 1 {
		t.Fatal("post-restart fresh event refused")
	}
}

// TestStoreMergeAfterKill models the mid-segment SIGKILL: the dying
// worker's last shipped batch ends mid-job, the resuming peer's events
// interleave after it, and the merged order is deterministic — per-node
// sequences stay monotonic no matter how the batches arrived.
func TestStoreMergeAfterKill(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenStore(dir)
	// Victim ships two batches, then dies (its seqs 5.. are never sent).
	s.Append("t1", "victim", []journal.Event{ev(1, 100, "run.start"), ev(2, 200, "checkpoint.save")})
	s.Append("t1", "victim", []journal.Event{ev(3, 300, "checkpoint.save"), ev(4, 400, "step")})
	// Coordinator journals the requeue, then the peer resumes.
	s.Append("t1", CoordinatorNode, []journal.Event{ev(7, 500, "fleet.requeue")})
	s.Append("t1", "peer", []journal.Event{ev(1, 600, "checkpoint.resume"), ev(2, 700, "run.complete")})

	for _, reread := range []bool{false, true} {
		st := s
		if reread {
			st, _ = OpenStore(dir) // cold read after "restart"
		}
		events, err := st.Events("t1")
		if err != nil {
			t.Fatal(err)
		}
		var order []string
		last := map[string]uint64{}
		for _, e := range events {
			order = append(order, e.Node)
			if e.Seq <= last[e.Node] {
				t.Fatalf("node %s seq %d after %d (reread=%t)", e.Node, e.Seq, last[e.Node], reread)
			}
			last[e.Node] = e.Seq
		}
		want := []string{"victim", "victim", "victim", "victim", "coordinator", "peer", "peer"}
		if !reflect.DeepEqual(order, want) {
			t.Fatalf("merge order = %v, want %v (reread=%t)", order, want, reread)
		}
	}
	sum := Summarize(mustEvents(t, s, "t1"))
	if sum.Requeues != 1 || sum.Resumes != 1 || sum.SeqViolations != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if len(sum.Nodes) != 3 {
		t.Fatalf("summary nodes = %v, want 3 nodes", sum.Nodes)
	}
}

func mustEvents(t *testing.T, s *Store, trace string) []ShippedEvent {
	t.Helper()
	events, err := s.Events(trace)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func TestStoreTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenStore(dir)
	s.Append("t1", "w1", []journal.Event{ev(1, 10, "a")})
	// Simulate a crash mid-append: a torn, non-JSON final line.
	f, err := os.OpenFile(filepath.Join(dir, "t1.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"node":"w1","seq":2,"ti`)
	f.Close()
	s2, _ := OpenStore(dir)
	events, err := s2.Events("t1")
	if err != nil || len(events) != 1 {
		t.Fatalf("Events = %d, %v; want 1 event, nil", len(events), err)
	}
	// The torn seq 2 was never durable; the retried ship must land it.
	if n, _ := s2.Append("t1", "w1", []journal.Event{ev(2, 20, "b")}); n != 1 {
		t.Fatal("event after torn tail refused")
	}
	// The landed event must be readable on a line of its own — from this
	// store and from one reopened after a restart.
	for _, st := range []*Store{s2, mustOpenStore(t, dir)} {
		events, err := st.Events("t1")
		if err != nil || len(events) != 2 || events[1].Seq != 2 || events[1].Name != "b" {
			t.Fatalf("Events after re-ship = %+v, %v; want seqs 1 and 2", events, err)
		}
	}
	if n, _ := mustOpenStore(t, dir).Append("t1", "w1", []journal.Event{ev(2, 20, "b")}); n != 0 {
		t.Fatal("reopened store re-accepted seq 2")
	}
}

func mustOpenStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreRejectsBadIDs(t *testing.T) {
	s, _ := OpenStore(t.TempDir())
	if _, err := s.Append("../escape", "w1", []journal.Event{ev(1, 1, "a")}); err == nil {
		t.Fatal("path-traversal trace id accepted")
	}
	if _, err := s.Append("t1", "no/slashes", []journal.Event{ev(1, 1, "a")}); err == nil {
		t.Fatal("bad node id accepted")
	}
	if _, err := s.Events(".hidden"); err == nil {
		t.Fatal("dot trace id accepted on read")
	}
}

func TestStoreSubscribeLiveTail(t *testing.T) {
	s, _ := OpenStore(t.TempDir())
	events, dropped, cancel := s.Subscribe("t1", 8)
	defer cancel()
	s.Append("t1", "w1", []journal.Event{ev(1, 10, "a")})
	s.Append("t2", "w1", []journal.Event{ev(1, 10, "other-trace")})
	got := <-events
	if got.Name != "a" || got.Node != "w1" || got.Trace != "t1" {
		t.Fatalf("live event = %+v", got)
	}
	select {
	case e := <-events:
		t.Fatalf("event from foreign trace delivered: %+v", e)
	default:
	}
	if dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", dropped())
	}
	cancel()
	cancel() // idempotent
	if s.Subscribers() != 0 {
		t.Fatalf("Subscribers = %d after cancel", s.Subscribers())
	}
}

func TestTraceIDsAndContext(t *testing.T) {
	id := NewTraceID()
	if !ValidID(id) || id[0] != 't' {
		t.Fatalf("NewTraceID() = %q", id)
	}
	if NewTraceID() == id {
		t.Fatal("trace IDs collide")
	}
	if Trace(nil) != "" {
		t.Fatal("Trace(nil) non-empty")
	}
	if Trace(context.Background()) != "" {
		t.Fatal("Trace of bare context non-empty")
	}
	ctx := WithTrace(context.Background(), "t123")
	if Trace(ctx) != "t123" {
		t.Fatalf("Trace = %q", Trace(ctx))
	}
}

func TestValidID(t *testing.T) {
	for _, ok := range []string{"t1", "worker-3", "a.b_c", "q0af31bc2"} {
		if !ValidID(ok) {
			t.Errorf("ValidID(%q) = false", ok)
		}
	}
	long := strings.Repeat("x", 65)
	for _, bad := range []string{"", ".dot", "a/b", "a b", "a\x00b", long, "../x"} {
		if ValidID(bad) {
			t.Errorf("ValidID(%q) = true", bad)
		}
	}
}

func TestStoreRemoveMidTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Append("t1", "w1", []journal.Event{ev(1, 10, "a"), ev(2, 20, "b")})
	s.Append("t1", CoordinatorNode, []journal.Event{ev(5, 30, "fleet.claim")})

	// A live tail is mid-stream when retention removes the trace.
	events, _, cancel := s.Subscribe("t1", 8)
	defer cancel()
	s.Append("t1", "w1", []journal.Event{ev(3, 40, "c")})

	freed, err := s.Remove("t1")
	if err != nil {
		t.Fatal(err)
	}
	if freed <= 0 {
		t.Fatalf("Remove freed %d bytes, want > 0", freed)
	}
	if _, err := os.Stat(filepath.Join(dir, "t1.jsonl")); !os.IsNotExist(err) {
		t.Fatal("trace file still on disk after Remove")
	}

	// The subscriber drains its buffered event, then the terminal
	// marker, then a clean channel close — no error loop.
	var names []string
	for e := range events {
		names = append(names, e.Name)
	}
	if len(names) != 2 || names[0] != "c" || names[1] != RemovedEventName {
		t.Fatalf("tail saw %v, want [c %s]", names, RemovedEventName)
	}
	if s.Subscribers() != 0 {
		t.Fatalf("Subscribers = %d after Remove, want 0", s.Subscribers())
	}

	// The terminal event outsequences everything stored for the trace,
	// so a per-node dedup downstream cannot drop it.
	// (Highest stored seq was the coordinator's 5; terminal must be 6.)
	// Also: the subscriber's own deferred cancel after Remove's close
	// must be a no-op, not a double-close panic.
	cancel()

	// Removing an absent trace is a no-op.
	if freed, err := s.Remove("t1"); err != nil || freed != 0 {
		t.Fatalf("second Remove = %d, %v; want 0, nil", freed, err)
	}

	// A late shipment for the removed trace is dropped, not written: it
	// must not resurrect the file retention just reclaimed.
	if n, err := s.Append("t1", "w1", []journal.Event{ev(4, 50, "late")}); err != nil || n != 0 {
		t.Fatalf("late Append after Remove = %d, %v; want 0, nil", n, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "t1.jsonl")); !os.IsNotExist(err) {
		t.Fatal("late Append recreated the removed trace file")
	}

	// A reopened store accepts the trace again from scratch (fresh
	// watermarks).
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s2.Append("t1", "w1", []journal.Event{ev(1, 60, "fresh")}); err != nil || n != 1 {
		t.Fatalf("Append after reopen = %d, %v; want 1, nil", n, err)
	}
}

func TestStoreRemoveTerminalSeq(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Append("t1", CoordinatorNode, []journal.Event{ev(9, 10, "fleet.claim")})
	events, _, cancel := s.Subscribe("t1", 4)
	defer cancel()
	if _, err := s.Remove("t1"); err != nil {
		t.Fatal(err)
	}
	term, open := <-events
	if !open {
		t.Fatal("channel closed before delivering the terminal event")
	}
	if term.Name != RemovedEventName || term.Node != CoordinatorNode || term.Seq != 10 {
		t.Fatalf("terminal = %s/%s seq %d, want %s/%s seq 10",
			term.Node, term.Name, term.Seq, CoordinatorNode, RemovedEventName)
	}
	if _, open := <-events; open {
		t.Fatal("channel not closed after terminal event")
	}
}

// TestStoreHoldsNoDescriptorPerTrace: the coordinator's per-trace logs
// are closed after each append, so serving many traces does not hold
// one open file per trace.
func TestStoreHoldsNoDescriptorPerTrace(t *testing.T) {
	fds := func() int {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd on this platform")
		}
		return len(entries)
	}
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	before := fds()
	for i := 0; i < 200; i++ {
		if _, err := s.Append(fmt.Sprintf("t%03d", i), "w1", []journal.Event{ev(1, 10, "a")}); err != nil {
			t.Fatal(err)
		}
	}
	if after := fds(); after != before {
		t.Fatalf("open descriptors went %d -> %d over 200 traces", before, after)
	}
}
