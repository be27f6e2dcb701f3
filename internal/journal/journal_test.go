package journal

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

// orderSink records the sequence numbers it observes, failing fast on
// any out-of-order or duplicated delivery.
type orderSink struct {
	mu   sync.Mutex
	seqs []uint64
}

func (s *orderSink) Emit(e Event) {
	s.mu.Lock()
	s.seqs = append(s.seqs, e.Seq)
	s.mu.Unlock()
}

// TestEmitOrdering pins the delivery contract: with many goroutines
// emitting concurrently, every sink observes strictly increasing,
// gap-free sequence numbers. Run under -race by `make test-race`.
func TestEmitOrdering(t *testing.T) {
	j := New()
	a, b := &orderSink{}, &orderSink{}
	defer j.Attach(a)()
	defer j.Attach(b)()

	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			run := fmt.Sprintf("r%d", w)
			for i := 0; i < per; i++ {
				j.Emit(run, "test.event", F("i", i))
			}
		}(w)
	}
	wg.Wait()

	for name, s := range map[string]*orderSink{"a": a, "b": b} {
		if len(s.seqs) != workers*per {
			t.Fatalf("sink %s saw %d events, want %d", name, len(s.seqs), workers*per)
		}
		for i, seq := range s.seqs {
			if want := uint64(i + 1); seq != want {
				t.Fatalf("sink %s position %d has seq %d, want %d", name, i, seq, want)
			}
		}
	}
}

// TestDisabledEmitAllocates pins the zero-cost-when-disabled contract:
// with no sink attached, Emit must not allocate.
func TestDisabledEmitAllocates(t *testing.T) {
	j := New()
	allocs := testing.AllocsPerRun(100, func() {
		j.Emit("r1", "test.event")
	})
	if allocs > 0 {
		t.Errorf("disabled Emit allocates %g per call, want 0", allocs)
	}
}

func TestAttachDetach(t *testing.T) {
	j := New()
	if j.Enabled() {
		t.Fatal("fresh journal reports enabled")
	}
	s := &orderSink{}
	detach := j.Attach(s)
	if !j.Enabled() {
		t.Fatal("journal with a sink reports disabled")
	}
	j.Emit("", "one")
	detach()
	if j.Enabled() {
		t.Fatal("journal still enabled after detach")
	}
	j.Emit("", "two")
	if len(s.seqs) != 1 {
		t.Fatalf("sink saw %d events, want 1 (post-detach emit leaked)", len(s.seqs))
	}
	detach() // idempotent
}

func TestWriterSinkJSONL(t *testing.T) {
	var buf bytes.Buffer
	j := New()
	defer j.Attach(NewWriterSink(&buf))()
	j.Emit("r42", "run.start", F("gate", "xor"), F("inputs", "10"))
	j.Emit("r42", "run.complete")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2: %q", len(lines), buf.String())
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("line 1 is not JSON: %v", err)
	}
	if e.Seq != 1 || e.Run != "r42" || e.Name != "run.start" || e.Fields["gate"] != "xor" {
		t.Errorf("decoded event %+v", e)
	}
	if e.TimeNS == 0 {
		t.Error("event missing timestamp")
	}
}

// failAfterWriter accepts n writes, then fails every one after.
type failAfterWriter struct {
	n      int
	writes int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.n {
		return 0, fmt.Errorf("disk full")
	}
	return len(p), nil
}

// TestWriterSinkDegradesOnError pins the file-sink failure contract:
// the first write error latches the sink into a degraded state — no
// panic, no error surfaced to the emitting run, and no further write
// attempts against the dead writer.
func TestWriterSinkDegradesOnError(t *testing.T) {
	w := &failAfterWriter{n: 1}
	j := New()
	s := NewWriterSink(w)
	defer j.Attach(s)()

	j.Emit("r1", "run.start") // succeeds
	if s.Err() != nil {
		t.Fatalf("healthy sink reports error: %v", s.Err())
	}
	j.Emit("r1", "run.complete") // fails, degrades the sink
	if s.Err() == nil {
		t.Fatal("failed write did not degrade the sink")
	}
	j.Emit("r1", "run.extra")
	j.Emit("r1", "run.more")
	if w.writes != 2 {
		t.Errorf("degraded sink attempted %d writes, want 2 (one success, one failure)", w.writes)
	}
	// The journal itself stays usable: other sinks still see events.
	o := &orderSink{}
	defer j.Attach(o)()
	j.Emit("r1", "after")
	if len(o.seqs) != 1 {
		t.Error("journal delivery broken after a sink degraded")
	}
}

func TestRingSink(t *testing.T) {
	r := NewRingSink(3)
	for i := 1; i <= 5; i++ {
		run := "a"
		if i%2 == 0 {
			run = "b"
		}
		r.Emit(Event{Seq: uint64(i), Run: run, Name: "e"})
	}
	got := r.Events()
	if len(got) != 3 || got[0].Seq != 3 || got[2].Seq != 5 {
		t.Fatalf("ring retained %+v, want seqs 3..5", got)
	}
	onlyB := r.EventsFor("b")
	if len(onlyB) != 1 || onlyB[0].Seq != 4 {
		t.Fatalf("EventsFor(b) = %+v, want seq 4", onlyB)
	}
}

// TestHubBackpressure verifies a slow subscriber drops instead of
// blocking the publisher, and that drops are counted.
func TestHubBackpressure(t *testing.T) {
	h := NewHub[Event]()
	ch, dropped, cancel := h.Subscribe("", 2)
	defer cancel()
	for i := 1; i <= 5; i++ {
		h.Publish("r1", Event{Seq: uint64(i)}) // must never block
	}
	if d := dropped(); d != 3 {
		t.Errorf("dropped %d events, want 3", d)
	}
	if e := <-ch; e.Seq != 1 {
		t.Errorf("first delivered seq %d, want 1", e.Seq)
	}
}

// TestHubRunFilterAndCancel covers per-key filtering and concurrent
// publish/cancel under -race.
func TestHubRunFilterAndCancel(t *testing.T) {
	h := NewHub[Event]()
	ch, _, cancel := h.Subscribe("r1", 16)
	h.Publish("r1", Event{Seq: 1, Run: "r1"})
	h.Publish("r2", Event{Seq: 2, Run: "r2"})
	h.Publish("r1", Event{Seq: 3, Run: "r1"})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			h.Publish("r1", Event{Seq: uint64(10 + i), Run: "r1"})
		}
	}()
	cancel()
	cancel() // idempotent
	wg.Wait()

	var got []uint64
	for e := range ch {
		got = append(got, e.Seq)
	}
	if len(got) < 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("filtered delivery %v, want prefix [1 3]", got)
	}
	if h.Subscribers() != 0 {
		t.Errorf("%d subscribers after cancel, want 0", h.Subscribers())
	}
}

// TestHubEnd pins End's contract: subscribers on the key receive the
// final event and then a closed channel; other keys are untouched; a
// wildcard subscriber sees the final event and stays open.
func TestHubEnd(t *testing.T) {
	h := NewHub[string]()
	mine, _, cancelMine := h.Subscribe("t1", 4)
	other, _, cancelOther := h.Subscribe("t2", 4)
	all, _, cancelAll := h.Subscribe("", 4)
	defer cancelOther()
	defer cancelAll()
	h.Publish("t1", "a")
	h.End("t1", "end")
	var got []string
	for e := range mine {
		got = append(got, e)
	}
	if len(got) != 2 || got[0] != "a" || got[1] != "end" {
		t.Fatalf("t1 tail saw %v, want [a end]", got)
	}
	cancelMine() // after End: a no-op, not a double close
	select {
	case e := <-other:
		t.Fatalf("t2 subscriber got %q from t1", e)
	default:
	}
	if a, b := <-all, <-all; a != "a" || b != "end" {
		t.Fatalf("wildcard saw %q, %q; want a, end", a, b)
	}
	if h.Subscribers() != 2 {
		t.Fatalf("%d subscribers after End, want 2 (t2 and wildcard)", h.Subscribers())
	}
}

// TestHubEndRacesCancelAndPublish runs End, cancel and Publish on one
// key at once, many times over: every channel must close exactly once
// (a double close panics) and a send must never hit a closed channel.
// Meant for -race.
func TestHubEndRacesCancelAndPublish(t *testing.T) {
	h := NewHub[int]()
	for round := 0; round < 200; round++ {
		ch, dropped, cancel := h.Subscribe("t1", 2)
		var wg sync.WaitGroup
		wg.Add(3)
		go func() { defer wg.Done(); h.End("t1", -1) }()
		go func() { defer wg.Done(); cancel() }()
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				h.Publish("t1", i)
			}
			dropped()
		}()
		wg.Wait()
		n := 0
		for range ch {
			n++
		}
		if n > 2 {
			t.Fatalf("round %d: %d events through a 2-slot buffer", round, n)
		}
		cancel()
		h.End("t1", -1)
	}
	if h.Subscribers() != 0 {
		t.Fatalf("%d subscribers left, want 0", h.Subscribers())
	}
}

func TestRunIDContext(t *testing.T) {
	if RunID(context.Background()) != "" {
		t.Error("background context carries a run ID")
	}
	if RunID(nil) != "" { //nolint:staticcheck // deliberate nil-safety check
		t.Error("nil context carries a run ID")
	}
	ctx := WithRunID(context.Background(), "r77")
	if got := RunID(ctx); got != "r77" {
		t.Errorf("RunID = %q, want r77", got)
	}
	a, b := NewRunID(), NewRunID()
	if a == b || len(a) < 9 || a[0] != 'r' {
		t.Errorf("run IDs %q, %q not unique r-prefixed hex", a, b)
	}
}

func TestLoggerStampsRunID(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, slog.LevelInfo)
	ctx := WithRunID(context.Background(), "r99")
	lg.InfoContext(ctx, "transient settled", "steps", 123)
	lg.Log(context.Background(), slog.LevelDebug, "hidden")
	out := buf.String()
	if !strings.Contains(out, "run=r99") {
		t.Errorf("log line missing run ID: %q", out)
	}
	if strings.Contains(out, "hidden") {
		t.Errorf("debug line leaked at info level: %q", out)
	}
	// Derived handlers keep stamping.
	buf.Reset()
	lg.With("worker", 3).WithGroup("g").InfoContext(ctx, "msg")
	if !strings.Contains(buf.String(), "run=r99") {
		t.Errorf("derived logger lost run stamping: %q", buf.String())
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
		"WARN": slog.LevelWarn, "error": slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud) did not fail")
	}
}
