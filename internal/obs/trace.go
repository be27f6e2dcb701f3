package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// ChromeTraceSink retains finished spans and renders them in the Chrome
// trace-event format (the `{"traceEvents":[...]}` JSON loadable in
// chrome://tracing and Perfetto) — the exporter behind `swsim
// -trace-out trace.json`. Unlike HistogramSink it keeps every span
// label, including the per-run "run" label, so a trace shows which
// evaluation each setup/transient/lockin span belonged to.
//
// Spans are capped at MaxSpans (default 65536); spans finished beyond
// the cap are counted in Dropped instead of growing without bound.
type ChromeTraceSink struct {
	// MaxSpans bounds retention; 0 means the default 65536.
	MaxSpans int

	mu      sync.Mutex
	spans   []FinishedSpan
	dropped int64
}

// Finish implements SpanSink.
func (c *ChromeTraceSink) Finish(name string, start time.Time, d time.Duration, labels []Label) {
	max := c.MaxSpans
	if max <= 0 {
		max = 65536
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.spans) >= max {
		c.dropped++
		return
	}
	c.spans = append(c.spans, FinishedSpan{Name: name, Start: start, Duration: d, Labels: labels})
}

// Len returns the number of retained spans.
func (c *ChromeTraceSink) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.spans)
}

// Dropped returns the number of spans discarded at the retention cap.
func (c *ChromeTraceSink) Dropped() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// Export renders the retained spans as a Chrome trace JSON document
// (WriteChromeTrace): each span name gets its own row, and span labels
// become event args.
func (c *ChromeTraceSink) Export(w io.Writer) error {
	c.mu.Lock()
	events := make([]ChromeEvent, len(c.spans))
	for i, s := range c.spans {
		events[i] = ChromeEvent{Row: s.Name, Name: s.Name, Start: s.Start, Dur: s.Duration}
		if len(s.Labels) > 0 {
			events[i].Args = make(map[string]string, len(s.Labels))
			for _, l := range s.Labels {
				events[i].Args[l.Key] = l.Value
			}
		}
	}
	c.mu.Unlock()
	return WriteChromeTrace(w, events)
}

// ChromeEvent is one event for WriteChromeTrace: a complete span or an
// instant marker on a named timeline row.
type ChromeEvent struct {
	// Row names the timeline row (Chrome thread) the event sits on.
	Row string
	// Name labels the event in the timeline.
	Name string
	// Start is the span start, or the instant.
	Start time.Time
	// Dur is the span duration; a negative one renders as zero.
	Dur time.Duration
	// Instant renders a thread-scoped instant marker instead of a span.
	Instant bool
	// Args carries the event's key/value payload.
	Args map[string]string
}

// traceEvent is the wire form of one Chrome trace event: a "complete"
// span (Ph "X", with Dur) or an instant marker (Ph "i", with S scope),
// timed in microseconds relative to the trace epoch.
type traceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// threadName is the Chrome metadata event labeling a tid row.
type threadName struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

// WriteChromeTrace renders events as one Chrome trace-event JSON
// document (`{"traceEvents":[...]}`, loadable in chrome://tracing and
// Perfetto) — the writer behind both ChromeTraceSink and the fleet
// observability plane's merged multi-node timelines. Each distinct Row
// becomes a thread row, numbered by first appearance and labeled by a
// thread_name metadata event; timestamps are microseconds relative to
// the earliest event.
func WriteChromeTrace(w io.Writer, events []ChromeEvent) error {
	var epoch time.Time
	for _, e := range events {
		if epoch.IsZero() || e.Start.Before(epoch) {
			epoch = e.Start
		}
	}
	tids := make(map[string]int)
	rows := []any{} // never nil: an empty trace encodes "traceEvents":[]
	body := make([]any, 0, len(events))
	for _, e := range events {
		tid, ok := tids[e.Row]
		if !ok {
			tid = len(tids) + 1
			tids[e.Row] = tid
			rows = append(rows, threadName{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]string{"name": e.Row}})
		}
		ev := traceEvent{Name: e.Name, Ph: "X", Ts: float64(e.Start.Sub(epoch).Nanoseconds()) / 1e3,
			Pid: 1, Tid: tid, Args: e.Args}
		if e.Instant {
			ev.Ph, ev.S = "i", "t"
		} else {
			ev.Dur = float64(max(e.Dur, 0).Nanoseconds()) / 1e3
		}
		body = append(body, ev)
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": append(rows, body...)})
}

// TeeSink delivers every finished span to all of its sinks — used when
// a CLI wants both histogram metrics (-stats) and a Chrome trace
// (-trace-out) from the same run.
type TeeSink []SpanSink

// Finish implements SpanSink.
func (t TeeSink) Finish(name string, start time.Time, d time.Duration, labels []Label) {
	for _, s := range t {
		if s != nil {
			s.Finish(name, start, d, labels)
		}
	}
}
