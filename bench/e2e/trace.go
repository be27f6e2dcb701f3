package main

import (
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"spinwave"
)

// span is one recorded interval. Spans of one request share Request;
// Parent is the span that caused this one (0 for a request's root).
type span struct {
	ID      int64
	Parent  int64
	Request string
	Name    string
	Start   time.Time
	Dur     time.Duration
	Labels  map[string]string
}

// tracer keeps spans in memory and writes them once, at the end of the
// run; a run holds one span per measured operation plus the replay's, a
// few thousand. It is also the spinwave span sink during the in-process replay:
// solver spans (micromag.setup/transient/lockin) are parented to the
// replay span that is current when they finish.
type tracer struct {
	mu     sync.Mutex
	spans  []span
	nextID int64

	sinkParent int64
	sinkReq    string
}

// newID reserves a span ID, so children can name a parent that has not
// finished yet.
func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// finish records span id as ending now.
func (t *tracer) finish(id, parent int64, req, name string, start time.Time, labels ...string) {
	t.add(span{ID: id, Parent: parent, Request: req, Name: name, Start: start,
		Dur: time.Since(start), Labels: labelMap(labels)})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// within runs f with solver spans parented to (parent, req).
func (t *tracer) within(parent int64, req string, f func()) {
	t.mu.Lock()
	t.sinkParent, t.sinkReq = parent, req
	t.mu.Unlock()
	f()
	t.mu.Lock()
	t.sinkParent, t.sinkReq = 0, ""
	t.mu.Unlock()
}

// Finish implements spinwave.SpanSink.
func (t *tracer) Finish(name string, start time.Time, d time.Duration, labels []spinwave.SpanLabel) {
	kv := make([]string, 0, 2*len(labels))
	for _, l := range labels {
		kv = append(kv, l.Key, l.Value)
	}
	t.mu.Lock()
	parent, req := t.sinkParent, t.sinkReq
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	t.add(span{ID: id, Parent: parent, Request: req, Name: name, Start: start, Dur: d, Labels: labelMap(kv)})
}

func labelMap(kv []string) map[string]string {
	if len(kv) == 0 {
		return nil
	}
	m := make(map[string]string, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}

// layerStat is one span name's count and summed self time.
type layerStat struct {
	name string
	n    int
	self time.Duration
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children, such as
// cases running in parallel, count once).
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	pEnd := parent.Start.Add(parent.Dur)
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.Start.Add(k.Dur)
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(pEnd) {
			b = pEnd
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur *iv
	for i := range ivs {
		switch {
		case cur == nil:
			cur = &ivs[i]
		case !ivs[i].a.After(cur.b):
			if ivs[i].b.After(cur.b) {
				cur.b = ivs[i].b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = &ivs[i]
		}
	}
	if cur != nil {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// layers summarizes spans by name, in order of first appearance.
func (t *tracer) layers() []layerStat {
	spans := t.snapshot()
	self := selfTimes(spans)
	idx := map[string]int{}
	var out []layerStat
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, layerStat{name: s.Name})
		}
		out[i].n++
		out[i].self += self[s.ID]
	}
	return out
}

// snapshot returns a copy of every recorded span.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spansNamed returns the spans with the given name.
func (t *tracer) spansNamed(name string) []span {
	var out []span
	for _, s := range t.snapshot() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// chromeEvent is one event of the Chrome trace-event format, the format
// obs.ChromeTraceSink and swsim -trace-out write (chrome://tracing,
// Perfetto).
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChrome writes every span as a Chrome "complete" event, one row
// per span name, with the span, parent and request IDs in its args.
func (t *tracer) writeChrome(path string) error {
	spans := t.snapshot()
	var epoch time.Time
	for _, s := range spans {
		if epoch.IsZero() || s.Start.Before(epoch) {
			epoch = s.Start
		}
	}
	rows := map[string]int{}
	var events []chromeEvent
	for _, s := range spans {
		tid, ok := rows[s.Name]
		if !ok {
			tid = len(rows) + 1
			rows[s.Name] = tid
			events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]string{"name": s.Name}})
		}
		args := map[string]string{"id": strconv.FormatInt(s.ID, 10),
			"parent": strconv.FormatInt(s.Parent, 10), "request": s.Request}
		for k, v := range s.Labels {
			args[k] = v
		}
		events = append(events, chromeEvent{Name: s.Name, Ph: "X", Pid: 1, Tid: tid,
			Ts:  float64(s.Start.Sub(epoch).Nanoseconds()) / 1e3,
			Dur: float64(s.Dur.Nanoseconds()) / 1e3, Args: args})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
