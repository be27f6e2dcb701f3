package journal

import (
	"io"
	"log/slog"
	"sync"
)

// WriterSink renders events as JSON Lines to an io.Writer — the file
// sink behind the -journal CLI flags. Writes are serialized by the
// journal's delivery mutex; the sink adds its own mutex so it is also
// safe when shared across journals.
//
// Journaling must never fail the run: on the first write error the sink
// degrades — it logs one warning, latches the error, and drops every
// subsequent event instead of hammering a dead writer once per solver
// event (a full disk would otherwise turn each journal emit into a
// failing syscall).
type WriterSink struct {
	mu  sync.Mutex
	w   io.Writer
	err error // first write error; non-nil → sink degraded
}

// NewWriterSink builds a JSONL sink over w.
func NewWriterSink(w io.Writer) *WriterSink { return &WriterSink{w: w} }

// Emit implements Sink.
func (s *WriterSink) Emit(e Event) {
	line := append(e.MarshalJSONL(), '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if _, err := s.w.Write(line); err != nil {
		s.err = err
		slog.Warn("journal writer sink degraded: dropping further events", "err", err)
	}
}

// Err returns the write error that degraded the sink, or nil while it
// is healthy.
func (s *WriterSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// RingSink retains the most recent events in a fixed-capacity ring —
// the in-memory sink used by tests and by swserve to replay the recent
// history of a run before switching a tail to live delivery.
type RingSink struct {
	mu    sync.Mutex
	buf   []Event
	head  int // next write position
	count int // number of valid entries (≤ cap)
}

// NewRingSink builds a ring retaining the last capacity events
// (capacity < 1 is clamped to 1).
func NewRingSink(capacity int) *RingSink {
	if capacity < 1 {
		capacity = 1
	}
	return &RingSink{buf: make([]Event, capacity)}
}

// Emit implements Sink.
func (s *RingSink) Emit(e Event) {
	s.mu.Lock()
	s.buf[s.head] = e
	s.head = (s.head + 1) % len(s.buf)
	if s.count < len(s.buf) {
		s.count++
	}
	s.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (s *RingSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, 0, s.count)
	start := s.head - s.count
	if start < 0 {
		start += len(s.buf)
	}
	for i := 0; i < s.count; i++ {
		out = append(out, s.buf[(start+i)%len(s.buf)])
	}
	return out
}

// EventsFor returns the retained events of one run, oldest first. An
// empty run ID matches every event.
func (s *RingSink) EventsFor(run string) []Event {
	all := s.Events()
	if run == "" {
		return all
	}
	out := all[:0]
	for _, e := range all {
		if e.Run == run {
			out = append(out, e)
		}
	}
	return out
}

// Hub fans events out to live subscribers over bounded buffered
// channels, keyed by run ID (swserve's run tail) or trace ID (the fleet
// tail). A subscriber that cannot keep up has events dropped (counted
// per subscriber) rather than stalling the publisher: delivery must
// never exert backpressure on the physics loop. The hub's mutex is a
// leaf held only around non-blocking sends, so Publish and End may run
// under the caller's own lock.
type Hub[E any] struct {
	mu   sync.Mutex
	subs map[int]*subscriber[E]
	next int
}

// subscriber is one live tail.
type subscriber[E any] struct {
	key     string // filter; "" matches every key
	ch      chan E
	dropped int64
}

// send delivers e without blocking, counting a drop on a full buffer.
func (sub *subscriber[E]) send(e E) {
	select {
	case sub.ch <- e:
	default:
		sub.dropped++
	}
}

// NewHub builds an empty hub.
func NewHub[E any]() *Hub[E] { return &Hub[E]{subs: make(map[int]*subscriber[E])} }

// Publish delivers e to every subscriber on key and to every wildcard
// subscriber, dropping on a full buffer.
func (h *Hub[E]) Publish(key string, e E) {
	h.mu.Lock()
	for _, sub := range h.subs {
		if sub.key == "" || sub.key == key {
			sub.send(e)
		}
	}
	h.mu.Unlock()
}

// End publishes a final event on key, then closes every subscription on
// that key. Wildcard subscribers receive last and stay open.
func (h *Hub[E]) End(key string, last E) {
	h.mu.Lock()
	for id, sub := range h.subs {
		if sub.key != "" && sub.key != key {
			continue
		}
		sub.send(last)
		if sub.key == key {
			delete(h.subs, id)
			close(sub.ch)
		}
	}
	h.mu.Unlock()
}

// Subscribe registers a live tail for one key ("" = every key) with the
// given channel buffer (clamped to ≥1). It returns the delivery channel,
// a function reporting how many events were dropped on buffer overflow,
// and a cancel function that unregisters and closes the channel. Cancel
// is idempotent; whichever of cancel and End removes the subscription
// closes its channel, so it closes exactly once.
func (h *Hub[E]) Subscribe(key string, buffer int) (events <-chan E, dropped func() int64, cancel func()) {
	if buffer < 1 {
		buffer = 1
	}
	sub := &subscriber[E]{key: key, ch: make(chan E, buffer)}
	h.mu.Lock()
	id := h.next
	h.next++
	h.subs[id] = sub
	h.mu.Unlock()
	return sub.ch, func() int64 {
			h.mu.Lock()
			defer h.mu.Unlock()
			return sub.dropped
		}, func() {
			h.mu.Lock()
			if _, open := h.subs[id]; open {
				delete(h.subs, id)
				close(sub.ch)
			}
			h.mu.Unlock()
		}
}

// Subscribers returns the number of live subscriptions.
func (h *Hub[E]) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}
