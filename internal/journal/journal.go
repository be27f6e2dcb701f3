// Package journal is the structured run journal of the flight-recorder
// tier (DESIGN.md §11): an append-only stream of lifecycle events —
// run start, transient settled, lock-in window, engine cache
// provenance, completion or error — emitted by the core backends and the
// evaluation engine, and delivered in order to pluggable sinks (JSONL
// writer, in-memory ring). Hub is the keyed fan-out that feeds live
// tails from a sink.
//
// Every event carries a monotonic sequence number, a wall-clock
// timestamp, and the run ID of the evaluation that produced it. The
// same run ID is stamped onto trace spans as a span label (obs.L("run",
// id)) and onto slog records by the handler returned from NewLogger, so
// journal lines, span timelines and logs correlate by a single key.
//
// The journal is dependency-free (standard library only) and
// zero-cost while disabled: with no sink attached, Emit performs one
// atomic load and returns. With sinks attached, events are assigned
// sequence numbers and delivered under one mutex, so every sink
// observes the stream in strictly increasing sequence order — the
// property the ordering tests pin under -race.
package journal

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one journal record. The zero value is not meaningful; events
// are created by Journal.Emit.
type Event struct {
	// Seq is the monotonic sequence number, unique and strictly
	// increasing per Journal (starting at 1).
	Seq uint64 `json:"seq"`
	// TimeNS is the wall-clock emission time in Unix nanoseconds.
	TimeNS int64 `json:"time_ns"`
	// Run identifies the evaluation run the event belongs to; empty for
	// process-level events.
	Run string `json:"run,omitempty"`
	// Name is the event name, dot-namespaced by subsystem
	// ("run.start", "engine.cache", "engine.eval.done", ...).
	Name string `json:"event"`
	// Fields holds the event payload.
	Fields map[string]any `json:"fields,omitempty"`
}

// Field is one key/value payload entry passed to Emit.
type Field struct {
	Key   string
	Value any
}

// F is shorthand for constructing a Field.
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// Sink receives journal events. Emit calls Sinks under the journal's
// delivery mutex, so implementations observe events in sequence order
// and need no ordering logic of their own; they should be cheap (record
// and return) because they run on the emitting goroutine.
type Sink interface {
	Emit(e Event)
}

// Journal assigns sequence numbers and fans events out to its sinks. A
// Journal is safe for concurrent use by any number of emitters.
type Journal struct {
	mu    sync.Mutex
	seq   uint64
	sinks []Sink
	n     atomic.Int32 // len(sinks), read lock-free by Enabled/Emit
}

// New builds an empty journal with no sinks attached.
func New() *Journal { return &Journal{} }

var defaultJournal = New()

// Default returns the process-wide journal the instrumented packages
// (core, engine, llg) emit into.
func Default() *Journal { return defaultJournal }

// Enabled reports whether at least one sink is attached. Instrumented
// code may use it to skip building expensive payloads.
func (j *Journal) Enabled() bool { return j.n.Load() > 0 }

// Sinks returns the number of attached sinks — surfaced by swserve's
// deep health check so a journal that silently lost its sinks (or never
// attached any) is visible from the outside.
func (j *Journal) Sinks() int { return int(j.n.Load()) }

// Seq returns the sequence number of the most recently emitted event
// (0 before the first). Checkpoint manifests record it so a resumed
// run's journal can be correlated with the interrupted run's tail.
func (j *Journal) Seq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Attach adds a sink and returns a detach function that removes exactly
// that sink again (for deferred cleanup in CLIs and tests).
func (j *Journal) Attach(s Sink) (detach func()) {
	j.mu.Lock()
	j.sinks = append(j.sinks, s)
	j.n.Store(int32(len(j.sinks)))
	j.mu.Unlock()
	return func() {
		j.mu.Lock()
		for i, have := range j.sinks {
			if have == s {
				j.sinks = append(j.sinks[:i:i], j.sinks[i+1:]...)
				break
			}
		}
		j.n.Store(int32(len(j.sinks)))
		j.mu.Unlock()
	}
}

// Emit delivers one event to every attached sink, assigning the next
// sequence number and the wall-clock timestamp. With no sink attached
// it returns immediately without allocating.
func (j *Journal) Emit(run, name string, fields ...Field) {
	if j.n.Load() == 0 {
		return
	}
	var fm map[string]any
	if len(fields) > 0 {
		fm = make(map[string]any, len(fields))
		for _, f := range fields {
			fm[f.Key] = f.Value
		}
	}
	now := time.Now().UnixNano()
	j.mu.Lock()
	j.seq++
	e := Event{Seq: j.seq, TimeNS: now, Run: run, Name: name, Fields: fm}
	for _, s := range j.sinks {
		s.Emit(e)
	}
	j.mu.Unlock()
}

// NewRunID returns a fresh 16-hex-digit run identifier ("r" prefix),
// unique across processes (crypto/rand backed, counter fallback).
func NewRunID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("r%016x", runIDFallback.Add(1))
	}
	return "r" + hex.EncodeToString(b[:])
}

var runIDFallback atomic.Uint64

// ctxKey is the private context key carrying the run ID.
type ctxKey struct{}

// WithRunID returns a context carrying the run ID, so layers below the
// engine (the micromagnetic backend) journal under the same ID the
// engine assigned.
func WithRunID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxKey{}, id)
}

// RunID returns the run ID carried by ctx, or "".
func RunID(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(ctxKey{}).(string)
	return id
}

// MarshalJSONL renders the event as one JSON line (no trailing
// newline). Errors cannot occur for events built by Emit (all payload
// values are JSON-encodable by construction of the call sites); a
// non-encodable payload degrades to an error-describing line rather
// than a lost event.
func (e Event) MarshalJSONL() []byte {
	b, err := json.Marshal(e)
	if err != nil {
		b, _ = json.Marshal(Event{Seq: e.Seq, TimeNS: e.TimeNS, Run: e.Run, Name: e.Name,
			Fields: map[string]any{"marshal_error": err.Error()}})
	}
	return b
}
