// Package obsplane is the fleet-wide observability plane (DESIGN.md
// §16): the machinery that keeps a distributed run's flight-recorder
// history queryable after the worker that produced it is gone.
//
// Three pieces compose it:
//
//   - Correlation: the coordinator mints one trace ID per fleet request
//     (NewTraceID) and stamps it on every job. The ID travels as the
//     X-Spinwave-Trace HTTP header on fleet calls, as a "trace" field on
//     fleet journal events, through evaluation contexts (WithTrace /
//     Trace), and into checkpoint manifests — so one key threads a job
//     from submit through requeue to its resume on a peer node.
//
//   - Shipping: each worker attaches a Shipper (ship.go) to its process
//     journal. The shipper buffers events, stamps the node name and the
//     current trace, and batch-forwards them to the coordinator's
//     POST /v1/fleet/journal endpoint in the background — never blocking
//     the solver, never exerting backpressure on journal delivery.
//
//   - The durable fleet journal: the coordinator's Store (store.go)
//     merges shipped batches into one append-only JSONL file per trace
//     with deterministic per-node sequence ordering, serves live
//     subscriptions for the NDJSON tail, and renders the merged
//     multi-node timeline as a Chrome trace (trace.go).
//
// The package depends only on internal/journal, internal/obs,
// internal/durable and the standard library, so both sides of the fleet
// (and the tools) can import it without cycles.
package obsplane

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"spinwave/internal/journal"
)

// TraceHeader is the HTTP header carrying the fleet trace ID on every
// fleet call: workers send their current trace on claim/heartbeat/
// results posts, and the coordinator answers a claim with the claimed
// job's trace.
const TraceHeader = "X-Spinwave-Trace"

// CoordinatorNode is the node name the coordinator's own journal events
// are merged under in the fleet journal — claims, requeues and request
// lifecycle appear beside the workers' shipped events.
const CoordinatorNode = "coordinator"

// NewTraceID returns a fresh 16-hex-digit fleet trace identifier ("t"
// prefix), unique across processes (crypto/rand backed, counter
// fallback — the same scheme as journal.NewRunID).
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("t%016x", traceIDFallback.Add(1))
	}
	return "t" + hex.EncodeToString(b[:])
}

var traceIDFallback atomic.Uint64

// ValidID reports whether s is safe as a trace or node identifier and
// as a file-name stem: 1-64 characters of [a-zA-Z0-9._-], not starting
// with a dot (the same rule the fleet applies to job and worker IDs —
// trace IDs name journal files, so the check is a path-traversal guard,
// not a formality).
func ValidID(s string) bool {
	if len(s) == 0 || len(s) > 64 || s[0] == '.' {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// ctxKey is the private context key carrying the fleet trace ID.
type ctxKey struct{}

// WithTrace returns a context carrying the fleet trace ID, so layers
// below the fleet worker (the transient segment runner, the checkpoint
// writer) stamp the same ID the coordinator minted.
func WithTrace(ctx context.Context, trace string) context.Context {
	return context.WithValue(ctx, ctxKey{}, trace)
}

// Trace returns the fleet trace ID carried by ctx, or "".
func Trace(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	t, _ := ctx.Value(ctxKey{}).(string)
	return t
}

// ShippedEvent is one journal event annotated with its origin: the node
// that emitted it and the fleet trace it belongs to. The embedded event
// keeps its original sequence number, so ordering within one node is
// the node's own emission order — the invariant the merged journal (and
// journalcheck -fleet) pin per node rather than globally.
type ShippedEvent struct {
	// Node is the emitting node's name (the fleet worker ID, or
	// CoordinatorNode for the coordinator's own events).
	Node string `json:"node"`
	// Trace is the fleet trace ID the event belongs to.
	Trace string `json:"trace,omitempty"`
	journal.Event
}

// MarshalJSONL renders the shipped event as one JSON line (no trailing
// newline), shadowing the embedded event's marshaller so the node and
// trace annotations survive — the line format of the store's files and
// of the coordinator's NDJSON tail. An unencodable payload degrades to
// a describing line (the WriterSink contract): never a lost sequence
// number.
func (se ShippedEvent) MarshalJSONL() []byte {
	line, err := json.Marshal(se)
	if err != nil {
		se.Fields = map[string]any{"marshal_error": err.Error()}
		line, _ = json.Marshal(se)
	}
	return line
}

// ShipRequest is the wire body of POST /v1/fleet/journal: one batch of
// journal events forwarded by a worker. Events missing their own Node
// inherit the batch's.
type ShipRequest struct {
	Node   string         `json:"node"`
	Events []ShippedEvent `json:"events"`
}

// ShipResponse acknowledges a shipped batch: how many events were
// merged and how many were dropped as duplicates (a retried batch
// re-sending sequence numbers the store already holds) or as
// untraceable (no trace ID to file them under).
type ShipResponse struct {
	Accepted   int `json:"accepted"`
	Duplicates int `json:"duplicates,omitempty"`
	Untraced   int `json:"untraced,omitempty"`
}
