package obsplane

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"spinwave/internal/durable"
	"spinwave/internal/journal"
)

// Store is the coordinator-side durable fleet journal: one append-only
// JSONL file per trace holding every node's shipped events. Ingestion
// is idempotent per (node, seq) — a retried batch re-sending sequence
// numbers the store already holds is dropped, so the per-node sequence
// in a stored file is strictly increasing, which is the ordering
// invariant journalcheck -fleet validates and Events' merge leans on.
//
// Append never emits journal events itself: it is called from inside
// journal sink delivery (the coordinator mirrors its own trace-stamped
// events into the store), where an Emit would deadlock on the journal
// mutex. The HTTP handler that ingests worker batches emits the
// fleet.journal_shipped receipt after Append returns.
//
// Accepted events are published on the store's journal.Hub, keyed by
// trace, which feeds the fleet tail. A Store is safe for concurrent
// use; no journal or queue lock is ever taken under its mutex, only the
// hub's leaf mutex.
type Store struct {
	dir string

	mu      sync.Mutex
	lastSeq map[string]map[string]uint64 // trace → node → highest stored seq
	logs    map[string]*durable.Log      // trace files already scanned
	removed map[string]bool              // traces Remove deleted since open
	hub     *journal.Hub[ShippedEvent]
	shipped int64 // events accepted since open
}

// OpenStore opens (creating if needed) the fleet journal directory.
// Existing trace files are not scanned eagerly — each trace's per-node
// sequence watermark is rebuilt lazily on its first Append after a
// restart, so a directory with thousands of finished traces costs
// nothing at boot.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("obsplane: store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obsplane: store: %w", err)
	}
	return &Store{
		dir:     dir,
		lastSeq: make(map[string]map[string]uint64),
		logs:    make(map[string]*durable.Log),
		removed: make(map[string]bool),
		hub:     journal.NewHub[ShippedEvent](),
	}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// fileFor maps a trace ID to its journal file path.
func (s *Store) fileFor(trace string) string {
	return filepath.Join(s.dir, trace+".jsonl")
}

// Append merges one node's events into the trace's journal file,
// dropping events whose sequence number is not beyond the node's stored
// watermark (idempotent re-ship) and publishing the accepted ones to
// live subscribers. The write is one durable.Log append, so a crash
// tears at most the final line — which Events tolerates on read and the
// next Append steps past. The log is closed again after each append:
// retention deletes trace files, and a coordinator must not hold one
// descriptor per trace it has seen.
//
// Events for a trace that Remove deleted are dropped and acknowledged
// as not accepted: a worker's periodic journal flush can arrive after
// retention reclaimed the trace, and writing it would recreate the file
// the sweep just deleted.
func (s *Store) Append(trace, node string, events []journal.Event) (accepted int, err error) {
	if !ValidID(trace) {
		return 0, fmt.Errorf("obsplane: bad trace id %q", trace)
	}
	if !ValidID(node) {
		return 0, fmt.Errorf("obsplane: bad node id %q", node)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.removed[trace] {
		return 0, nil
	}
	log, err := s.logLocked(trace)
	if err != nil {
		return 0, err
	}
	nodes := s.lastSeq[trace]
	if nodes == nil {
		nodes = make(map[string]uint64)
		s.lastSeq[trace] = nodes
	}
	var buf []byte
	var fresh []ShippedEvent
	last := nodes[node]
	for _, e := range events {
		if e.Seq <= last {
			continue // duplicate from a retried batch
		}
		last = e.Seq
		se := ShippedEvent{Node: node, Trace: trace, Event: e}
		buf = append(buf, se.MarshalJSONL()...)
		buf = append(buf, '\n')
		fresh = append(fresh, se)
	}
	if len(fresh) == 0 {
		return 0, nil
	}
	_, err = log.Append(buf)
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("obsplane: store: %w", err)
	}
	nodes[node] = last
	s.shipped += int64(len(fresh))
	for _, se := range fresh {
		s.hub.Publish(trace, se)
	}
	return len(fresh), nil
}

// logLocked returns a trace's log, rebuilding its per-node sequence
// watermarks from the file on the first touch after a restart.
func (s *Store) logLocked(trace string) (*durable.Log, error) {
	if log := s.logs[trace]; log != nil {
		return log, nil
	}
	log := durable.NewLog(s.fileFor(trace))
	events, err := scanEvents(log)
	if err != nil {
		return nil, err
	}
	nodes := make(map[string]uint64)
	for _, e := range events {
		if e.Seq > nodes[e.Node] {
			nodes[e.Node] = e.Seq
		}
	}
	s.lastSeq[trace] = nodes
	s.logs[trace] = log
	return log, nil
}

// Events returns the trace's merged multi-node journal in the
// deterministic fleet order: each node's events stay in their own
// emission (sequence) order, and the node streams are interleaved by a
// k-way merge on (time, node) — so two reads of the same file, or a
// read on a rebuilt coordinator, produce the identical timeline.
func (s *Store) Events(trace string) ([]ShippedEvent, error) {
	if !ValidID(trace) {
		return nil, fmt.Errorf("obsplane: bad trace id %q", trace)
	}
	// A private Log: reads run without the store lock, so they must not
	// touch the torn-tail state Append relies on.
	raw, err := scanEvents(durable.NewLog(s.fileFor(trace)))
	if err != nil {
		return nil, err
	}
	return MergeEvents(raw), nil
}

// scanEvents parses one trace journal file, skipping a torn final line
// (a crash mid-append) and foreign lines. A missing file is an empty
// trace.
func scanEvents(log *durable.Log) ([]ShippedEvent, error) {
	var out []ShippedEvent
	err := log.Scan(func(_ int64, line []byte) {
		var se ShippedEvent
		if json.Unmarshal(line, &se) == nil {
			out = append(out, se)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("obsplane: store: %w", err)
	}
	return out, nil
}

// MergeEvents orders a multi-node event set deterministically: per-node
// subsequences sorted by sequence number, interleaved by a k-way merge
// choosing the head with the earliest timestamp (ties broken by node
// name, then sequence). Sorting by time alone could reorder one node's
// events under a wall-clock step; this merge cannot — per-node sequence
// order is structural, not temporal.
func MergeEvents(events []ShippedEvent) []ShippedEvent {
	byNode := make(map[string][]ShippedEvent)
	var nodes []string
	for _, e := range events {
		if _, ok := byNode[e.Node]; !ok {
			nodes = append(nodes, e.Node)
		}
		byNode[e.Node] = append(byNode[e.Node], e)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		evs := byNode[n]
		sort.SliceStable(evs, func(a, b int) bool { return evs[a].Seq < evs[b].Seq })
	}
	heads := make(map[string]int, len(nodes))
	out := make([]ShippedEvent, 0, len(events))
	for len(out) < len(events) {
		best := ""
		for _, n := range nodes {
			if heads[n] >= len(byNode[n]) {
				continue
			}
			if best == "" {
				best = n
				continue
			}
			a, b := byNode[n][heads[n]], byNode[best][heads[best]]
			if a.TimeNS < b.TimeNS || (a.TimeNS == b.TimeNS && n < best) {
				best = n
			}
		}
		out = append(out, byNode[best][heads[best]])
		heads[best]++
	}
	return out
}

// Subscribe registers a live tail on one trace with the given channel
// buffer (clamped to ≥1): every event accepted by Append after this
// call is delivered, dropping (counted) on a full buffer, under
// journal.Hub's contract. Cancel is idempotent.
func (s *Store) Subscribe(trace string, buffer int) (events <-chan ShippedEvent, dropped func() int64, cancel func()) {
	return s.hub.Subscribe(trace, buffer)
}

// RemovedEventName is the synthetic terminal event a live subscriber
// receives when the trace it is tailing is deleted by retention. It is
// never written to disk — it exists only on the wire, so a tail ends
// with an explicit "this journal is gone" marker instead of an error
// loop against a missing file.
const RemovedEventName = "retention.removed"

// Remove deletes one trace's journal file and ends its live tails
// cleanly: every subscriber on the trace receives a synthetic
// RemovedEventName event (sequenced past the trace's highest stored
// coordinator sequence so per-node dedup cannot drop it) and then its
// channel is closed. Returns the bytes freed. Removing an absent trace
// is a no-op. Later appends to a removed trace are dropped (see Append).
// This is the retention engine's only path into the store —
// deleting the file behind the store's back would leave stale sequence
// watermarks and error-looping tails.
func (s *Store) Remove(trace string) (int64, error) {
	if !ValidID(trace) {
		return 0, fmt.Errorf("obsplane: bad trace id %q", trace)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Load the watermarks before deleting so the terminal event's
	// sequence number lands beyond everything a subscriber has seen.
	if _, err := s.logLocked(trace); err != nil {
		return 0, err
	}
	var maxSeq uint64
	for _, seq := range s.lastSeq[trace] {
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	path := s.fileFor(trace)
	var size int64
	if fi, err := os.Stat(path); err == nil {
		size = fi.Size()
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return 0, fmt.Errorf("obsplane: store remove: %w", err)
	}
	delete(s.lastSeq, trace)
	delete(s.logs, trace)
	s.removed[trace] = true
	s.hub.End(trace, ShippedEvent{Node: CoordinatorNode, Trace: trace, Event: journal.Event{
		Seq:    maxSeq + 1,
		TimeNS: time.Now().UnixNano(),
		Name:   RemovedEventName,
	}})
	return size, nil
}

// Created returns when a trace was created: the emission time of the
// first event stored in its file. Unlike the file's modification time
// it does not move when a late event is appended, so retention can rank
// traces by the age of the request they record.
func (s *Store) Created(trace string) (time.Time, error) {
	if !ValidID(trace) {
		return time.Time{}, fmt.Errorf("obsplane: bad trace id %q", trace)
	}
	f, err := os.Open(s.fileFor(trace))
	if err != nil {
		return time.Time{}, fmt.Errorf("obsplane: store: %w", err)
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadBytes('\n')
	if err != nil {
		return time.Time{}, fmt.Errorf("obsplane: store: first event of %s: %w", trace, err)
	}
	var first struct {
		TimeNS int64 `json:"time_ns"`
	}
	if err := json.Unmarshal(line, &first); err != nil {
		return time.Time{}, fmt.Errorf("obsplane: store: first event of %s: %w", trace, err)
	}
	if first.TimeNS <= 0 {
		return time.Time{}, fmt.Errorf("obsplane: store: first event of %s has no time", trace)
	}
	return time.Unix(0, first.TimeNS), nil
}

// Traces lists the trace IDs with stored journals, sorted.
func (s *Store) Traces() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("obsplane: store list: %w", err)
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".jsonl") || strings.HasPrefix(name, ".") {
			continue
		}
		out = append(out, strings.TrimSuffix(name, ".jsonl"))
	}
	sort.Strings(out)
	return out, nil
}

// Shipped returns how many events were accepted since the store opened.
func (s *Store) Shipped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shipped
}

// Subscribers returns the number of live tail subscriptions.
func (s *Store) Subscribers() int { return s.hub.Subscribers() }

// WritableProbe verifies the journal directory still accepts writes —
// surfaced by swserve's deep health check beside the queue's probe.
func (s *Store) WritableProbe() error {
	if err := durable.Probe(s.dir); err != nil {
		return fmt.Errorf("obsplane: journal dir not writable: %w", err)
	}
	return nil
}
