package runhistory

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"spinwave/internal/durable"
	"spinwave/internal/journal"
)

// TraceStore is the obsplane store surface the sweeper uses: traces
// are removed through the store (never by unlinking behind its back)
// so live tails end with a clean terminal event.
type TraceStore interface {
	// Dir returns the directory holding the per-trace journal files.
	Dir() string
	// Remove deletes one trace and returns the bytes freed.
	Remove(trace string) (int64, error)
	// Created returns when the trace was created.
	Created(trace string) (time.Time, error)
}

// GC is the retention sweeper: each sweep keeps the newest MaxTraces
// fleet-journal traces of Traces and removes the rest (ClassTrace).
// Configure the public fields before the first Sweep.
type GC struct {
	// MaxTraces keeps at most this many traces, newest first; zero
	// keeps them all.
	MaxTraces int
	// Traces is the fleet-journal store to sweep; nil skips the sweep.
	Traces TraceStore
	// Protected, when set, is called once per sweep and returns the
	// traces that must not be touched — the coordinator wires it to its
	// in-flight request set so retention never races an active request.
	Protected func() map[string]bool

	mu      sync.Mutex
	last    SweepResult
	lastAt  time.Time
	lastErr error
	sweeps  int64
}

// SweepResult summarizes one GC sweep.
type SweepResult struct {
	// Examined is how many traces the store listing produced.
	Examined int
	// Deleted is how many traces were removed.
	Deleted int
	// BytesReclaimed is the bytes the removals freed.
	BytesReclaimed int64
	// SkippedQuarantined counts quarantined trace files, which
	// retention never deletes: quarantine means "an operator should look
	// at this".
	SkippedQuarantined int
	// SkippedProtected counts traces over the cap left in place because
	// the Protected hook claimed them (active fleet requests).
	SkippedProtected int
	// DurationNS is the sweep's wall-clock cost.
	DurationNS int64
}

// traceItem is one trace the sweep may remove.
type traceItem struct {
	trace   string
	size    int64
	created time.Time
}

// Sweep applies the trace cap once. Per-trace failures are collected
// and joined into the returned error while the sweep continues — one
// unremovable file must not shield everything behind it. Every removal
// is journaled as a retention.gc event with the bytes reclaimed; the
// event carries the trace in an "id" field, never a "trace" field — the
// coordinator mirror files any trace-stamped journal event back into
// the trace's store file, which would resurrect the file this sweep
// just deleted.
func (g *GC) Sweep() (SweepResult, error) {
	initMetrics()
	start := time.Now()
	var res SweepResult
	var err error
	if g.Traces != nil && g.MaxTraces > 0 {
		err = g.sweepTraces(&res)
	}
	res.DurationNS = time.Since(start).Nanoseconds()
	mSweeps.Inc()
	if err != nil {
		mSweepErrs.Inc()
	}
	g.mu.Lock()
	g.last, g.lastAt, g.lastErr = res, time.Now(), err
	g.sweeps++
	g.mu.Unlock()
	return res, err
}

// sweepTraces ranks the store's traces newest first and removes those
// past the cap. Traces are ranked by creation, not by the file's last
// write: a late event appended to an older request's trace must not
// make it outrank a newer request's. A trace whose creation time is
// unreadable (a torn first line) falls back to its modification time.
func (g *GC) sweepTraces(res *SweepResult) error {
	dir := g.Traces.Dir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("runhistory: list traces: %w", err)
	}
	var items []traceItem
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || strings.HasPrefix(name, ".") {
			continue
		}
		if strings.HasSuffix(name, durable.QuarantineSuffix) {
			res.SkippedQuarantined++
			mSkippedQ.Inc()
			continue
		}
		if !strings.HasSuffix(name, ".jsonl") {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		trace := strings.TrimSuffix(name, ".jsonl")
		created, err := g.Traces.Created(trace)
		if err != nil {
			created = fi.ModTime()
		}
		items = append(items, traceItem{trace: trace, size: fi.Size(), created: created})
	}
	res.Examined = len(items)
	if len(items) <= g.MaxTraces {
		return nil
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].created.After(items[j].created) })

	var protected map[string]bool
	if g.Protected != nil {
		protected = g.Protected()
	}
	jd := journal.Default()
	var errs []error
	for _, it := range items[g.MaxTraces:] {
		if protected[it.trace] {
			res.SkippedProtected++
			continue
		}
		bytes := it.size
		freed, err := g.Traces.Remove(it.trace)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s %s: %w", ClassTrace, it.trace, err))
			continue
		}
		if freed > 0 {
			bytes = freed
		}
		mDeleted(ClassTrace).Inc()
		mReclaimed(ClassTrace).Add(bytes)
		res.Deleted++
		res.BytesReclaimed += bytes
		if jd.Enabled() {
			jd.Emit("", "retention.gc",
				journal.F("class", string(ClassTrace)),
				journal.F("id", it.trace),
				journal.F("bytes", bytes),
				journal.F("reason", "count"))
		}
	}
	return errors.Join(errs...)
}

// LastSweep returns the most recent sweep's result, completion time,
// error, and the total sweep count — the deep-healthz view.
func (g *GC) LastSweep() (res SweepResult, at time.Time, err error, sweeps int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.last, g.lastAt, g.lastErr, g.sweeps
}

// Run sweeps on a ticker until ctx is cancelled — the periodic GC
// goroutine swserve starts. Sweep errors are journaled, not fatal.
func (g *GC) Run(ctx context.Context, every time.Duration) {
	if every <= 0 {
		every = time.Minute
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if _, err := g.Sweep(); err != nil {
				if jd := journal.Default(); jd.Enabled() {
					jd.Emit("", "retention.error", journal.F("error", err.Error()))
				}
			}
		}
	}
}
