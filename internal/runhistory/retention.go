package runhistory

import (
	"context"
	"errors"
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

// ClassPolicy caps one retention class. Zero-valued fields disable
// their cap; a fully zero policy disables the class entirely.
type ClassPolicy struct {
	// MaxAge expires items whose newest write is older than this.
	MaxAge time.Duration
	// MaxCount keeps at most this many items, newest first.
	MaxCount int
	// MaxBytes keeps the newest items whose cumulative size fits.
	MaxBytes int64
}

// Active reports whether any cap is set.
func (p ClassPolicy) Active() bool {
	return p.MaxAge > 0 || p.MaxCount > 0 || p.MaxBytes > 0
}

// Policy is the full retention configuration one GC sweeps under.
type Policy struct {
	// Traces caps the per-trace fleet-journal files (ClassTrace).
	Traces ClassPolicy
	// Checkpoints caps checkpoint pairs per run (ClassCheckpoint). The
	// newest pair of a run always survives — it is the resume point.
	Checkpoints ClassPolicy
	// ProbeCSV caps probe time-series CSVs per run (ClassProbeCSV).
	ProbeCSV ClassPolicy
	// Artifacts caps whole run-artifact directories (ClassArtifact).
	Artifacts ClassPolicy
	// HistoryMaxRecords compacts the catalog down to this many records
	// (0 = never compact). The catalog is compacted, never deleted.
	HistoryMaxRecords int
	// DryRun journals and reports what a sweep would delete without
	// deleting anything.
	DryRun bool
}

// Active reports whether the policy would ever delete or compact.
func (p Policy) Active() bool {
	return p.Traces.Active() || p.Checkpoints.Active() ||
		p.ProbeCSV.Active() || p.Artifacts.Active() || p.HistoryMaxRecords > 0
}

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

// GC is the policy-driven retention sweeper. Configure the public
// fields before the first Sweep; a nil/empty data source skips its
// classes.
type GC struct {
	// Policy is the retention configuration applied by each sweep.
	Policy Policy
	// Traces is the fleet-journal store to sweep (nil skips ClassTrace).
	Traces TraceStore
	// ArtifactRoot is the run-artifact store root to sweep ("" skips
	// the checkpoint, probe-csv and artifact classes).
	ArtifactRoot string
	// Catalog, when set, is compacted under HistoryMaxRecords.
	Catalog *Catalog
	// Protected, when set, is called once per sweep and returns the
	// fleet traces and runs that must not be touched — the coordinator
	// wires it to its in-flight request set so retention never races an
	// active request.
	Protected func() (traces map[string]bool, runs map[string]bool)

	mu      sync.Mutex
	last    SweepResult
	lastAt  time.Time
	lastErr error
	sweeps  int64
}

// ClassResult is one class's share of a sweep.
type ClassResult struct {
	// Examined is how many items the class listing produced.
	Examined int `json:"examined"`
	// Deleted is how many items were deleted (or, in dry-run, would
	// have been).
	Deleted int `json:"deleted"`
	// BytesReclaimed is the bytes freed (or, in dry-run, reclaimable).
	BytesReclaimed int64 `json:"bytes_reclaimed"`
	// SkippedQuarantined counts expired items left in place because
	// quarantined data was present.
	SkippedQuarantined int `json:"skipped_quarantined,omitempty"`
	// SkippedProtected counts expired items left in place because the
	// Protected hook claimed them (active fleet requests).
	SkippedProtected int `json:"skipped_protected,omitempty"`
}

// SweepResult summarizes one GC sweep.
type SweepResult struct {
	// Classes maps each swept class to its outcome.
	Classes map[Class]ClassResult `json:"classes"`
	// DryRun records whether the sweep deleted or only reported.
	DryRun bool `json:"dry_run,omitempty"`
	// DurationNS is the sweep's wall-clock cost.
	DurationNS int64 `json:"duration_ns"`
}

// Deleted sums deletions across classes.
func (r SweepResult) Deleted() int {
	n := 0
	for _, c := range r.Classes {
		n += c.Deleted
	}
	return n
}

// BytesReclaimed sums reclaimed bytes across classes.
func (r SweepResult) BytesReclaimed() int64 {
	var n int64
	for _, c := range r.Classes {
		n += c.BytesReclaimed
	}
	return n
}

// item is one retention candidate within a class.
type item struct {
	id     string // class-scoped identity (trace, run, run/file)
	size   int64
	mod    time.Time             // ranking and age key (creation time for traces)
	remove func() (int64, error) // deletes the item, returns bytes freed
}

// doomed is an item the policy expired, with the cap that expired it.
type doomed struct {
	item
	reason string // "age", "count" or "bytes"
}

// expire applies a ClassPolicy to a candidate set: newest first, an
// item survives unless it is over age, past the count cap, or past the
// cumulative byte cap.
func expire(items []item, p ClassPolicy, now time.Time) []doomed {
	sort.SliceStable(items, func(i, j int) bool { return items[i].mod.After(items[j].mod) })
	var out []doomed
	kept := 0
	var keptBytes int64
	for _, it := range items {
		switch {
		case p.MaxAge > 0 && now.Sub(it.mod) > p.MaxAge:
			out = append(out, doomed{item: it, reason: "age"})
		case p.MaxCount > 0 && kept >= p.MaxCount:
			out = append(out, doomed{item: it, reason: "count"})
		case p.MaxBytes > 0 && keptBytes+it.size > p.MaxBytes:
			out = append(out, doomed{item: it, reason: "bytes"})
		default:
			kept++
			keptBytes += it.size
		}
	}
	return out
}

// Sweep applies the policy once. Per-item failures are collected and
// joined into the returned error while the sweep continues — one
// unremovable file must not shield everything behind it.
func (g *GC) Sweep(now time.Time) (SweepResult, error) {
	initMetrics()
	start := time.Now()
	res := SweepResult{Classes: make(map[Class]ClassResult), DryRun: g.Policy.DryRun}
	var errs []error

	var protTraces, protRuns map[string]bool
	if g.Protected != nil {
		protTraces, protRuns = g.Protected()
	}

	if g.Traces != nil && g.Policy.Traces.Active() {
		cr, err := g.sweepTraces(now, protTraces)
		res.Classes[ClassTrace] = cr
		if err != nil {
			errs = append(errs, err)
		}
	}
	if g.ArtifactRoot != "" {
		if g.Policy.Checkpoints.Active() {
			cr, err := g.sweepRunFiles(ClassCheckpoint, g.Policy.Checkpoints, now, protRuns)
			res.Classes[ClassCheckpoint] = cr
			if err != nil {
				errs = append(errs, err)
			}
		}
		if g.Policy.ProbeCSV.Active() {
			cr, err := g.sweepRunFiles(ClassProbeCSV, g.Policy.ProbeCSV, now, protRuns)
			res.Classes[ClassProbeCSV] = cr
			if err != nil {
				errs = append(errs, err)
			}
		}
		if g.Policy.Artifacts.Active() {
			cr, err := g.sweepRunDirs(now, protRuns)
			res.Classes[ClassArtifact] = cr
			if err != nil {
				errs = append(errs, err)
			}
		}
	}
	if g.Catalog != nil && g.Policy.HistoryMaxRecords > 0 {
		cr, err := g.compactCatalog()
		res.Classes[ClassHistory] = cr
		if err != nil {
			errs = append(errs, err)
		}
	}

	res.DurationNS = time.Since(start).Nanoseconds()
	err := errors.Join(errs...)
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
			if _, err := g.Sweep(time.Now()); err != nil {
				if jd := journal.Default(); jd.Enabled() {
					jd.Emit("", "retention.error", journal.F("error", err.Error()))
				}
			}
		}
	}
}

// reap deletes (or dry-runs) one class's doomed items, journaling every
// deletion as a retention.gc event with the bytes reclaimed. The event
// deliberately carries the item identity in an "id" field, never a
// "trace" field — the coordinator mirror files any trace-stamped
// journal event back into the trace's store file, which would resurrect
// the file this sweep just deleted.
func (g *GC) reap(class Class, victims []doomed, cr *ClassResult) error {
	jd := journal.Default()
	var errs []error
	for _, d := range victims {
		bytes := d.size
		if !g.Policy.DryRun {
			freed, err := d.remove()
			if err != nil {
				errs = append(errs, fmt.Errorf("%s %s: %w", class, d.id, err))
				continue
			}
			if freed > 0 {
				bytes = freed
			}
			mDeleted(class).Inc()
			mReclaimed(class).Add(bytes)
		}
		cr.Deleted++
		cr.BytesReclaimed += bytes
		if jd.Enabled() {
			jd.Emit("", "retention.gc",
				journal.F("class", string(class)),
				journal.F("id", d.id),
				journal.F("bytes", bytes),
				journal.F("reason", d.reason),
				journal.F("dry_run", g.Policy.DryRun))
		}
	}
	return errors.Join(errs...)
}

// sweepTraces applies the trace policy to the fleet-journal store.
// Traces are ranked and aged by creation, not by the file's last write:
// a late event appended to an older request's trace must not make it
// outrank a newer request's. A trace whose creation time is unreadable
// (a torn first line) falls back to its modification time.
func (g *GC) sweepTraces(now time.Time, protected map[string]bool) (ClassResult, error) {
	var cr ClassResult
	dir := g.Traces.Dir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return cr, fmt.Errorf("runhistory: list traces: %w", err)
	}
	var items []item
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || strings.HasPrefix(name, ".") {
			continue
		}
		if strings.HasSuffix(name, durable.QuarantineSuffix) {
			cr.SkippedQuarantined++
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
		items = append(items, item{
			id:   trace,
			size: fi.Size(),
			mod:  created,
			remove: func() (int64, error) {
				return g.Traces.Remove(trace)
			},
		})
	}
	cr.Examined = len(items)
	victims := expire(items, g.Policy.Traces, now)
	victims = dropProtected(victims, protected, &cr)
	err = g.reap(ClassTrace, victims, &cr)
	return cr, err
}

// dropProtected filters out victims whose id (or leading run segment,
// for "run/file" ids) is protected by the coordinator.
func dropProtected(victims []doomed, protected map[string]bool, cr *ClassResult) []doomed {
	if len(protected) == 0 {
		return victims
	}
	out := victims[:0]
	for _, d := range victims {
		id := d.id
		if i := strings.IndexByte(id, '/'); i > 0 {
			id = id[:i]
		}
		if protected[id] {
			cr.SkippedProtected++
			continue
		}
		out = append(out, d)
	}
	return out
}

// runDirs lists the run directories under the artifact root.
func (g *GC) runDirs() ([]os.DirEntry, error) {
	entries, err := os.ReadDir(g.ArtifactRoot)
	if err != nil {
		return nil, fmt.Errorf("runhistory: list artifact root: %w", err)
	}
	dirs := entries[:0]
	for _, e := range entries {
		if e.IsDir() && !strings.HasPrefix(e.Name(), ".") {
			dirs = append(dirs, e)
		}
	}
	return dirs, nil
}

// sweepRunFiles applies a per-run file policy: checkpoint pairs
// (ClassCheckpoint, always keeping each run's newest pair — it is the
// resume point) or probe CSVs (ClassProbeCSV). The policy's count and
// byte caps are per run, which is the operator-meaningful unit ("keep
// the last N checkpoints of every run").
func (g *GC) sweepRunFiles(class Class, p ClassPolicy, now time.Time, protected map[string]bool) (ClassResult, error) {
	var cr ClassResult
	dirs, err := g.runDirs()
	if err != nil {
		return cr, err
	}
	var errs []error
	for _, d := range dirs {
		run := d.Name()
		dir := filepath.Join(g.ArtifactRoot, run)
		var items []item
		switch class {
		case ClassCheckpoint:
			items = checkpointPairs(dir, run, &cr)
			// The newest pair is the resume point: exempt it from the
			// policy entirely so no cap can orphan a resumable run.
			if len(items) > 0 {
				sort.SliceStable(items, func(i, j int) bool { return items[i].mod.After(items[j].mod) })
				items = items[1:]
			}
		case ClassProbeCSV:
			items = runFiles(dir, run, ".csv", &cr)
		}
		cr.Examined += len(items)
		victims := expire(items, p, now)
		victims = dropProtected(victims, protected, &cr)
		if err := g.reap(class, victims, &cr); err != nil {
			errs = append(errs, err)
		}
	}
	return cr, errors.Join(errs...)
}

// runFiles lists one run directory's files with the given suffix as
// retention items (id "run/name"), counting quarantined siblings.
func runFiles(dir, run, suffix string, cr *ClassResult) []item {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var items []item
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || strings.HasPrefix(name, ".") {
			continue
		}
		if strings.HasSuffix(name, durable.QuarantineSuffix) {
			cr.SkippedQuarantined++
			mSkippedQ.Inc()
			continue
		}
		if !strings.HasSuffix(name, suffix) {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		path := filepath.Join(dir, name)
		items = append(items, item{
			id:   run + "/" + name,
			size: fi.Size(),
			mod:  fi.ModTime(),
			remove: func() (int64, error) {
				size := fi.Size()
				if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
					return 0, err
				}
				return size, nil
			},
		})
	}
	return items
}

// checkpointPairs groups one run's ck-*.json manifests with their OVF
// payloads into paired retention items (id "run/stem"). The manifest is
// deleted before the payload — the inverse of the save commit order —
// so a reader never observes a manifest whose payload is gone.
func checkpointPairs(dir, run string, cr *ClassResult) []item {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var items []item
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || strings.HasPrefix(name, ".") {
			continue
		}
		if strings.HasSuffix(name, durable.QuarantineSuffix) {
			cr.SkippedQuarantined++
			mSkippedQ.Inc()
			continue
		}
		if !strings.HasPrefix(name, "ck-") || !strings.HasSuffix(name, ".json") {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		stem := strings.TrimSuffix(name, ".json")
		manifest := filepath.Join(dir, name)
		payload := filepath.Join(dir, stem+".ovf")
		size := fi.Size()
		mod := fi.ModTime()
		if pfi, err := os.Stat(payload); err == nil {
			size += pfi.Size()
			if pfi.ModTime().After(mod) {
				mod = pfi.ModTime()
			}
		}
		items = append(items, item{
			id:   run + "/" + stem,
			size: size,
			mod:  mod,
			remove: func() (int64, error) {
				if err := os.Remove(manifest); err != nil && !os.IsNotExist(err) {
					return 0, err
				}
				if err := os.Remove(payload); err != nil && !os.IsNotExist(err) {
					return 0, err
				}
				return size, nil
			},
		})
	}
	return items
}

// sweepRunDirs applies the artifact policy to whole run directories. A
// directory holding any quarantined file is never deleted — quarantine
// means "an operator should look at this", and retention must not be
// the thing that makes it vanish.
func (g *GC) sweepRunDirs(now time.Time, protected map[string]bool) (ClassResult, error) {
	var cr ClassResult
	dirs, err := g.runDirs()
	if err != nil {
		return cr, err
	}
	var items []item
	for _, d := range dirs {
		run := d.Name()
		dir := filepath.Join(g.ArtifactRoot, run)
		size, mod, quarantined := dirStats(dir)
		if quarantined {
			cr.SkippedQuarantined++
			mSkippedQ.Inc()
			continue
		}
		items = append(items, item{
			id:   run,
			size: size,
			mod:  mod,
			remove: func() (int64, error) {
				if err := os.RemoveAll(dir); err != nil {
					return 0, err
				}
				return size, nil
			},
		})
	}
	cr.Examined = len(items)
	victims := expire(items, g.Policy.Artifacts, now)
	victims = dropProtected(victims, protected, &cr)
	err = g.reap(ClassArtifact, victims, &cr)
	return cr, err
}

// dirStats walks one run directory: total bytes, newest content mtime
// (so a run still being written to never looks expired), and whether
// any quarantined file is present.
func dirStats(dir string) (size int64, mod time.Time, quarantined bool) {
	if fi, err := os.Stat(dir); err == nil {
		mod = fi.ModTime()
	}
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if strings.HasSuffix(d.Name(), durable.QuarantineSuffix) {
			quarantined = true
		}
		if fi, err := d.Info(); err == nil {
			size += fi.Size()
			if fi.ModTime().After(mod) {
				mod = fi.ModTime()
			}
		}
		return nil
	})
	return size, mod, quarantined
}

// compactCatalog shrinks the catalog to the record cap, journaling the
// compaction as a retention.gc event on the history class.
func (g *GC) compactCatalog() (ClassResult, error) {
	var cr ClassResult
	cr.Examined = g.Catalog.Len()
	if g.Policy.DryRun {
		if over := cr.Examined - g.Policy.HistoryMaxRecords; over > 0 {
			cr.Deleted = over
			if jd := journal.Default(); jd.Enabled() {
				jd.Emit("", "retention.gc",
					journal.F("class", string(ClassHistory)),
					journal.F("id", CatalogFile),
					journal.F("bytes", int64(0)),
					journal.F("reason", "count"),
					journal.F("dry_run", true))
			}
		}
		return cr, nil
	}
	removed, bytes, err := g.Catalog.Compact(g.Policy.HistoryMaxRecords)
	if err != nil {
		return cr, err
	}
	if removed > 0 {
		cr.Deleted = removed
		cr.BytesReclaimed = bytes
		mDeleted(ClassHistory).Add(int64(removed))
		mReclaimed(ClassHistory).Add(bytes)
		if jd := journal.Default(); jd.Enabled() {
			jd.Emit("", "retention.gc",
				journal.F("class", string(ClassHistory)),
				journal.F("id", CatalogFile),
				journal.F("bytes", bytes),
				journal.F("reason", "count"),
				journal.F("dry_run", false))
		}
	}
	return cr, nil
}
