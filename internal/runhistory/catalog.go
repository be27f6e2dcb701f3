package runhistory

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"spinwave/internal/durable"
	"spinwave/internal/journal"
)

// CatalogFile is the name of the JSONL catalog inside its directory.
const CatalogFile = "catalog.jsonl"

// Catalog is the durable run-history index: an append-only JSONL file
// (durable.Log) of Records, idempotent per record ID, tolerant of a torn
// final line after a crash. All methods are safe for concurrent use.
type Catalog struct {
	dir string

	mu  sync.Mutex
	log *durable.Log
	// seen holds a 64-bit hash of every indexed ID rather than the ID
	// itself, so the dedup set costs a few bytes per record however long
	// the IDs are. A hit is only a candidate duplicate: the exact ID is
	// confirmed in the pending batch or in the log before a record is
	// dropped, so a hash collision never loses a record (DESIGN.md §17).
	seen hashSet
	seed maphash.Seed
	n    int // distinct records indexed
	dups int64
}

// Open opens (creating if needed) the catalog in dir and scans any
// existing file to rebuild the per-ID dedup set. A torn final line —
// the signature of a crash mid-append — is skipped, never an error.
func Open(dir string) (*Catalog, error) {
	if dir == "" {
		return nil, fmt.Errorf("runhistory: empty catalog dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runhistory: open catalog: %w", err)
	}
	initMetrics()
	c := &Catalog{
		dir:  dir,
		log:  durable.NewLog(filepath.Join(dir, CatalogFile)),
		seed: maphash.MakeSeed(),
	}
	recs, err := c.load()
	if err != nil {
		return nil, err
	}
	c.index(recs)
	return c, nil
}

func (c *Catalog) hash(id string) uint64 { return maphash.String(c.seed, id) }

// index rebuilds the dedup set from recs, the catalog's whole content.
func (c *Catalog) index(recs []Record) {
	c.seen = hashSet{}
	c.n = 0
	for i, r := range recs {
		h := c.hash(r.ID)
		if !c.seen.has(h) {
			c.seen.add(h)
		} else if hasID(recs[:i], r.ID) {
			continue
		}
		c.n++
	}
}

func hasID(recs []Record, id string) bool {
	for _, r := range recs {
		if r.ID == id {
			return true
		}
	}
	return false
}

// logged reports whether the catalog file holds a record with this ID,
// by the same parse rule as load. Only called on a hash hit. Callers
// hold c.mu.
func (c *Catalog) logged(id string) (bool, error) {
	quoted, _ := json.Marshal(id)
	found := false
	err := c.log.Scan(func(_ int64, line []byte) {
		if found || !bytes.Contains(line, quoted) {
			return
		}
		var r Record
		found = json.Unmarshal(line, &r) == nil && r.ID == id
	})
	if err != nil {
		return false, fmt.Errorf("runhistory: read catalog: %w", err)
	}
	return found, nil
}

// Dir returns the catalog directory.
func (c *Catalog) Dir() string { return c.dir }

// Path returns the catalog file path.
func (c *Catalog) Path() string { return c.log.Path() }

// Len returns the number of distinct records indexed.
func (c *Catalog) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Duplicates returns how many appends were dropped as duplicate IDs.
func (c *Catalog) Duplicates() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dups
}

// Append indexes the given records, dropping any whose ID was already
// indexed (counted, not an error), stamping IndexedNS when unset, and
// writing all accepted records in one durable.Log append so a crash
// tears at most the final line. Each accepted record is
// journaled as a history.indexed event. Returns how many records were
// accepted.
func (c *Catalog) Append(recs ...Record) (int, error) {
	now := time.Now().UnixNano()
	var buf bytes.Buffer
	accepted := make([]Record, 0, len(recs))

	c.mu.Lock()
	// added lists the hashes this call put into the dedup set; a failed
	// call takes them out again, so a retry is not swallowed as a
	// duplicate of records that never reached the disk.
	var added []uint64
	fail := func(err error) (int, error) {
		for _, h := range added {
			c.seen.remove(h)
		}
		c.mu.Unlock()
		return 0, err
	}
	for _, r := range recs {
		if r.ID == "" || r.Kind == "" {
			return fail(fmt.Errorf("runhistory: record needs id and kind"))
		}
		h := c.hash(r.ID)
		hit := c.seen.has(h)
		if hit {
			dup := hasID(accepted, r.ID)
			if !dup {
				var err error
				if dup, err = c.logged(r.ID); err != nil {
					return fail(err)
				}
			}
			if dup {
				c.dups++
				mDuplicates.Inc()
				continue
			}
		}
		if r.IndexedNS == 0 {
			r.IndexedNS = now
		}
		line, err := json.Marshal(r)
		if err != nil {
			return fail(fmt.Errorf("runhistory: marshal record: %w", err))
		}
		buf.Write(line)
		buf.WriteByte('\n')
		if !hit {
			c.seen.add(h)
			added = append(added, h)
		}
		accepted = append(accepted, r)
	}
	if len(accepted) == 0 {
		c.mu.Unlock()
		return 0, nil
	}
	if _, err := c.log.Append(buf.Bytes()); err != nil {
		mErrors.Inc()
		return fail(fmt.Errorf("runhistory: %w", err))
	}
	c.n += len(accepted)
	c.mu.Unlock()

	for _, r := range accepted {
		mIndexed(r.Kind).Inc()
	}
	if jd := journal.Default(); jd.Enabled() {
		for _, r := range accepted {
			fields := []journal.Field{
				journal.F("id", r.ID),
				journal.F("kind", r.Kind),
			}
			if r.Trace != "" {
				fields = append(fields, journal.F("trace", r.Trace))
			}
			if r.Gate != "" {
				fields = append(fields, journal.F("gate", r.Gate))
			}
			if r.Tier != "" {
				fields = append(fields, journal.F("tier", r.Tier))
			}
			if r.Cases > 0 {
				fields = append(fields, journal.F("cases", r.Cases))
			}
			if n := len(r.Files); n > 0 {
				fields = append(fields, journal.F("files", n))
			}
			jd.Emit("", "history.indexed", fields...)
		}
	}
	return len(accepted), nil
}

// load reads every parseable record from the catalog file. Unparseable
// lines (a torn tail, a partial write) are skipped. Callers hold c.mu,
// or own c exclusively as Open does.
func (c *Catalog) load() ([]Record, error) {
	var recs []Record
	err := c.log.Scan(func(_ int64, line []byte) {
		var r Record
		if json.Unmarshal(line, &r) == nil && r.ID != "" {
			recs = append(recs, r)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("runhistory: read catalog: %w", err)
	}
	return recs, nil
}

// Records returns every indexed record, newest first by IndexedNS.
func (c *Catalog) Records() ([]Record, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	recs, err := c.load()
	if err != nil {
		return nil, err
	}
	sort.SliceStable(recs, func(i, j int) bool {
		return recs[i].IndexedNS > recs[j].IndexedNS
	})
	return recs, nil
}

// Filter selects records in a Query. Zero-valued fields match
// everything.
type Filter struct {
	// Gate matches Record.Gate exactly.
	Gate string
	// Verdict matches Record.Verdict exactly.
	Verdict string
	// Trace matches Record.Trace exactly.
	Trace string
	// Tier matches Record.Tier exactly.
	Tier string
	// Kind matches Record.Kind exactly.
	Kind string
	// SinceNS keeps records indexed at or after this Unix-nanosecond
	// time.
	SinceNS int64
	// Limit caps the result count (0 = unlimited), applied after the
	// newest-first sort.
	Limit int
}

func (f Filter) matches(r Record) bool {
	if f.Gate != "" && r.Gate != f.Gate {
		return false
	}
	if f.Verdict != "" && r.Verdict != f.Verdict {
		return false
	}
	if f.Trace != "" && r.Trace != f.Trace {
		return false
	}
	if f.Tier != "" && r.Tier != f.Tier {
		return false
	}
	if f.Kind != "" && r.Kind != f.Kind {
		return false
	}
	if f.SinceNS > 0 && r.IndexedNS < f.SinceNS {
		return false
	}
	return true
}

// Query returns the records matching f, newest first.
func (c *Catalog) Query(f Filter) ([]Record, error) {
	recs, err := c.Records()
	if err != nil {
		return nil, err
	}
	out := recs[:0]
	for _, r := range recs {
		if f.matches(r) {
			out = append(out, r)
		}
	}
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[:f.Limit]
	}
	return out, nil
}

// WritableProbe verifies the catalog directory accepts writes — the
// deep-healthz check backing the "catalog unwritable → 503" rule. It
// creates and removes a probe file without touching the catalog.
func (c *Catalog) WritableProbe() error {
	if err := durable.Probe(c.dir); err != nil {
		return fmt.Errorf("runhistory: catalog not writable: %w", err)
	}
	return nil
}
