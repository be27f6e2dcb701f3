package engine

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"spinwave/internal/detect"
	"spinwave/internal/durable"
)

// storeFile is the name of the disk tier's segment inside its directory.
const storeFile = "store.jsonl"

// DiskStore is the persistent tier of the result store: one append-only
// JSONL segment (durable.Log) of entries, one line per persisted case,
// and an in-memory index from a 64-bit hash of the eval key (canonical
// backend fingerprint + input bits) to the offset and length of that
// key's newest line. A Get is one pread on the log's held handle, a Put
// one append; the last line for a key wins.
//
// It is corruption-tolerant by construction: every Get decodes its line
// and checks version, exact key and a non-empty payload, so a torn,
// garbled or foreign line — or two keys whose hashes collide — is a
// miss, never a wrong answer or an error that takes the serving path
// down. A crash tears at most the final line, which the next open skips
// and the next Put steps past.
//
// The engine's LRU is the fast tier, the disk the durable one, and
// startup warming (Engine.warmFromDisk) moves entries back into memory
// after a restart. One process owns a store directory at a time.
type DiskStore struct {
	dir  string
	seed maphash.Seed

	mu    sync.RWMutex
	log   *durable.Log
	index map[uint64]span
}

// span locates one entry line in the segment.
type span struct {
	off int64
	n   int
}

// diskEntryVersion guards the on-disk schema; bump it when the entry
// layout changes and old entries silently become misses. Version 1 was
// one file per entry; those files are never read.
const diskEntryVersion = 2

// diskEntry is the JSON document of one persisted case readout.
type diskEntry struct {
	Version     int                       `json:"version"`
	Key         string                    `json:"key"`
	SavedUnixNS int64                     `json:"saved_unix_ns"`
	Readouts    map[string]detect.Readout `json:"readouts"`
}

// decodeEntry parses one segment line, reporting false for anything a
// Get must not trust.
func decodeEntry(line []byte) (diskEntry, bool) {
	var e diskEntry
	if json.Unmarshal(line, &e) != nil || e.Version != diskEntryVersion || e.Key == "" || len(e.Readouts) == 0 {
		return diskEntry{}, false
	}
	return e, true
}

// OpenDiskStore opens (creating if needed) a disk-backed result store
// rooted at dir: it scans the segment once to build the index, and
// compacts it when superseded and unparseable lines outnumber live ones.
func OpenDiskStore(dir string) (*DiskStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("engine: disk store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: disk store: %w", err)
	}
	d := &DiskStore{
		dir:   dir,
		seed:  maphash.MakeSeed(),
		log:   durable.NewLog(filepath.Join(dir, storeFile)),
		index: make(map[uint64]span),
	}
	lines := 0
	err := d.log.Scan(func(off int64, line []byte) {
		lines++
		if e, ok := decodeEntry(line); ok {
			d.index[d.hash(e.Key)] = span{off, len(line)}
		}
	})
	if err == nil && lines-len(d.index) > len(d.index) {
		err = d.compact()
	}
	if err == nil {
		err = d.log.Open()
	}
	if err != nil {
		return nil, fmt.Errorf("engine: disk store: %w", err)
	}
	return d, nil
}

func (d *DiskStore) hash(key string) uint64 { return maphash.String(d.seed, key) }

// compact rewrites the segment with only the indexed lines, in
// their order, through durable.Log.Rewrite, and re-points the index at
// the new offsets. Callers hold d.mu or own d exclusively.
func (d *DiskStore) compact() error {
	live := make(map[int64]uint64, len(d.index))
	for h, s := range d.index {
		live[s.off] = h
	}
	next := make(map[uint64]span, len(d.index))
	err := d.log.Rewrite(func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		var pos int64
		err := d.log.Scan(func(off int64, line []byte) {
			if h, ok := live[off]; ok {
				next[h] = span{pos, len(line)}
				bw.Write(line)
				bw.WriteByte('\n')
				pos += int64(len(line)) + 1
			}
		})
		if err != nil {
			return err
		}
		return bw.Flush()
	})
	if err != nil {
		return err
	}
	d.index = next
	return nil
}

// Dir returns the store's root directory.
func (d *DiskStore) Dir() string { return d.dir }

// Get loads the persisted readouts for key. Any defect — no indexed
// line, a short read, malformed JSON, version or key mismatch, empty
// payload — reports a miss (ok = false); corruption is contained here
// and the caller simply falls through to the next tier.
func (d *DiskStore) Get(key string) (map[string]detect.Readout, bool) {
	h := d.hash(key)
	d.mu.RLock()
	s, ok := d.index[h]
	var line []byte
	var err error
	if ok {
		line, err = d.log.ReadAt(s.off, s.n)
	}
	d.mu.RUnlock()
	if !ok || err != nil {
		return nil, false
	}
	e, ok := decodeEntry(line)
	if !ok || e.Key != key {
		return nil, false
	}
	return e.Readouts, true
}

// Put appends the readouts for key as one line and points the index at
// it. A crash tears at most that line, which then reads as a miss.
func (d *DiskStore) Put(key string, out map[string]detect.Readout) error {
	line, err := json.Marshal(diskEntry{
		Version:     diskEntryVersion,
		Key:         key,
		SavedUnixNS: time.Now().UnixNano(),
		Readouts:    out,
	})
	if err != nil {
		return fmt.Errorf("engine: disk store marshal: %w", err)
	}
	h := d.hash(key)
	d.mu.Lock()
	defer d.mu.Unlock()
	off, err := d.log.Append(append(line, '\n'))
	if err != nil {
		return fmt.Errorf("engine: disk store: %w", err)
	}
	d.index[h] = span{off, len(line)}
	return nil
}

// Len returns the number of indexed entries.
func (d *DiskStore) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.index)
}

// Each visits every indexed entry that still reads back intact, in
// segment order, stopping early when f returns false. Used for startup
// cache warming; f may call back into the store.
func (d *DiskStore) Each(f func(key string, out map[string]detect.Readout) bool) {
	d.mu.RLock()
	spans := make([]span, 0, len(d.index))
	for _, s := range d.index {
		spans = append(spans, s)
	}
	d.mu.RUnlock()
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.off, b.off) })
	for _, s := range spans {
		d.mu.RLock()
		line, err := d.log.ReadAt(s.off, s.n)
		d.mu.RUnlock()
		if err != nil {
			continue
		}
		if e, ok := decodeEntry(line); ok && !f(e.Key, e.Readouts) {
			return
		}
	}
}
