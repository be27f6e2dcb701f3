package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"spinwave/internal/detect"
	"spinwave/internal/durable"
)

// DiskStore is the persistent tier of the result store: one JSON file
// per cached case, named by the hash of the eval key (canonical backend
// fingerprint + input bits). It is corruption-tolerant by construction —
// a truncated, garbled or foreign file is a miss, never an error that
// takes the serving path down — and writes are atomic
// (durable.AtomicWrite), so a crash mid-write can never leave a
// half-entry that a later Get would trust.
//
// The store deliberately holds no in-memory state beyond its directory:
// the engine's LRU is the fast tier, the disk is the durable one, and
// startup warming (Engine.warmFromDisk) moves disk entries back into
// memory after a restart.
type DiskStore struct {
	dir string
}

// diskEntryVersion guards the on-disk schema; bump it when the entry
// layout changes and old files silently become misses.
const diskEntryVersion = 1

// diskEntry is the JSON document of one persisted case readout.
type diskEntry struct {
	Version     int                       `json:"version"`
	Key         string                    `json:"key"`
	SavedUnixNS int64                     `json:"saved_unix_ns"`
	Readouts    map[string]detect.Readout `json:"readouts"`
}

// OpenDiskStore opens (creating if needed) a disk-backed result store
// rooted at dir.
func OpenDiskStore(dir string) (*DiskStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("engine: disk store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: disk store: %w", err)
	}
	return &DiskStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (d *DiskStore) Dir() string { return d.dir }

// fileFor maps an eval key to its entry path. Keys are hashed so
// arbitrary fingerprint content can never escape the directory or
// exceed filename limits.
func (d *DiskStore) fileFor(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(d.dir, hex.EncodeToString(sum[:16])+".json")
}

// Get loads the persisted readouts for key. Any defect — missing file,
// unreadable file, malformed JSON, version or key mismatch, empty
// payload — reports a miss (ok = false); corruption is contained here
// and the caller simply falls through to the next tier.
func (d *DiskStore) Get(key string) (map[string]detect.Readout, bool) {
	buf, err := os.ReadFile(d.fileFor(key))
	if err != nil {
		return nil, false
	}
	var e diskEntry
	if err := json.Unmarshal(buf, &e); err != nil {
		return nil, false
	}
	if e.Version != diskEntryVersion || e.Key != key || len(e.Readouts) == 0 {
		return nil, false
	}
	return e.Readouts, true
}

// Put persists the readouts for key atomically (durable.WriteFile), so
// readers only ever observe complete entries.
func (d *DiskStore) Put(key string, out map[string]detect.Readout) error {
	e := diskEntry{
		Version:     diskEntryVersion,
		Key:         key,
		SavedUnixNS: time.Now().UnixNano(),
		Readouts:    out,
	}
	buf, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("engine: disk store marshal: %w", err)
	}
	if err := durable.WriteFile(d.fileFor(key), buf); err != nil {
		return fmt.Errorf("engine: disk store: %w", err)
	}
	return nil
}

// Len counts the valid-looking entries on disk (by filename; contents
// are only validated on Get).
func (d *DiskStore) Len() int {
	n := 0
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			n++
		}
	}
	return n
}

// Each visits every readable, well-formed entry (corrupt files are
// skipped), stopping early when f returns false. Used for startup cache
// warming.
func (d *DiskStore) Each(f func(key string, out map[string]detect.Readout) bool) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	for _, de := range entries {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".json") {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(d.dir, de.Name()))
		if err != nil {
			continue
		}
		var e diskEntry
		if err := json.Unmarshal(buf, &e); err != nil {
			continue
		}
		if e.Version != diskEntryVersion || e.Key == "" || len(e.Readouts) == 0 {
			continue
		}
		if !f(e.Key, e.Readouts) {
			return
		}
	}
}
