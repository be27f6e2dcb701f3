package checkpoint

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"spinwave/internal/durable"
)

// ArtifactStore is the durable run-artifact store: one directory per run
// ID under a root, each holding named artifacts — checkpoint pairs,
// probe CSVs, journal tails, health verdicts. Files are committed by
// durable.AtomicWrite, like checkpoints and the fleet queue, so readers
// (swserve's GET /v1/runs/{id}/artifacts) never observe a torn
// artifact. An ArtifactStore is safe for concurrent use; concurrent Puts
// of the same name last-write-win atomically.
type ArtifactStore struct {
	root string
}

// ArtifactInfo describes one stored artifact.
type ArtifactInfo struct {
	// Name is the artifact file name.
	Name string `json:"name"`
	// Size is the artifact size in bytes.
	Size int64 `json:"size"`
	// ModifiedUnixNS is the last-modification time in Unix nanoseconds.
	ModifiedUnixNS int64 `json:"modified_unix_ns"`
}

// OpenArtifactStore opens (creating if needed) the store rooted at dir.
func OpenArtifactStore(dir string) (*ArtifactStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: artifact store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: artifact store: %w", err)
	}
	return &ArtifactStore{root: dir}, nil
}

// Root returns the store's root directory.
func (a *ArtifactStore) Root() string { return a.root }

// ValidArtifactName reports whether s is acceptable as a run ID or
// artifact name: a plain file name with no path separators and no
// leading dot. Both swserve's handlers and the store itself enforce it,
// so a crafted URL can never escape the store root.
func ValidArtifactName(s string) bool { return validName(s) }

// Put stores one artifact under run/name, replacing any previous
// content atomically, and returns the byte count written.
func (a *ArtifactStore) Put(run, name string, r io.Reader) (int64, error) {
	if !validName(run) || !validName(name) {
		return 0, fmt.Errorf("checkpoint: bad artifact path %q/%q", run, name)
	}
	dir := filepath.Join(a.root, run)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("checkpoint: artifact store: %w", err)
	}
	var n int64
	err := durable.AtomicWrite(filepath.Join(dir, name), func(w io.Writer) (err error) {
		n, err = io.Copy(w, r)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("checkpoint: artifact store: %w", err)
	}
	return n, nil
}

// PutFile stores the file at path as run/name.
func (a *ArtifactStore) PutFile(run, name, path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("checkpoint: artifact source: %w", err)
	}
	defer f.Close()
	return a.Put(run, name, f)
}

// Open returns a reader over run/name plus its size. A missing artifact
// reports os.ErrNotExist (callers map it to the 404 envelope).
func (a *ArtifactStore) Open(run, name string) (io.ReadCloser, int64, error) {
	if !validName(run) || !validName(name) {
		return nil, 0, fmt.Errorf("checkpoint: bad artifact path %q/%q: %w", run, name, os.ErrNotExist)
	}
	f, err := os.Open(filepath.Join(a.root, run, name))
	if err != nil {
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, fi.Size(), nil
}

// List returns the run's artifacts sorted by name. A run with no
// directory yet lists empty (the run may simply not have uploaded
// anything), not an error; an invalid run ID reports os.ErrNotExist.
func (a *ArtifactStore) List(run string) ([]ArtifactInfo, error) {
	if !validName(run) {
		return nil, fmt.Errorf("checkpoint: bad run ID %q: %w", run, os.ErrNotExist)
	}
	entries, err := os.ReadDir(filepath.Join(a.root, run))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: artifact list: %w", err)
	}
	var out []ArtifactInfo
	for _, e := range entries {
		name := e.Name()
		if !validName(name) || strings.HasSuffix(name, ".tmp") || e.IsDir() {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		out = append(out, ArtifactInfo{Name: name, Size: fi.Size(), ModifiedUnixNS: fi.ModTime().UnixNano()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Runs lists the run IDs that have at least one artifact, sorted.
func (a *ArtifactStore) Runs() ([]string, error) {
	entries, err := os.ReadDir(a.root)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: artifact store: %w", err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() && validName(e.Name()) {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// WritableProbe verifies the store root still accepts writes — surfaced
// by swserve's deep health check, like the fleet queue's probe.
func (a *ArtifactStore) WritableProbe() error {
	if err := durable.Probe(a.root); err != nil {
		return fmt.Errorf("checkpoint: artifact store not writable: %w", err)
	}
	return nil
}
