package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"spinwave/internal/durable"
	"spinwave/internal/grid"
	"spinwave/internal/obs"
	"spinwave/internal/ovf"
	"spinwave/internal/vec"
)

// State is one loaded checkpoint: the validated manifest plus the
// magnetization field parsed from its OVF sidecar.
type State struct {
	// Manifest is the parsed and validated sidecar manifest.
	Manifest Manifest
	// Mesh is the mesh the OVF file declares.
	Mesh grid.Mesh
	// M is the magnetization field, bit-identical to the saved state.
	M vec.Field
}

// Process-wide checkpoint metrics, registered lazily on first use so an
// importing program that never checkpoints exports nothing.
var (
	metricsOnce  sync.Once
	mQuarantined *obs.Counter
)

func initMetrics() {
	metricsOnce.Do(func() {
		r := obs.Default()
		r.Describe("spinwave_checkpoint_quarantined_total", "defective checkpoint files quarantined at load")
		mQuarantined = r.Counter("spinwave_checkpoint_quarantined_total")
	})
}

// readOVF parses the snapshot's OVF bytes.
func readOVF(data []byte) (*ovf.File, error) {
	f, err := ovf.Read(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return f, nil
}

// Latest loads the newest valid checkpoint in dir. Corrupt, truncated
// or inconsistent files are quarantined (set aside with a journaled
// checkpoint.quarantine alert — the fleet queue's corruption
// discipline) and the next-newest snapshot is tried
// instead; resume never crashes on a bad file. A missing directory or
// no surviving snapshot returns (nil, nil): start from t = 0.
func Latest(dir string) (*State, error) {
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: load needs a directory")
	}
	steps := manifestSteps(dir)
	for i := len(steps) - 1; i >= 0; i-- {
		path := filepath.Join(dir, stem(steps[i])+".json")
		st, err := load(dir, path)
		if err != nil {
			quarantine(path, err)
			continue
		}
		return st, nil
	}
	return nil, nil
}

// load reads and fully verifies one manifest + OVF pair. Any defect is
// an error; the caller decides to quarantine.
func load(dir, manifestPath string) (*State, error) {
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	man, err := ParseManifest(data)
	if err != nil {
		return nil, err
	}
	magPath := filepath.Join(dir, man.MagFile)
	mag, err := os.ReadFile(magPath)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	sum := sha256.Sum256(mag)
	if hex.EncodeToString(sum[:]) != man.MagSHA256 {
		return nil, fmt.Errorf("checkpoint: %s does not match its manifest digest (truncated or corrupt)", man.MagFile)
	}
	f, err := readOVF(mag)
	if err != nil {
		return nil, err
	}
	return &State{Manifest: *man, Mesh: f.Mesh, M: f.M}, nil
}

// quarantine sets a bad checkpoint manifest and its OVF sidecar aside
// and journals an alert; loading carries on with older snapshots. The
// renamed files keep their bytes for post-mortems and are ignored by
// every future scan.
func quarantine(manifestPath string, cause error) {
	// The OVF sidecar shares the stem; move it too so a later save at
	// the same step cannot pair a fresh manifest with stale field bytes.
	durable.SetAside(strings.TrimSuffix(manifestPath, ".json") + ".ovf")
	durable.Quarantine(manifestPath, "checkpoint.quarantine", cause)
	initMetrics()
	mQuarantined.Inc()
}
