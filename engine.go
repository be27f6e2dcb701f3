package spinwave

import (
	"context"
	"sync"

	"spinwave/internal/core"
	"spinwave/internal/detect"
	"spinwave/internal/engine"
	"spinwave/internal/layout"
)

// Engine re-exports: the concurrent evaluation engine fans truth-table
// cases, sweep points, and parallel-word channels over a bounded worker
// pool with an LRU result cache and in-flight request coalescing. See
// internal/engine for full documentation.
type (
	// Engine is the concurrent gate-evaluation engine.
	Engine = engine.Engine
	// EngineOption configures NewEngine.
	EngineOption = engine.Option
	// EngineStats is a snapshot of an engine's counters.
	EngineStats = engine.Stats
	// Readout is one output probe's lock-in measurement.
	Readout = detect.Readout
)

// NewEngine builds a concurrent evaluation engine. With no options it
// uses runtime.NumCPU() workers and a 4096-entry result cache.
func NewEngine(opts ...EngineOption) *Engine { return engine.New(opts...) }

// WithEngineWorkers sets the engine worker-pool size. (Distinct from
// WithWorkers, which parallelizes the field stencil inside one
// micromagnetic transient.)
func WithEngineWorkers(n int) EngineOption { return engine.WithWorkers(n) }

// WithEngineCacheSize sets the engine LRU capacity in cached case
// readouts; 0 disables caching.
func WithEngineCacheSize(n int) EngineOption { return engine.WithCacheSize(n) }

// Tiered result-store re-exports: an engine answers each request from
// the cheapest tier that can — in-memory LRU, disk-backed persistent
// store, admitted linear-superposition surrogate, exact recompute — and
// every result reports which tier produced it.
type (
	// EvalMode selects which tiers an evaluation may be served from
	// (EvalModeAuto, EvalModeDirect, EvalModeSurrogateOnly).
	EvalMode = engine.Mode
	// EvalSource identifies the tier that produced a result.
	EvalSource = engine.Source
	// EvalResult is a tiered evaluation outcome: readouts plus the tier
	// and backend fingerprint they came from.
	EvalResult = engine.EvalResult
	// DiskStore is the persistent tier of the result store: one
	// append-only, corruption-tolerant segment with a line per evaluated
	// case, indexed in memory by eval key.
	DiskStore = engine.DiskStore
)

// Eval-mode and source constants; see internal/engine for tier order.
const (
	// EvalModeDirect serves from memory → disk → exact recompute.
	EvalModeDirect = engine.ModeDirect
	// EvalModeAuto additionally tries an admitted surrogate before
	// falling back to exact recompute.
	EvalModeAuto = engine.ModeAuto
	// EvalModeSurrogateOnly serves exclusively from an admitted
	// surrogate, failing with ErrSurrogateUnavailable otherwise.
	EvalModeSurrogateOnly = engine.ModeSurrogateOnly

	// EvalSourceCache marks a result served from the in-memory LRU.
	EvalSourceCache = engine.SourceCache
	// EvalSourceDisk marks a result served from the persistent store.
	EvalSourceDisk = engine.SourceDisk
	// EvalSourceSurrogate marks a result superposed by a surrogate.
	EvalSourceSurrogate = engine.SourceSurrogate
	// EvalSourceMicromag marks a full micromagnetic recompute.
	EvalSourceMicromag = engine.SourceMicromag
	// EvalSourceBehavioral marks a behavioral-model recompute.
	EvalSourceBehavioral = engine.SourceBehavioral
)

// ErrSurrogateUnavailable reports a surrogate-only evaluation with no
// admitted surrogate model for the backend. Match with errors.Is.
var ErrSurrogateUnavailable = engine.ErrSurrogateUnavailable

// OpenDiskStore opens (creating if needed) a disk-backed result store
// rooted at dir, scanning its segment once to index the stored cases;
// attach it to an engine with WithEngineDiskStore. One process owns a
// store directory at a time.
func OpenDiskStore(dir string) (*DiskStore, error) { return engine.OpenDiskStore(dir) }

// WithEngineDiskStore attaches a persistent result store to the engine;
// persisted entries warm the in-memory cache at construction.
func WithEngineDiskStore(d *DiskStore) EngineOption { return engine.WithDiskStore(d) }

var (
	defaultEngineOnce sync.Once
	defaultEngine     *Engine
)

// DefaultEngine returns the lazily-initialized package-level engine that
// backs MajorityTruthTable, XORTruthTable and DerivedTruthTable. Build a
// dedicated engine with NewEngine when you need separate tuning or
// isolated statistics.
func DefaultEngine() *Engine {
	defaultEngineOnce.Do(func() { defaultEngine = engine.New() })
	return defaultEngine
}

// Sentinel errors shared by the gate constructors, backends and layout
// lookups. Match with errors.Is.
var (
	// ErrUnknownGate reports a gate kind outside the supported set.
	ErrUnknownGate = layout.ErrUnknownGate
	// ErrBadInputCount reports an input vector whose length does not
	// match the gate's input count.
	ErrBadInputCount = layout.ErrBadInputCount
	// ErrUnknownComponent reports an unknown named component (layout
	// node, render component, material preset).
	ErrUnknownComponent = layout.ErrUnknownComponent
)

// RunContext evaluates one input case with cancellation: backends that
// support contexts (both built-in backends do) abort mid-integration
// within one solver step of ctx expiring.
func RunContext(ctx context.Context, b Backend, inputs []bool) (map[string]Readout, error) {
	return core.RunContext(ctx, b, inputs)
}

// MajorityTruthTableContext reproduces Table I on any MAJ3 backend, with
// the input cases fanned out over the default engine's worker pool and
// ctx cancelling stragglers.
func MajorityTruthTableContext(ctx context.Context, b Backend) (*TruthTable, error) {
	return DefaultEngine().MajorityTable(ctx, b)
}

// XORTruthTableContext reproduces Table II on an XOR backend through the
// default engine; inverted gives the XNOR gate.
func XORTruthTableContext(ctx context.Context, b Backend, inverted bool) (*TruthTable, error) {
	return DefaultEngine().XORTable(ctx, b, inverted)
}

// DerivedTruthTableContext evaluates (N)AND/(N)OR on a MAJ3 backend
// (§III-A) through the default engine.
func DerivedTruthTableContext(ctx context.Context, b Backend, d DerivedGate) (*TruthTable, error) {
	return DefaultEngine().DerivedTable(ctx, b, d)
}
