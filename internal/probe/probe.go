// Package probe is the in-situ measurement tier of the flight recorder
// (DESIGN.md §11): ring-buffered time-series probes attached to the LLG
// run loop that record what the magnetization *did* during a run, not
// just the final readout. Three probe families are supported, matching
// how the paper diagnoses its gates:
//
//   - point/region magnetization series — the spatially averaged m over
//     a cell set (a detector cell, an interference arm), decimated by a
//     configurable stride;
//   - per-term energy budgets — exchange/anisotropy/demag/Zeeman from
//     mag.Evaluator.EnergyBudget on a coarser cadence;
//   - rolling spectral estimates — amplitude/phase of ⟨mx⟩ at the drive
//     frequency via internal/dsp Goertzel over the retained window,
//     phase-anchored to the global drive clock like detect.LockIn.
//
// A Recorder samples into preallocated ring buffers under one mutex:
// ObserveStep performs no allocation, so attaching a recorder keeps the
// PR 3 zero-alloc stepping loop zero-alloc (pinned by an allocation
// test). Analysis (Series, Spectral, Snapshot) allocates only on query.
package probe

import (
	"fmt"
	"math"

	"sync"

	"spinwave/internal/dsp"
	"spinwave/internal/energy"
	"spinwave/internal/mag"
	"spinwave/internal/vec"
)

// Config selects what a Recorder samples and how often.
type Config struct {
	// Enabled switches probing on. The zero Config records nothing; core
	// backends skip building a Recorder entirely when Enabled is false.
	Enabled bool
	// Stride decimates the magnetization series: one sample every Stride
	// solver steps (default 4 — the cadence the PR 1 pipeline already
	// uses for its readout probes).
	Stride int
	// EnergyEvery sets the energy-budget cadence in solver steps
	// (default 512; < 0 disables energy probing). Energy sweeps are
	// allocation-free but touch every cell serially — roughly the cost
	// of one full parallel step per sweep at 8 workers — so the default
	// cadence keeps them under the E-OBS2 ≤3% overhead budget.
	EnergyEvery int
	// Capacity bounds each ring buffer (samples retained per series;
	// default 4096). Callers that know the run length size it so the
	// whole measurement window is retained.
	Capacity int
	// Freq, when > 0, is the drive frequency (Hz) used for the spectral
	// estimates included in Snapshot.
	Freq float64
}

// WithDefaults returns the config with unset cadences and capacities
// replaced by their defaults.
func (c Config) WithDefaults() Config {
	if c.Stride < 1 {
		c.Stride = 4
	}
	if c.EnergyEvery == 0 {
		c.EnergyEvery = 512
	}
	if c.Capacity < 1 {
		c.Capacity = 4096
	}
	return c
}

// Point names a cell set to probe — a single detector cell or a region.
// Negate records the average with mx and my negated, as detect.Probe
// does for a probe that reads the images of its cells.
type Point struct {
	Name   string
	Cells  []int
	Negate bool
}

// ring is a fixed-capacity float64 ring buffer (overwrite-oldest).
type ring struct {
	buf  []float64
	head int // next write position
	n    int // valid entries (≤ cap)
}

func newRing(capacity int) ring { return ring{buf: make([]float64, capacity)} }

func (r *ring) push(v float64) {
	r.buf[r.head] = v
	r.head = (r.head + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// slice returns the retained values oldest-first (allocates).
func (r *ring) slice() []float64 {
	out := make([]float64, r.n)
	start := r.head - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(start+i)%len(r.buf)]
	}
	return out
}

// series is one magnetization probe's ring storage.
type series struct {
	name       string
	cells      []int
	negate     bool
	t, x, y, z ring
}

// Recorder samples probes from the solver loop. It implements the LLG
// solver's StepObserver interface; all methods are safe for concurrent
// use (sampling happens on the solver goroutine while HTTP handlers
// snapshot from others).
type Recorder struct {
	cfg    Config
	ev     *mag.Evaluator // nil → no energy probes
	series []*series
	index  map[string]int

	// mu guards the ring contents below and in series. sync.Mutex
	// Lock/Unlock never allocate, which ObserveStep relies on.
	mu      sync.Mutex
	et      ring
	eb      []energy.Budget
	ebHead  int
	ebCount int
	samples int64
}

// NewRecorder builds a recorder for the given probes. ev may be nil to
// disable energy probing regardless of cfg.EnergyEvery; when non-nil
// its geometry is prepared eagerly so the first energy sweep on the
// solver goroutine performs no allocation.
func NewRecorder(cfg Config, ev *mag.Evaluator, points []Point) (*Recorder, error) {
	cfg = cfg.WithDefaults()
	r := &Recorder{cfg: cfg, ev: ev, index: make(map[string]int, len(points))}
	for _, p := range points {
		if len(p.Cells) == 0 {
			return nil, fmt.Errorf("probe: point %q covers no cells", p.Name)
		}
		if _, dup := r.index[p.Name]; dup {
			return nil, fmt.Errorf("probe: duplicate point name %q", p.Name)
		}
		r.index[p.Name] = len(r.series)
		r.series = append(r.series, &series{
			name:   p.Name,
			cells:  p.Cells,
			negate: p.Negate,
			t:      newRing(cfg.Capacity),
			x:      newRing(cfg.Capacity),
			y:      newRing(cfg.Capacity),
			z:      newRing(cfg.Capacity),
		})
	}
	if ev != nil && cfg.EnergyEvery > 0 {
		ev.Prepare()
		ecap := cfg.Capacity/8 + 1
		r.et = newRing(ecap)
		r.eb = make([]energy.Budget, ecap)
	}
	return r, nil
}

// Config returns the recorder's effective (defaulted) configuration.
func (r *Recorder) Config() Config { return r.cfg }

// ObserveStep samples the probes for solver step `step` at simulation
// time t. It allocates nothing: ring writes, vec.Field.Average and
// mag.Evaluator.EnergyBudget are all allocation-free.
func (r *Recorder) ObserveStep(step int, t float64, m vec.Field) {
	onSeries := step%r.cfg.Stride == 0
	onEnergy := r.eb != nil && r.cfg.EnergyEvery > 0 && step%r.cfg.EnergyEvery == 0
	if !onSeries && !onEnergy {
		return
	}
	r.mu.Lock()
	if onSeries {
		for _, s := range r.series {
			avg := m.Average(s.cells)
			if s.negate {
				avg.X, avg.Y = -avg.X, -avg.Y
			}
			s.t.push(t)
			s.x.push(avg.X)
			s.y.push(avg.Y)
			s.z.push(avg.Z)
		}
		r.samples++
	}
	if onEnergy {
		r.et.push(t)
		r.eb[r.ebHead] = r.ev.EnergyBudget(m)
		r.ebHead = (r.ebHead + 1) % len(r.eb)
		if r.ebCount < len(r.eb) {
			r.ebCount++
		}
	}
	r.mu.Unlock()
}

// Samples returns the number of series sampling events recorded so far.
func (r *Recorder) Samples() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.samples
}

// Names returns the probe names in registration order.
func (r *Recorder) Names() []string {
	out := make([]string, len(r.series))
	for i, s := range r.series {
		out[i] = s.name
	}
	return out
}

// Series is the exported form of one probe's retained window.
type Series struct {
	Name  string    `json:"name"`
	Cells int       `json:"cells"`
	Time  []float64 `json:"t"`
	MX    []float64 `json:"mx"`
	MY    []float64 `json:"my"`
	MZ    []float64 `json:"mz"`
}

// Series returns the retained window of the named probe, oldest first.
func (r *Recorder) Series(name string) (Series, bool) {
	i, ok := r.index[name]
	if !ok {
		return Series{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.exportLocked(r.series[i]), true
}

func (r *Recorder) exportLocked(s *series) Series {
	return Series{
		Name:  s.name,
		Cells: len(s.cells),
		Time:  s.t.slice(),
		MX:    s.x.slice(),
		MY:    s.y.slice(),
		MZ:    s.z.slice(),
	}
}

// Estimate is a live lock-in reading derived from a probe's retained
// mx window.
type Estimate struct {
	Name      string  `json:"name"`
	Freq      float64 `json:"freq_hz"`
	Amplitude float64 `json:"amplitude"`
	Phase     float64 `json:"phase"`
}

// Spectral computes the amplitude and phase of the named probe's ⟨mx⟩
// at frequency f over the last `periods` drive periods of the retained
// window (clamped to the window), phase-anchored to the global t = 0
// drive clock exactly like detect.LockIn, so live estimates and final
// readouts are directly comparable.
func (r *Recorder) Spectral(name string, f float64, periods int) (Estimate, error) {
	i, ok := r.index[name]
	if !ok {
		return Estimate{}, fmt.Errorf("probe: unknown probe %q", name)
	}
	r.mu.Lock()
	times := r.series[i].t.slice()
	mx := r.series[i].x.slice()
	r.mu.Unlock()
	if len(times) < 4 {
		return Estimate{}, fmt.Errorf("probe: %q has only %d samples", name, len(times))
	}
	if periods < 1 {
		periods = 1
	}
	dt := (times[len(times)-1] - times[0]) / float64(len(times)-1)
	if dt <= 0 {
		return Estimate{}, fmt.Errorf("probe: %q has non-increasing time stamps", name)
	}
	window := int(math.Round(float64(periods) / f / dt))
	if window < 2 {
		return Estimate{}, fmt.Errorf("probe: %q sampled too coarsely for f=%g", name, f)
	}
	if window > len(mx) {
		window = len(mx)
	}
	seg := dsp.Detrend(mx[len(mx)-window:])
	amp, phase, err := dsp.Goertzel(seg, 1/dt, f)
	if err != nil {
		return Estimate{}, fmt.Errorf("probe: %q: %w", name, err)
	}
	t0 := times[len(times)-window]
	phase = dsp.PhaseDiff(phase, 2*math.Pi*f*t0)
	return Estimate{Name: name, Freq: f, Amplitude: amp, Phase: phase}, nil
}

// EnergySeries is the exported energy-budget trace.
type EnergySeries struct {
	Time       []float64 `json:"t"`
	Exchange   []float64 `json:"exchange"`
	Anisotropy []float64 `json:"anisotropy"`
	Demag      []float64 `json:"demag"`
	Zeeman     []float64 `json:"zeeman"`
	Total      []float64 `json:"total"`
}

// Energy returns the retained energy-budget window, oldest first, and
// whether energy probing is active.
func (r *Recorder) Energy() (EnergySeries, bool) {
	if r.eb == nil {
		return EnergySeries{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.ebCount
	es := EnergySeries{
		Time:       r.et.slice(),
		Exchange:   make([]float64, n),
		Anisotropy: make([]float64, n),
		Demag:      make([]float64, n),
		Zeeman:     make([]float64, n),
		Total:      make([]float64, n),
	}
	start := r.ebHead - n
	if start < 0 {
		start += len(r.eb)
	}
	for i := 0; i < n; i++ {
		b := r.eb[(start+i)%len(r.eb)]
		es.Exchange[i] = b.Exchange
		es.Anisotropy[i] = b.Anisotropy
		es.Demag[i] = b.Demag
		es.Zeeman[i] = b.Zeeman
		es.Total[i] = b.Total()
	}
	return es, true
}

// Snapshot is the JSON-ready export of a recorder's full state, served
// by swserve's /v1/runs/{id}/probes endpoint.
type Snapshot struct {
	Run      string        `json:"run,omitempty"`
	Stride   int           `json:"stride"`
	Series   []Series      `json:"series"`
	Energy   *EnergySeries `json:"energy,omitempty"`
	Spectral []Estimate    `json:"spectral,omitempty"`
}

// Snapshot exports every series, the energy trace, and — when the
// config carries a drive frequency — a spectral estimate per probe.
func (r *Recorder) Snapshot(run string) Snapshot {
	snap := Snapshot{Run: run, Stride: r.cfg.Stride}
	r.mu.Lock()
	for _, s := range r.series {
		snap.Series = append(snap.Series, r.exportLocked(s))
	}
	r.mu.Unlock()
	if es, ok := r.Energy(); ok && len(es.Time) > 0 {
		snap.Energy = &es
	}
	if r.cfg.Freq > 0 {
		for _, s := range r.series {
			if est, err := r.Spectral(s.name, r.cfg.Freq, 4); err == nil {
				snap.Spectral = append(snap.Spectral, est)
			}
		}
	}
	return snap
}
