// Package obs is the repo's dependency-free observability layer: a
// metrics registry (atomic counters, gauges, fixed-bucket latency
// histograms) with Prometheus-style text exposition, a consistent
// Snapshot API for in-process reporting (`swtables -stats`,
// `swsim -stats`), and lightweight span tracing with a pluggable sink.
//
// Everything is safe for concurrent use and built only on the standard
// library. Hot paths pay one or two atomic operations per event; spans
// cost nothing when no sink is installed.
//
// Metric names follow the Prometheus conventions: snake_case families,
// a `_total` suffix on counters, base units (seconds) on histograms,
// and constant labels attached at registration
// (`reg.Counter("x_total", obs.L("result", "ok"))`). The full name
// inventory lives in DESIGN.md §9.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant key/value pair attached to a metric at
// registration time.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// DefBuckets are the default latency histogram bucket upper bounds in
// seconds: microseconds for behavioral evals and HTTP overhead through
// minutes for paper-scale micromagnetic transients.
var DefBuckets = []float64{
	100e-6, 1e-3, 5e-3, 25e-3, 100e-3, 250e-3, 1, 2.5, 10, 30, 60, 300,
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n < 0 is ignored — counters are
// monotone by contract).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic float64 value that can go up and down. An optional
// callback (see Registry.GaugeFunc) can supply the value at read time
// instead.
type Gauge struct {
	bits atomic.Uint64
	// fn is set for GaugeFunc-registered gauges. Atomic because a
	// re-registration may replace it while a scrape reads it.
	fn atomic.Pointer[func() float64]
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta to the gauge (atomic compare-and-swap loop).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current gauge value (calling the callback for
// function gauges).
func (g *Gauge) Value() float64 {
	if fn := g.fn.Load(); fn != nil {
		return (*fn)()
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram of float64 observations
// (typically latencies in seconds). Bucket counts are cumulative on
// export, per-bucket internally; all fields are atomics, so concurrent
// Observe calls never block each other.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; an implicit +Inf bucket follows
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// metric is one registered series.
type metric struct {
	family string // name without labels
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

func (m *metric) kind() string {
	switch {
	case m.c != nil:
		return "counter"
	case m.h != nil:
		return "histogram"
	default:
		return "gauge"
	}
}

// Registry holds named metrics. Get-or-create accessors make it safe
// for independent subsystems to share one series: the first caller
// registers, later callers receive the same instance. A name
// registered as one kind cannot be re-registered as another (panics —
// a programming error, like a duplicate expvar name).
type Registry struct {
	mu      sync.RWMutex
	series  map[string]*metric // key: family + rendered labels
	order   []string           // registration order of keys
	help    map[string]string  // family -> HELP text
	helpSet []string           // registration order of described families
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*metric), help: make(map[string]string)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry used by the instrumented
// packages (engine, llg, sweep, parallel, swserve).
func Default() *Registry { return defaultRegistry }

// seriesKey renders the canonical key for a family + label set.
func seriesKey(family string, labels []Label) string {
	if len(labels) == 0 {
		return family
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(family)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// lookup returns the series for key, or registers one built by mk.
func (r *Registry) lookup(family string, labels []Label, want string, mk func() *metric) *metric {
	key := seriesKey(family, labels)
	r.mu.RLock()
	m, ok := r.series[key]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		if m, ok = r.series[key]; !ok {
			m = mk()
			r.series[key] = m
			r.order = append(r.order, key)
		}
		r.mu.Unlock()
	}
	if m.kind() != want {
		panic(fmt.Sprintf("obs: %s already registered as a %s, requested as %s", key, m.kind(), want))
	}
	return m
}

// Counter returns the counter named family with the given constant
// labels, registering it on first use.
func (r *Registry) Counter(family string, labels ...Label) *Counter {
	return r.lookup(family, labels, "counter", func() *metric {
		return &metric{family: family, labels: labels, c: &Counter{}}
	}).c
}

// Gauge returns the gauge named family with the given constant labels,
// registering it on first use.
func (r *Registry) Gauge(family string, labels ...Label) *Gauge {
	return r.lookup(family, labels, "gauge", func() *metric {
		return &metric{family: family, labels: labels, g: &Gauge{}}
	}).g
}

// GaugeFunc registers a gauge whose value is computed by fn at read
// time (e.g. current cache entries). Re-registering the same name
// replaces the callback.
func (r *Registry) GaugeFunc(family string, fn func() float64, labels ...Label) {
	r.Gauge(family, labels...).fn.Store(&fn)
}

// Histogram returns the histogram named family with the given bucket
// upper bounds (nil = DefBuckets) and constant labels, registering it
// on first use. Buckets are fixed at first registration.
func (r *Registry) Histogram(family string, buckets []float64, labels ...Label) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return r.lookup(family, labels, "histogram", func() *metric {
		return &metric{family: family, labels: labels, h: newHistogram(buckets)}
	}).h
}

// Unregister removes one series (family + exact label set) from the
// registry so it disappears from the exposition. It exists for series
// keyed by a dynamic label — per-node fleet gauges, for example — whose
// subject can go away for good; without removal a dead node's last
// values would be scraped forever. Returns whether the series existed.
// A later lookup with the same family and labels re-registers a fresh
// series (holders of the old handle keep a detached, unexported value).
func (r *Registry) Unregister(family string, labels ...Label) bool {
	key := seriesKey(family, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.series[key]; !ok {
		return false
	}
	delete(r.series, key)
	for i, k := range r.order {
		if k == key {
			r.order = append(r.order[:i:i], r.order[i+1:]...)
			break
		}
	}
	return true
}

// Describe attaches HELP text to a metric family for the Prometheus
// exposition.
func (r *Registry) Describe(family, help string) {
	r.mu.Lock()
	if _, ok := r.help[family]; !ok {
		r.helpSet = append(r.helpSet, family)
	}
	r.help[family] = help
	r.mu.Unlock()
}

// snapshotSeries returns a stable copy of the registered series in
// registration order.
func (r *Registry) snapshotSeries() []*metric {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*metric, 0, len(r.order))
	for _, k := range r.order {
		out = append(out, r.series[k])
	}
	return out
}

// labelString renders {k="v",...} for exposition, with extra appended
// (used for the le bucket label); empty when there are no labels.
func labelString(labels []Label, extra ...Label) string {
	all := make([]Label, 0, len(labels)+len(extra))
	all = append(all, labels...)
	sort.Slice(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	all = append(all, extra...) // le stays last, as Prometheus renders it
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus writes every registered series in the Prometheus
// text exposition format (version 0.0.4), grouped by family with TYPE
// and (when described) HELP headers.
func (r *Registry) WritePrometheus(w io.Writer) error {
	series := r.snapshotSeries()
	r.mu.RLock()
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.RUnlock()

	typed := map[string]bool{}
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	for _, m := range series {
		if !typed[m.family] {
			typed[m.family] = true
			if h, ok := help[m.family]; ok {
				p("# HELP %s %s\n", m.family, strings.ReplaceAll(h, "\n", " "))
			}
			p("# TYPE %s %s\n", m.family, m.kind())
		}
		switch {
		case m.c != nil:
			p("%s%s %d\n", m.family, labelString(m.labels), m.c.Value())
		case m.h != nil:
			cum := int64(0)
			for i, bound := range m.h.bounds {
				cum += m.h.counts[i].Load()
				p("%s_bucket%s %d\n", m.family, labelString(m.labels, L("le", formatBound(bound))), cum)
			}
			cum += m.h.counts[len(m.h.bounds)].Load()
			p("%s_bucket%s %d\n", m.family, labelString(m.labels, L("le", "+Inf")), cum)
			p("%s_sum%s %g\n", m.family, labelString(m.labels), m.h.Sum())
			p("%s_count%s %d\n", m.family, labelString(m.labels), m.h.Count())
		default:
			p("%s%s %g\n", m.family, labelString(m.labels), m.g.Value())
		}
	}
	return err
}

func formatBound(b float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", b), "0"), ".")
}
