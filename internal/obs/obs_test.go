package obs

import (
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("requests_total") != c {
		t.Error("get-or-create returned a different counter")
	}

	g := r.Gauge("in_flight")
	g.Set(2)
	g.Add(3)
	g.Add(-1)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %g, want 4", got)
	}

	r.GaugeFunc("cache_entries", func() float64 { return 42 })
	if got := r.Gauge("cache_entries").Value(); got != 42 {
		t.Errorf("gauge func = %g, want 42", got)
	}
}

// TestGaugeFuncReplacedWhileScraped: a new server re-registering a
// process-wide gauge func while an older one's /metrics scrape reads it
// must not race (run under -race).
func TestGaugeFuncReplacedWhileScraped(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("burn_rate", func() float64 { return -1 })
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			r.WritePrometheus(io.Discard)
		}
	}()
	for i := 0; i < 2000; i++ {
		v := float64(i)
		r.GaugeFunc("burn_rate", func() float64 { return v })
		runtime.Gosched()
	}
	stop.Store(true)
	<-done
	if got := r.Gauge("burn_rate").Value(); got != 1999 {
		t.Fatalf("gauge func = %g, want the last registration's 1999", got)
	}
}

func TestCounterLabelsAreSeparateSeries(t *testing.T) {
	r := NewRegistry()
	ok := r.Counter("evals_total", L("result", "ok"))
	errs := r.Counter("evals_total", L("result", "error"))
	if ok == errs {
		t.Fatal("labelled series collided")
	}
	ok.Add(3)
	errs.Inc()
	s := r.Snapshot()
	if s.Counters[`evals_total{result="ok"}`] != 3 || s.Counters[`evals_total{result="error"}`] != 1 {
		t.Errorf("snapshot = %+v", s.Counters)
	}
	// Label order must not matter for identity.
	a := r.Counter("http_total", L("path", "/v1/eval"), L("status", "200"))
	b := r.Counter("http_total", L("status", "200"), L("path", "/v1/eval"))
	if a != b {
		t.Error("label order changed series identity")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total")
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
	if got := h.Sum(); got < 5.5 || got > 5.6 {
		t.Errorf("sum = %g", got)
	}
	hs := r.Snapshot().Histograms["lat_seconds"]
	wantCounts := []int64{2, 1, 1, 1} // per-bucket + overflow
	for i, w := range wantCounts {
		if hs.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, hs.Counts[i], w)
		}
	}
	if q := hs.Quantile(0.5); q != 0.01 {
		t.Errorf("p50 = %g, want 0.01 (bucket bound)", q)
	}
	if q := hs.Quantile(0.99); q != 1 {
		t.Errorf("p99 = %g, want 1 (largest finite bound)", q)
	}
	if m := hs.Mean(); m < 1.1 || m > 1.2 {
		t.Errorf("mean = %g", m)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Describe("evals_total", "evaluations run")
	r.Counter("evals_total", L("result", "ok")).Add(7)
	r.Gauge("in_flight").Set(2)
	h := r.Histogram("lat_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(50)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP evals_total evaluations run",
		"# TYPE evals_total counter",
		`evals_total{result="ok"} 7`,
		"# TYPE in_flight gauge",
		"in_flight 2",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_sum 50.55",
		"lat_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSpanDisabledByDefault(t *testing.T) {
	prev := SetSpanSink(nil)
	defer SetSpanSink(prev)
	s := StartSpan("noop")
	if s.active {
		t.Error("span active with no sink installed")
	}
	s.End() // must not panic
}

func TestSpanCollectingSink(t *testing.T) {
	sink := &CollectingSink{}
	prev := SetSpanSink(sink)
	defer SetSpanSink(prev)
	s := StartSpan("work", L("gate", "xor"))
	time.Sleep(time.Millisecond)
	s.End()
	spans := sink.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[0].Name != "work" || spans[0].Duration <= 0 {
		t.Errorf("span = %+v", spans[0])
	}
	if len(spans[0].Labels) != 1 || spans[0].Labels[0] != L("gate", "xor") {
		t.Errorf("labels = %+v", spans[0].Labels)
	}
}

func TestSpanHistogramSink(t *testing.T) {
	r := NewRegistry()
	prev := SetSpanSink(&HistogramSink{Registry: r})
	defer SetSpanSink(prev)
	StartSpan("solve", L("gate", "maj3")).End()
	StartSpan("solve", L("gate", "maj3")).End()
	s := r.Snapshot()
	key := `spinwave_span_seconds{gate="maj3",span="solve"}`
	if s.Histograms[key].Count != 2 {
		t.Errorf("span histogram = %+v", s.Histograms)
	}
}

func TestSummaryOutput(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(3)
	r.Gauge("zero_gauge").Set(0) // skipped: zero-valued
	r.Histogram("h_seconds", []float64{1}).Observe(0.5)
	out := r.Snapshot().Summary()
	for _, want := range []string{"counters:", "a_total", "3", "histograms:", "h_seconds", "count 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "zero_gauge") {
		t.Errorf("summary includes zero-valued series:\n%s", out)
	}
}

func TestUnregister(t *testing.T) {
	r := NewRegistry()
	r.Gauge("node_stat", L("node", "w1"), L("stat", "evals")).Set(3)
	r.Gauge("node_stat", L("node", "w2"), L("stat", "evals")).Set(5)

	// Label order must not matter — the key is canonical.
	if !r.Unregister("node_stat", L("stat", "evals"), L("node", "w1")) {
		t.Fatal("Unregister missed a registered series")
	}
	if r.Unregister("node_stat", L("node", "w1"), L("stat", "evals")) {
		t.Fatal("second Unregister reported success")
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Contains(out, `node="w1"`) {
		t.Fatalf("unregistered series still exposed:\n%s", out)
	}
	if !strings.Contains(out, `node_stat{node="w2",stat="evals"} 5`) {
		t.Fatalf("sibling series lost:\n%s", out)
	}

	// Re-registration after removal starts a fresh series.
	r.Gauge("node_stat", L("node", "w1"), L("stat", "evals")).Set(9)
	b.Reset()
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), `node_stat{node="w1",stat="evals"} 9`) {
		t.Fatal("series did not re-register after Unregister")
	}
}
