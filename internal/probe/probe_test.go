package probe

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"spinwave/internal/grid"
	"spinwave/internal/material"
	"spinwave/internal/vec"

	magpkg "spinwave/internal/mag"
)

func testEvaluator(t testing.TB, nx, ny int) *magpkg.Evaluator {
	t.Helper()
	mesh := grid.MustMesh(nx, ny, 2e-9, 2e-9, 1e-9)
	ev, err := magpkg.NewEvaluator(mesh, grid.FullRegion(mesh), material.FeCoB())
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestRecorderValidation(t *testing.T) {
	if _, err := NewRecorder(Config{}, nil, []Point{{Name: "p"}}); err == nil {
		t.Error("empty cell set accepted")
	}
	if _, err := NewRecorder(Config{}, nil, []Point{
		{Name: "p", Cells: []int{0}}, {Name: "p", Cells: []int{1}},
	}); err == nil {
		t.Error("duplicate probe name accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Stride != 4 || c.EnergyEvery != 512 || c.Capacity != 4096 {
		t.Errorf("defaults = %+v", c)
	}
	c = Config{Stride: 2, EnergyEvery: -1, Capacity: 8}.WithDefaults()
	if c.Stride != 2 || c.EnergyEvery != -1 || c.Capacity != 8 {
		t.Errorf("explicit values clobbered: %+v", c)
	}
}

// TestRecorderSeries drives ObserveStep directly and checks stride
// decimation, ring overwrite semantics, and the exported window.
func TestRecorderSeries(t *testing.T) {
	r, err := NewRecorder(Config{Stride: 2, EnergyEvery: -1, Capacity: 3}, nil,
		[]Point{{Name: "out", Cells: []int{0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	m := vec.Field{vec.UnitX, vec.UnitX, vec.UnitZ}
	for step := 0; step < 10; step++ {
		m[0].X = float64(step)
		m[1].X = float64(step)
		r.ObserveStep(step, float64(step)*1e-12, m)
	}
	// Steps 0,2,4,6,8 sampled; capacity 3 retains steps 4,6,8.
	s, ok := r.Series("out")
	if !ok {
		t.Fatal("series not found")
	}
	if want := []float64{4, 6, 8}; len(s.MX) != 3 || s.MX[0] != want[0] || s.MX[2] != want[2] {
		t.Errorf("retained mx %v, want %v", s.MX, want)
	}
	if s.Time[0] != 4e-12 {
		t.Errorf("retained t0 = %g, want 4e-12", s.Time[0])
	}
	if s.Cells != 2 {
		t.Errorf("cells = %d, want 2", s.Cells)
	}
	if r.Samples() != 5 {
		t.Errorf("samples = %d, want 5", r.Samples())
	}
	if _, ok := r.Series("nope"); ok {
		t.Error("unknown series found")
	}
}

// TestRecorderNegatedPoint: a point with Negate set records the plain
// point's mx and my negated and its mz unchanged.
func TestRecorderNegatedPoint(t *testing.T) {
	r, err := NewRecorder(Config{Stride: 1, EnergyEvery: -1}, nil,
		[]Point{{Name: "plain", Cells: []int{0, 1}}, {Name: "neg", Cells: []int{0, 1}, Negate: true}})
	if err != nil {
		t.Fatal(err)
	}
	r.ObserveStep(0, 0, vec.Field{vec.V(0.1, -0.2, 0.9), vec.V(0.3, 0.05, 0.8)})
	p, _ := r.Series("plain")
	n, _ := r.Series("neg")
	if n.MX[0] != -p.MX[0] || n.MY[0] != -p.MY[0] || n.MZ[0] != p.MZ[0] {
		t.Errorf("negated point (%g, %g, %g), plain (%g, %g, %g)", n.MX[0], n.MY[0], n.MZ[0], p.MX[0], p.MY[0], p.MZ[0])
	}
}

// TestRecorderEnergy checks the coarser energy cadence and the budget
// export path against the evaluator's total energy.
func TestRecorderEnergy(t *testing.T) {
	ev := testEvaluator(t, 4, 4)
	r, err := NewRecorder(Config{Stride: 1, EnergyEvery: 5, Capacity: 64}, ev,
		[]Point{{Name: "p", Cells: []int{0}}})
	if err != nil {
		t.Fatal(err)
	}
	m := vec.NewField(16)
	for i := range m {
		m[i] = vec.V(0.05*float64(i%4), 0, 1).Normalized()
	}
	for step := 0; step < 11; step++ {
		r.ObserveStep(step, float64(step), m)
	}
	es, ok := r.Energy()
	if !ok {
		t.Fatal("energy probing inactive")
	}
	if len(es.Time) != 3 { // steps 0, 5, 10
		t.Fatalf("energy samples %v, want 3", es.Time)
	}
	want := ev.Energy(m)
	if math.Abs(es.Total[0]-want) > 1e-12*math.Abs(want) {
		t.Errorf("energy total %g, want %g", es.Total[0], want)
	}
	if es.Exchange[0] <= 0 {
		t.Errorf("tilted state has no exchange energy: %g", es.Exchange[0])
	}
}

// TestRecorderSpectral feeds a synthetic sine through the probe and
// checks the live Goertzel estimate recovers amplitude and phase with
// the global-clock anchoring.
func TestRecorderSpectral(t *testing.T) {
	const (
		f     = 9e9
		dt    = 1e-12
		amp   = 0.05
		phase = 1.1
	)
	r, err := NewRecorder(Config{Stride: 1, EnergyEvery: -1, Capacity: 4096}, nil,
		[]Point{{Name: "det", Cells: []int{0}}})
	if err != nil {
		t.Fatal(err)
	}
	m := vec.Field{vec.UnitZ}
	for step := 0; step < 3000; step++ {
		tm := float64(step) * dt
		m[0].X = amp * math.Cos(2*math.Pi*f*tm+phase)
		r.ObserveStep(step, tm, m)
	}
	est, err := r.Spectral("det", f, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Amplitude-amp) > 0.02*amp {
		t.Errorf("amplitude %g, want %g", est.Amplitude, amp)
	}
	if d := math.Abs(est.Phase - phase); d > 0.05 {
		t.Errorf("phase %g, want %g (Δ=%g)", est.Phase, phase, d)
	}
	if _, err := r.Spectral("nope", f, 4); err == nil {
		t.Error("unknown probe estimated")
	}

	snap := r.Snapshot("r1")
	if snap.Run != "r1" || len(snap.Series) != 1 || snap.Energy != nil {
		t.Errorf("snapshot %+v", snap)
	}
}

func TestSnapshotSpectralAndCSV(t *testing.T) {
	r, err := NewRecorder(Config{Stride: 1, EnergyEvery: -1, Capacity: 512, Freq: 9e9}, nil,
		[]Point{{Name: "o1", Cells: []int{0}}, {Name: "o2", Cells: []int{1}}})
	if err != nil {
		t.Fatal(err)
	}
	m := vec.Field{vec.UnitZ, vec.UnitZ}
	for step := 0; step < 400; step++ {
		tm := float64(step) * 1e-12
		m[0].X = 0.1 * math.Cos(2*math.Pi*9e9*tm)
		m[1].X = 0.02 * math.Cos(2*math.Pi*9e9*tm)
		r.ObserveStep(step, tm, m)
	}
	snap := r.Snapshot("")
	if len(snap.Spectral) != 2 {
		t.Fatalf("spectral estimates %+v, want 2", snap.Spectral)
	}
	if snap.Spectral[0].Amplitude < snap.Spectral[1].Amplitude {
		t.Error("o1 should dominate o2")
	}

	var sb strings.Builder
	if err := snap.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "t,o1.mx,o1.my,o1.mz,o2.mx,o2.my,o2.mz" {
		t.Errorf("csv header %q", lines[0])
	}
	if len(lines) != 401 {
		t.Errorf("csv rows %d, want 401", len(lines))
	}

	var empty Snapshot
	sb.Reset()
	if err := empty.WriteCSV(&sb); err != nil || sb.String() != "t\n" {
		t.Errorf("empty csv %q, err %v", sb.String(), err)
	}
}

// TestWriteCSVEdgeCases pins the CSV export at the ring boundaries: a
// configured probe with no samples yet (header only), exactly one
// sample, and a ring that wrapped (rows limited to the retained window,
// times still ascending and aligned with the values).
func TestWriteCSVEdgeCases(t *testing.T) {
	mk := func(capacity int) *Recorder {
		r, err := NewRecorder(Config{Stride: 1, EnergyEvery: -1, Capacity: capacity}, nil,
			[]Point{{Name: "p", Cells: []int{0}}})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	csv := func(r *Recorder) []string {
		var sb strings.Builder
		if err := r.Snapshot("").WriteCSV(&sb); err != nil {
			t.Fatal(err)
		}
		return strings.Split(strings.TrimSpace(sb.String()), "\n")
	}

	// Empty ring: the probe exists, so its columns appear, but there are
	// no data rows yet.
	empty := mk(4)
	lines := csv(empty)
	if len(lines) != 1 || lines[0] != "t,p.mx,p.my,p.mz" {
		t.Errorf("empty-ring csv %q, want header only", lines)
	}

	// Single sample: exactly one data row carrying the sampled values.
	single := mk(4)
	single.ObserveStep(0, 2e-12, vec.Field{vec.V(0.25, -0.5, 1)})
	lines = csv(single)
	if len(lines) != 2 {
		t.Fatalf("single-sample csv %q, want header + 1 row", lines)
	}
	if lines[1] != "2e-12,0.25,-0.5,1" {
		t.Errorf("single-sample row %q", lines[1])
	}

	// Wrap-around: capacity 3, five samples → rows are the retained
	// window (steps 2,3,4) with ascending times matching the values.
	wrapped := mk(3)
	for step := 0; step < 5; step++ {
		wrapped.ObserveStep(step, float64(step)*1e-12, vec.Field{vec.V(float64(step), 0, 1)})
	}
	lines = csv(wrapped)
	if len(lines) != 4 {
		t.Fatalf("wrapped csv %q, want header + 3 rows", lines)
	}
	for i, want := range []string{"2e-12,2,0,1", "3e-12,3,0,1", "4e-12,4,0,1"} {
		if lines[i+1] != want {
			t.Errorf("wrapped row %d = %q, want %q", i, lines[i+1], want)
		}
	}
}

// TestObserveStepAllocates pins the flight-recorder contract: sampling
// magnetization series AND the energy budget must not allocate, so an
// attached recorder keeps the fused stepping loop at zero allocs.
func TestObserveStepAllocates(t *testing.T) {
	ev := testEvaluator(t, 8, 8)
	r, err := NewRecorder(Config{Stride: 1, EnergyEvery: 1, Capacity: 128}, ev,
		[]Point{{Name: "a", Cells: []int{0, 1, 2}}, {Name: "b", Cells: []int{9}}})
	if err != nil {
		t.Fatal(err)
	}
	m := vec.NewField(64)
	m.Fill(vec.V(0.1, 0.1, 1).Normalized())
	step := 0
	allocs := testing.AllocsPerRun(50, func() {
		r.ObserveStep(step, float64(step), m)
		step++
	})
	if allocs > 0 {
		t.Errorf("ObserveStep allocates %g per call, want 0", allocs)
	}
}

func TestRegistryEviction(t *testing.T) {
	g := NewRegistry(2)
	mk := func() *Recorder {
		r, _ := NewRecorder(Config{EnergyEvery: -1, Capacity: 2}, nil, []Point{{Name: "p", Cells: []int{0}}})
		return r
	}
	g.Put("r1", mk())
	g.Put("r2", mk())
	g.Put("r1", mk()) // replace, no eviction
	g.Put("r3", mk()) // evicts r1 (oldest)
	if _, ok := g.Get("r1"); ok {
		t.Error("r1 not evicted")
	}
	if _, ok := g.Get("r2"); !ok {
		t.Error("r2 evicted early")
	}
	if runs := g.Runs(); len(runs) != 2 || runs[0] != "r2" || runs[1] != "r3" {
		t.Errorf("runs %v", runs)
	}
	g.Put("", mk()) // no-op
	g.Put("r4", nil)
	if len(g.Runs()) != 2 {
		t.Error("empty/nil puts consumed capacity")
	}
}

func BenchmarkObserveStep(b *testing.B) {
	ev := testEvaluator(b, 30, 30)
	points := make([]Point, 3)
	for i := range points {
		points[i] = Point{Name: fmt.Sprintf("p%d", i), Cells: []int{i, i + 1}}
	}
	r, err := NewRecorder(Config{}.WithDefaults(), ev, points)
	if err != nil {
		b.Fatal(err)
	}
	m := vec.NewField(900)
	m.Fill(vec.UnitZ)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.ObserveStep(i, float64(i), m)
	}
}
