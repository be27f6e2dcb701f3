// Command e2e is the repository's end-to-end benchmark. It drives the
// real swserve and swworker binaries over HTTP from one client process
// with at most two connections, decodes and checks every answer, and
// prints each metric as "workload metric value unit n=N" followed by
// one JSON result line. bench/README.md describes the workloads, the
// metrics and how to read a traced run.
//
//	bash bench/run.sh --workload micromag-cold --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh -seed 1 -out run.json        # every workload
//	bash bench/run.sh -seed 1 -trace 1 -out traced.json
//	.bench_build/bin/e2e compare -base a1.json,a2.json -head b1.json,b2.json
//
// bench/run.sh builds the binaries into .bench_build/bin first; build
// time is never measured. A wrong bit exits 1 after the result line.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"spinwave"
)

// Each run sets its deployment up at least minSetupReps times, and
// keeps repeating while the repetitions have taken less than setupBudget
// (up to maxSetupReps), so a set-up of a few milliseconds is timed often
// enough to have a steady median. setup_s is that median; the last
// deployment serves the window.
const (
	minSetupReps = 3
	maxSetupReps = 11
	setupBudget  = time.Second
)

// buildDir is where bench/run.sh puts the binaries and where runs keep
// their stores, queues, histories and traces, relative to the
// repository root.
const buildDir = ".bench_build"

// maxGenLagMS is the open-loop generator's p99 wake-up lag beyond which
// a window does not count.
const maxGenLagMS = 10

// runBudget bounds one workload's run, set-up to teardown.
const runBudget = 150 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout))
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same requests")
	seconds := fs.Float64("seconds", 15, "measured window per workload, in seconds")
	trace := fs.Int("trace", 0, "1 runs traced: per-layer metrics, replay spans and a Chrome trace")
	traceOut := fs.String("trace-out", "", "Chrome trace file of a traced run (default .bench_build/trace-<workload>-<seed>.json)")
	out := fs.String("out", "", "write the run's full report (header, metrics, details, layers) to this JSON file")
	quick := fs.Bool("quick", false, "smoke run: windows of a sixth of -seconds")
	obsMode := fs.String("obs", "default", "observability flags: default (each workload's own), on (-probe -health -journal -history) or off")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var selected []*workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	switch {
	case len(selected) == 0:
		fmt.Fprintf(os.Stderr, "e2e: unknown workload %q\n", *name)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(os.Stderr, "e2e: -trace takes 0 or 1")
		return 2
	case *obsMode != "default" && *obsMode != "on" && *obsMode != "off":
		fmt.Fprintf(os.Stderr, "e2e: unknown -obs %q\n", *obsMode)
		return 2
	case *seconds <= 0:
		fmt.Fprintln(os.Stderr, "e2e: -seconds must be positive")
		return 2
	}
	for _, b := range []string{"swserve", "swworker"} {
		if _, err := os.Stat(filepath.Join(buildDir, "bin", b)); err != nil {
			fmt.Fprintf(os.Stderr, "e2e: %v (build with bench/run.sh)\n", err)
			return 2
		}
	}
	window := time.Duration(*seconds * float64(time.Second))
	if *quick {
		window /= 6
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runBudget*time.Duration(len(selected)))
	defer cancel()
	defer stopAll()

	model, err := loadModel()
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
		return 1
	}
	hdr := newHeader(*seed, window, *obsMode)
	fmt.Printf("# e2e commit=%s go=%s nproc=%d gomaxprocs=%d seed=%d window_s=%g obs=%s calib_mops=%.1f\n",
		hdr.Commit, hdr.GoVersion, hdr.NumCPU, hdr.GOMAXPROCS, hdr.Seed, hdr.Window, hdr.Obs, hdr.CalibMops)

	e := &env{bin: filepath.Join(buildDir, "bin"), seed: *seed, obs: *obsMode, cl: newClient(), model: model}
	rf := runFile{Header: hdr, Workloads: map[string]*wlReport{}}
	for _, w := range selected {
		dir := filepath.Join(buildDir, "work", fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
		tf := *traceOut
		if tf == "" || len(selected) > 1 {
			tf = filepath.Join(buildDir, fmt.Sprintf("trace-%s-%d.json", w.name, *seed))
		}
		rep, err := runWorkload(ctx, e, w, dir, window, *trace == 1, tf, hdr.CalibMops)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2e: %s: %v\n", w.name, err)
			return 1
		}
		rf.Workloads[w.name] = rep
		printReport(w.name, rep)
	}
	if *out != "" {
		if err := writeJSON(*out, rf); err != nil {
			fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
			return 1
		}
	}
	res, err := resultLine(rf, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload sets the workload up, measures one window on the last
// deployment, and for a traced run adds the per-layer metrics, the
// replay and the Chrome trace.
func runWorkload(ctx context.Context, e *env, w *workload, dir string, window time.Duration, traced bool, traceFile string, calibMops float64) (*wlReport, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e.work = dir

	d, setups, err := setUp(ctx, e, w, dir)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	var before []scrape
	var calls0 int
	var time0 time.Duration
	if traced {
		if before, err = scrapeAll(ctx, e.cl, d); err != nil {
			return nil, err
		}
		calls0, time0 = e.cl.callTotals(w.opPaths)
	}
	// The host's speed around the window, on as many threads as the
	// server has engine workers; latency_norm_ms is scaled by it.
	speedBefore := calibrate(time.Second/2, serverWorkers)
	res := w.drive(ctx, e, d, window)
	speedAfter := calibrate(time.Second/2, serverWorkers)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("window interrupted: %w", err)
	}
	if len(res.samples) == 0 {
		return nil, fmt.Errorf("no operation succeeded: %v", first(res.problems, res.wrong))
	}
	rss := 0.0
	for _, p := range d.procs() {
		v, err := p.peakRSSMB()
		if err != nil {
			return nil, err
		}
		rss += v
	}
	rep := &wlReport{
		Correct:   len(res.wrong) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Traced:    traced,
		Metrics:   endToEnd(setups, res, rss, len(d.procs()), (speedBefore+speedAfter)/2),
		Details:   details(res),
		Problems:  firstN(append(append([]string(nil), res.wrong...), res.problems...), 20),
	}
	// An open loop only measures the server while the generator keeps its
	// schedule; the result line is still printed, and compare skips the run.
	if lag, ok := rep.Details["gen_lag_p99_ms"]; ok && lag.Value > maxGenLagMS {
		rep.Invalid = fmt.Sprintf("the load generator ran %.1f ms late at p99 (limit %d ms)", lag.Value, maxGenLagMS)
	}
	rep.Details["host.speed_before_mops"] = metric{Value: speedBefore, Unit: "Mops/s"}
	rep.Details["host.speed_after_mops"] = metric{Value: speedAfter, Unit: "Mops/s"}
	if !traced {
		return rep, nil
	}

	after, err := scrapeAll(ctx, e.cl, d)
	if err != nil {
		return nil, err
	}
	var deltas []scrape
	for i := range after {
		deltas = append(deltas, delta(before[i], after[i]))
	}
	calls1, time1 := e.cl.callTotals(w.opPaths)
	rep.Layers = windowLayers(merge(deltas...), w.opPaths, calls1-calls0, time1-time0)
	// The solver's step count is exact: it must equal the steps of the
	// recomputed cases, and stay 0 where every answer is served.
	want := 0.0
	for _, s := range res.samples {
		want += s.steps
	}
	rep.Details["llg.steps_expected"] = metric{Value: want, Unit: "count"}
	if got := rep.Layers["llg.steps"].Value; got != want {
		rep.Problems = append(rep.Problems, fmt.Sprintf("llg.steps is %g over the window, the answered cases need %g", got, want))
	}
	fl := map[string]metric{"checkpoint.saves": {Value: 0, Unit: "count"}}
	if len(res.requests) > 0 {
		if fl, err = fleetLayers(ctx, e.cl, d.base, res.requests); err != nil {
			return nil, err
		}
	}
	for k, v := range fl {
		rep.Layers[k] = v
	}
	d.stop()
	return rep, replayAndTrace(ctx, e, w, res, rep, calibMops, traceFile)
}

// setUp deploys the workload at least minSetupReps times, stopping all
// but the last deployment, and returns it with every set-up's duration.
func setUp(ctx context.Context, e *env, w *workload, dir string) (*deployment, []time.Duration, error) {
	var setups []time.Duration
	var spent time.Duration
	var d *deployment
	for k := 0; k < maxSetupReps && (k < minSetupReps || spent < setupBudget); k++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var err error
		if d, err = w.deploy(ctx, e, filepath.Join(dir, fmt.Sprintf("deploy%d", k))); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0))
		spent += setups[k]
	}
	return d, setups, nil
}

// replayAndTrace runs the in-process replay under spans, adds its
// per-layer metrics and each span name's self time to rep, and writes
// the window's client spans and the replay's spans as a Chrome trace.
func replayAndTrace(ctx context.Context, e *env, w *workload, res *windowResult, rep *wlReport, calibMops float64, traceFile string) error {
	tr := &tracer{}
	for i, s := range res.samples {
		tr.add(span{ID: tr.newID(), Request: fmt.Sprintf("op-%d", i), Name: "client." + s.kind,
			Start: s.start, Dur: s.latency})
	}
	prev := spinwave.SetSpanSink(tr)
	err := w.replay(ctx, e, tr)
	spinwave.SetSpanSink(prev)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	for k, v := range replayLayers(tr, e.model, calibMops) {
		rep.Layers[k] = v
	}
	for _, l := range tr.layers() {
		rep.Details["self_ms."+l.name] = metric{Value: ms(l.self), Unit: "ms", N: l.n}
	}
	if err := os.MkdirAll(filepath.Dir(traceFile), 0o755); err != nil {
		return err
	}
	if err := tr.writeChrome(traceFile); err != nil {
		return err
	}
	fmt.Printf("# %s trace written to %s (%d spans)\n", w.name, traceFile, len(tr.snapshot()))
	return nil
}

// scrapeAll scrapes /metrics of every process of the deployment.
func scrapeAll(ctx context.Context, cl *client, d *deployment) ([]scrape, error) {
	var out []scrape
	for _, base := range d.metricsBases() {
		s, err := cl.getMetrics(ctx, base)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultLine builds the final line: the end-to-end metrics of an
// untraced run or the per-layer metrics of a traced one, exactly the
// names BENCHMARK.json lists. With several workloads each name is
// prefixed "workload/".
func resultLine(rf runFile, traced bool) (result, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	defs, pick := e2eMetrics, func(r *wlReport) map[string]metric { return r.Metrics }
	if traced {
		defs, pick = layerMetrics, func(r *wlReport) map[string]metric { return r.Layers }
	}
	names := make([]string, 0, len(rf.Workloads))
	for n := range rf.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r := rf.Workloads[n]
		res.Correct = res.Correct && r.Correct
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for _, def := range defs {
			m, ok := pick(r)[def.name]
			if !ok {
				return res, fmt.Errorf("%s: metric %s was not measured", n, def.name)
			}
			key := def.name
			if len(names) > 1 {
				key = n + "/" + def.name
			}
			res.Metrics[key] = metric{Value: m.Value, Unit: def.unit}
		}
	}
	return res, nil
}

// printReport prints one line per metric: end-to-end, details, layers.
func printReport(name string, r *wlReport) {
	for _, group := range []map[string]metric{r.Metrics, r.Details, r.Layers} {
		for _, k := range sortedNames(group) {
			m := group[k]
			fmt.Printf("%s %s %.6g %s n=%d\n", name, k, m.Value, m.Unit, m.N)
		}
	}
	fmt.Printf("%s attempted %d failed %d correct %t\n", name, r.Attempted, r.Failed, r.Correct)
	if r.Invalid != "" {
		fmt.Printf("# %s invalid window: %s\n", name, r.Invalid)
	}
	for _, p := range r.Problems {
		fmt.Printf("# %s problem: %s\n", name, p)
	}
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func firstN(xs []string, n int) []string {
	if len(xs) > n {
		return xs[:n]
	}
	return xs
}

// first returns the first message of the lists, for an error report.
func first(lists ...[]string) error {
	for _, l := range lists {
		if len(l) > 0 {
			return errors.New(l[0])
		}
	}
	return errors.New("no operation attempted")
}
