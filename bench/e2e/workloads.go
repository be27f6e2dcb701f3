package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"time"
)

// workload is one traffic mix. deploy starts the processes and prepares
// them for load (the part setup_s times); drive runs the measured
// window; replay re-runs a seeded sample of the same requests in process
// with spans (traced runs only).
type workload struct {
	name string
	// opPaths are the client paths whose server handler time is the
	// workload's swserve.http_ms.
	opPaths []string
	deploy  func(ctx context.Context, e *env, dir string) (*deployment, error)
	drive   func(ctx context.Context, e *env, d *deployment, window time.Duration) *windowResult
	replay  func(ctx context.Context, e *env, tr *tracer) error
}

// workloads is the benchmark's registry, in run order. BENCHMARK.json
// lists the same names with the reason for each workload.
var workloads = []*workload{
	{
		name:    "micromag-cold",
		opPaths: []string{"/v1/table"},
		deploy:  deployMicromagCold,
		drive:   driveMicromagCold,
		replay:  replayMicromagCold,
	},
	{
		name:    "serve-warm",
		opPaths: []string{"/v1/eval", "/v1/table"},
		deploy:  deployServeWarm,
		drive:   driveServeWarm,
		replay:  replayServeWarm,
	},
	{
		name:    "store-churn",
		opPaths: []string{"/v1/eval"},
		deploy:  deployStoreChurn,
		drive:   driveStoreChurn,
		replay:  replayStoreChurn,
	},
	{
		name:    "fleet-table",
		opPaths: []string{"/v1/fleet/jobs", "/v1/fleet/jobs/id"},
		deploy:  deployFleetTable,
		drive:   driveFleetTable,
		replay:  replayFleetTable,
	},
}

// env is what every workload function shares within one run.
type env struct {
	bin  string // directory holding swserve and swworker
	seed int64
	// obs selects the observability flags: "default" (each workload's
	// own), "on" (-probe -health -journal -history) or "off" (none).
	obs   string
	cl    *client
	model map[string]gateWork
	work  string // the run's scratch directory
}

// deployment is one started configuration: the server (coordinator for
// the fleet), any workers, and the reference readouts (all-zeros rows)
// the oracle decodes single cases against, keyed "mode/gate".
type deployment struct {
	server  *proc
	workers []*proc
	base    string
	refs    map[string]map[string]readout
}

func newDeployment(server *proc) *deployment {
	return &deployment{server: server, base: "http://" + server.addr, refs: map[string]map[string]readout{}}
}

func (d *deployment) procs() []*proc { return append([]*proc{d.server}, d.workers...) }

// metricsBases are the /metrics endpoints of every process.
func (d *deployment) metricsBases() []string {
	out := []string{d.base}
	for _, w := range d.workers {
		out = append(out, "http://"+w.addr)
	}
	return out
}

// stop stops the workers, then the server they report to.
func (d *deployment) stop() {
	ps := d.procs()
	for i := len(ps) - 1; i >= 0; i-- {
		ps[i].stop()
	}
}

// opSample is one operation answered correctly by the expected tier.
type opSample struct {
	kind      string
	start     time.Time // when it was sent (open loop: when it was due)
	latency   time.Duration
	cellSteps float64 // solver work behind a recomputed answer
	steps     float64 // integrator steps behind it
	phase     int     // open-loop phase, 0 for closed loops
}

// windowResult is what a measured window produced.
type windowResult struct {
	samples   []opSample
	attempted int
	failed    int
	wrong     []string // wrong bits: the run is incorrect
	problems  []string // errors and wrong tiers: failed operations
	elapsed   time.Duration
	// Open loop only.
	phases []phase
	lag    []time.Duration
	late   int
	// Fleet only: request IDs, for the traced run's event timings.
	requests []string
}

// record files one operation's outcome.
func (r *windowResult) record(s opSample, err error, tierErr string, wrong []string) {
	r.attempted++
	switch {
	case len(wrong) > 0:
		r.failed++
		r.wrong = append(r.wrong, wrong...)
	case err != nil:
		r.failed++
		r.problems = append(r.problems, err.Error())
	case tierErr != "":
		r.failed++
		r.problems = append(r.problems, s.kind+": "+tierErr)
	default:
		r.samples = append(r.samples, s)
	}
}

// serverWorkers is every swserve's engine pool size: the host's two
// cores.
const serverWorkers = 2

var (
	listenRE  = regexp.MustCompile(`listening on (\S+)`)
	metricsRE = regexp.MustCompile(`metrics on http://(\S+)/metrics`)
)

// startServer starts swserve on a free loopback port with the
// workload's flags plus the run's observability flags.
func startServer(ctx context.Context, e *env, dir string, history bool, extra ...string) (*proc, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", strconv.Itoa(serverWorkers)}, extra...)
	switch e.obs {
	case "on":
		args = append(args, "-probe", "-health", "-journal", filepath.Join(dir, "journal.jsonl"),
			"-history", filepath.Join(dir, "history"))
	case "default":
		if history {
			args = append(args, "-history", filepath.Join(dir, "history"))
		}
	}
	return startProc(ctx, "swserve", filepath.Join(e.bin, "swserve"), filepath.Join(dir, "tmp"), listenRE, args...)
}

// post sends one JSON POST to the deployment.
func (e *env) post(ctx context.Context, d *deployment, path string, body, out any) error {
	return e.cl.do(ctx, http.MethodPost, d.base+path, path, body, out)
}

// prepareTable requests one table during set-up and checks it, so the
// set-up itself is verified; it stores the table's all-zeros row as the
// reference for later single cases.
func (e *env) prepareTable(ctx context.Context, d *deployment, gate, mode string, tiers ...string) error {
	var t tableResponse
	if err := e.post(ctx, d, "/v1/table", map[string]any{"gate": gate, "mode": mode}, &t); err != nil {
		return fmt.Errorf("set-up %s %s table: %w", mode, gate, err)
	}
	if bad := checkTable(gate, false, &t); len(bad) > 0 {
		return fmt.Errorf("set-up %s %s table is wrong: %v", mode, gate, bad)
	}
	if msg := checkTier(t.Source, tiers...); msg != "" {
		return fmt.Errorf("set-up %s %s table %s", mode, gate, msg)
	}
	ref, err := tableRef(&t)
	if err != nil {
		return err
	}
	d.refs[mode+"/"+gate] = ref
	return nil
}

// ---- micromag-cold ----

// tableOp is one truth-table request.
type tableOp struct {
	gate     string
	inverted bool // XNOR decoding of an XOR table
}

// micromagCycle returns one seeded cycle: an XOR and a MAJ3 table in
// seeded order, the XOR table decoded as XOR or XNOR.
func micromagCycle(rng *rand.Rand) []tableOp {
	ops := []tableOp{{gate: "xor", inverted: rng.Intn(2) == 1}, {gate: "maj3"}}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

func deployMicromagCold(ctx context.Context, e *env, dir string) (*deployment, error) {
	p, err := startServer(ctx, e, dir, true, "-cache", "0")
	if err != nil {
		return nil, err
	}
	return newDeployment(p), nil
}

// driveMicromagCold runs whole cycles until the window has passed, so
// every run measures the same mix.
func driveMicromagCold(ctx context.Context, e *env, d *deployment, window time.Duration) *windowResult {
	res := &windowResult{}
	rng := rand.New(rand.NewSource(e.seed))
	start := time.Now()
	for time.Since(start) < window && ctx.Err() == nil {
		for _, op := range micromagCycle(rng) {
			t0 := time.Now()
			var t tableResponse
			err := e.post(ctx, d, "/v1/table",
				map[string]any{"gate": op.gate, "mode": "micromag", "inverted": op.inverted}, &t)
			s := opSample{kind: op.gate + "_table", start: t0, latency: time.Since(t0)}
			var wrong []string
			tierErr := ""
			if err == nil {
				wrong = checkTable(op.gate, op.inverted, &t)
				tierErr = checkTier(t.Source, "micromag")
				g := e.model[op.gate]
				s.cellSteps = g.cellSteps() * float64(len(t.Cases))
				s.steps = float64(g.steps * len(t.Cases))
			}
			res.record(s, err, tierErr, wrong)
		}
	}
	res.elapsed = time.Since(start)
	return res
}

// ---- serve-warm ----

// warmOp is one serve-warm request.
type warmOp struct {
	kind  string // auto_xor_eval, mm_maj3_table, beh_table, beh_maj5_table, beh_eval
	gate  string
	cases [][]bool
}

// warmDeck fixes the mix per ten requests: 4 surrogate XOR evals, 3
// cached micromag MAJ3 tables, 3 behavioral requests. Seven in ten build
// a micromag backend, the cost that dominates warm requests.
var warmDeck = []string{
	"auto_xor_eval", "auto_xor_eval", "auto_xor_eval", "auto_xor_eval",
	"mm_maj3_table", "mm_maj3_table", "mm_maj3_table",
	"beh_table", "beh_maj5_table", "beh_eval",
}

// warmOps returns n seeded serve-warm requests.
func warmOps(seed int64, n int) []warmOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]warmOp, 0, n)
	for len(ops) < n {
		deck := append([]string(nil), warmDeck...)
		rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		for _, kind := range deck {
			op := warmOp{kind: kind}
			switch kind {
			case "auto_xor_eval":
				op.gate = "xor"
				op.cases = randomCases(rng, 2, 1+rng.Intn(2))
			case "mm_maj3_table":
				op.gate = "maj3"
			case "beh_table":
				op.gate = []string{"xor", "maj3"}[rng.Intn(2)]
			case "beh_maj5_table":
				op.gate = "maj5"
			case "beh_eval":
				op.gate = []string{"xor", "maj3", "maj5"}[rng.Intn(3)]
				op.cases = randomCases(rng, gates[op.gate].inputs, 1+rng.Intn(4))
			}
			ops = append(ops, op)
		}
	}
	return ops[:n]
}

// randomCases draws n distinct input vectors of a gate with k inputs.
func randomCases(rng *rand.Rand, k, n int) [][]bool {
	perm := rng.Perm(1 << k)
	out := make([][]bool, n)
	for i := range out {
		out[i] = make([]bool, k)
		for b := 0; b < k; b++ {
			out[i][b] = perm[i]&(1<<b) != 0
		}
	}
	return out
}

// warmRequest maps a serve-warm op to its endpoint, body, and the mode
// and tiers its answers must come from.
func warmRequest(op warmOp) (path string, body map[string]any, mode string, tiers []string) {
	switch op.kind {
	case "auto_xor_eval":
		return "/v1/eval", map[string]any{"gate": "xor", "mode": "auto", "cases": op.cases}, "auto", []string{"surrogate"}
	case "mm_maj3_table":
		return "/v1/table", map[string]any{"gate": "maj3", "mode": "micromag"}, "micromag", []string{"cache"}
	case "beh_eval":
		return "/v1/eval", map[string]any{"gate": op.gate, "mode": "behavioral", "cases": op.cases},
			"behavioral", []string{"cache", "behavioral"}
	default: // beh_table, beh_maj5_table
		return "/v1/table", map[string]any{"gate": op.gate, "mode": "behavioral"},
			"behavioral", []string{"cache", "behavioral"}
	}
}

func deployServeWarm(ctx context.Context, e *env, dir string) (*deployment, error) {
	p, err := startServer(ctx, e, dir, true, "-surrogate", "xor")
	if err != nil {
		return nil, err
	}
	d := newDeployment(p)
	prep := []struct{ gate, mode, tier string }{
		{"maj3", "micromag", "micromag"}, // pre-warms the cache the window reads
		{"xor", "auto", "surrogate"},     // fails unless the XOR surrogate was admitted
		{"xor", "behavioral", "behavioral"},
		{"maj3", "behavioral", "behavioral"},
		{"maj5", "behavioral", "behavioral"},
	}
	for _, pr := range prep {
		if err := e.prepareTable(ctx, d, pr.gate, pr.mode, pr.tier); err != nil {
			p.stop()
			return nil, err
		}
	}
	return d, nil
}

// checkWarm validates one serve-warm answer.
func checkWarm(op warmOp, mode string, tiers []string, refs map[string]map[string]readout, body any) (tierErr string, wrong []string) {
	switch r := body.(type) {
	case *evalResponse:
		if len(r.Results) != len(op.cases) {
			return "", []string{fmt.Sprintf("%s: %d results for %d cases", op.kind, len(r.Results), len(op.cases))}
		}
		for i, res := range r.Results {
			if tierErr == "" {
				tierErr = checkTier(res.Source, tiers...)
			}
			wrong = append(wrong, checkCase(op.gate, false, refs[mode+"/"+op.gate], res.Outputs, op.cases[i])...)
		}
	case *tableResponse:
		tierErr = checkTier(r.Source, tiers...)
		wrong = checkTable(op.gate, false, r)
	}
	return tierErr, wrong
}

// warmPhases is the open-loop schedule: half the window at 150/s, half
// at 400/s (the knee on two cores is near 600/s).
func warmPhases(window time.Duration) []phase {
	return []phase{{label: "r150", rate: 150, dur: window / 2}, {label: "r400", rate: 400, dur: window / 2}}
}

func driveServeWarm(ctx context.Context, e *env, d *deployment, window time.Duration) *windowResult {
	phases := warmPhases(window)
	due, phaseOf := schedule(phases)
	ops := warmOps(e.seed, len(due))
	// Responses are checked after the window, so the oracle's time is
	// not charged to the requests behind them.
	resps := make([]any, len(due))
	errs := make([]error, len(due))
	start := time.Now().Add(20 * time.Millisecond)
	ol := runOpenLoop(ctx, wallClock{}, start, due, maxConns, func(i int) {
		path, body, _, _ := warmRequest(ops[i])
		resps[i] = &tableResponse{}
		if path == "/v1/eval" {
			resps[i] = &evalResponse{}
		}
		errs[i] = e.post(ctx, d, path, body, resps[i])
	})
	res := &windowResult{phases: phases, lag: ol.lag, late: ol.late}
	var last time.Duration
	for i := range due {
		if !ol.sent[i] {
			continue
		}
		if end := due[i] + ol.latency[i]; end > last {
			last = end
		}
		var tierErr string
		var wrong []string
		if errs[i] == nil {
			_, _, mode, tiers := warmRequest(ops[i])
			tierErr, wrong = checkWarm(ops[i], mode, tiers, d.refs, resps[i])
		}
		res.record(opSample{kind: ops[i].kind, start: start.Add(due[i]), latency: ol.latency[i], phase: phaseOf[i]},
			errs[i], tierErr, wrong)
	}
	res.elapsed = last
	return res
}

// ---- store-churn ----

// churnCache is the server's LRU capacity in cases. The stored working
// set — the 4 XOR and 8 MAJ3 micromag cases — is three times larger, so
// most lookups fall through to the disk tier.
const churnCache = "4"

// churnOp is one 4-case batch; gates are drawn in proportion to their
// stored cases, so every stored case is equally likely.
func churnOp(rng *rand.Rand) (gate string, cases [][]bool) {
	gate = "maj3"
	if rng.Intn(12) < 4 {
		gate = "xor"
	}
	return gate, randomCases(rng, gates[gate].inputs, 4)
}

func deployStoreChurn(ctx context.Context, e *env, dir string) (*deployment, error) {
	p, err := startServer(ctx, e, dir, true, "-cache", churnCache, "-store", filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	d := newDeployment(p)
	for _, g := range []string{"xor", "maj3"} {
		if err := e.prepareTable(ctx, d, g, "micromag", "micromag"); err != nil {
			p.stop()
			return nil, err
		}
	}
	return d, nil
}

func driveStoreChurn(ctx context.Context, e *env, d *deployment, window time.Duration) *windowResult {
	res := &windowResult{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	var last time.Duration
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(e.seed*7919 + int64(c)))
			for time.Since(start) < window && ctx.Err() == nil {
				gate, cases := churnOp(rng)
				t0 := time.Now()
				var r evalResponse
				err := e.post(ctx, d, "/v1/eval", map[string]any{"gate": gate, "mode": "micromag", "cases": cases}, &r)
				s := opSample{kind: gate + "_batch", start: t0, latency: time.Since(t0)}
				var wrong []string
				tierErr := ""
				if err == nil {
					if len(r.Results) != len(cases) {
						wrong = []string{fmt.Sprintf("%d results for %d cases", len(r.Results), len(cases))}
					}
					for i := range r.Results {
						if tierErr == "" {
							tierErr = checkTier(r.Results[i].Source, "cache", "disk")
						}
						if i < len(cases) {
							wrong = append(wrong, checkCase(gate, false, d.refs["micromag/"+gate], r.Results[i].Outputs, cases[i])...)
						}
					}
				}
				mu.Lock()
				res.record(s, err, tierErr, wrong)
				if end := time.Since(start); end > last {
					last = end
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	res.elapsed = last
	return res
}

// ---- fleet-table ----

// fleetPoll is the workers' idle re-poll interval. The coordinator
// would suggest lease/10 = 3 s, which makes the poll timer, not the
// fleet path, set table latency (see bench/README.md).
const fleetPoll = "50ms"

func deployFleetTable(ctx context.Context, e *env, dir string) (*deployment, error) {
	p, err := startServer(ctx, e, dir, true, "-fleet-queue", filepath.Join(dir, "queue"),
		"-fleet-shard", "1", "-artifacts", filepath.Join(dir, "artifacts"))
	if err != nil {
		return nil, err
	}
	d := newDeployment(p)
	for i := 0; i < 2; i++ {
		w, err := startProc(ctx, "swworker", filepath.Join(e.bin, "swworker"),
			filepath.Join(dir, fmt.Sprintf("tmp-w%d", i)), metricsRE,
			"-coordinator", d.base, "-workers", "1", "-cache", "0", "-poll", fleetPoll,
			"-metrics-addr", "127.0.0.1:0")
		if err != nil {
			d.stop()
			return nil, err
		}
		d.workers = append(d.workers, w)
	}
	// Ready once both workers have registered.
	for {
		var st struct {
			Snapshot struct {
				Workers int `json:"workers"`
			} `json:"snapshot"`
		}
		if err := e.cl.do(ctx, http.MethodGet, d.base+"/v1/fleet/workers", "/v1/fleet/workers", nil, &st); err != nil {
			d.stop()
			return nil, err
		}
		if st.Snapshot.Workers >= 2 {
			return d, nil
		}
		select {
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// fleetStatus is the part of GET /v1/fleet/jobs/{id} the benchmark reads.
type fleetStatus struct {
	ID      string         `json:"request_id"`
	State   string         `json:"state"`
	Results []evalResult   `json:"results"`
	Table   *tableResponse `json:"table"`
}

// fleetRequest submits one fleet request and polls it to completion.
func (e *env) fleetRequest(ctx context.Context, d *deployment, body map[string]any) (*fleetStatus, error) {
	var st fleetStatus
	if err := e.post(ctx, d, "/v1/fleet/jobs", body, &st); err != nil {
		return nil, err
	}
	id := st.ID
	for {
		switch st.State {
		case "complete":
			return &st, nil
		case "failed":
			return &st, fmt.Errorf("fleet request %s failed", id)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
		st = fleetStatus{}
		if err := e.cl.do(ctx, http.MethodGet, d.base+"/v1/fleet/jobs/"+id, "/v1/fleet/jobs/id", nil, &st); err != nil {
			return nil, err
		}
	}
}

// fleetOp is one fleet request: a full XOR table, or one XOR case run as
// a 3-segment checkpointed transient.
type fleetOp struct {
	seg      bool
	inverted bool
	inputs   []bool
}

// fleetCycle returns one seeded cycle: a table, then a segmented case
// decoded against that table's all-zeros row.
func fleetCycle(rng *rand.Rand) []fleetOp {
	return []fleetOp{
		{inverted: rng.Intn(2) == 1},
		{seg: true, inputs: randomCases(rng, 2, 1)[0]},
	}
}

func driveFleetTable(ctx context.Context, e *env, d *deployment, window time.Duration) *windowResult {
	res := &windowResult{}
	rng := rand.New(rand.NewSource(e.seed))
	xor := e.model["xor"]
	var ref map[string]readout
	start := time.Now()
	for time.Since(start) < window && ctx.Err() == nil {
		for _, op := range fleetCycle(rng) {
			body := map[string]any{"gate": "xor", "backend": "micromag"}
			kind := "xor_table"
			if op.seg {
				kind = "seg_case"
				body["cases"] = [][]bool{op.inputs}
				body["segments"] = 3
			} else {
				body["table"] = true
				body["inverted"] = op.inverted
			}
			t0 := time.Now()
			st, err := e.fleetRequest(ctx, d, body)
			s := opSample{kind: kind, start: t0, latency: time.Since(t0)}
			var wrong []string
			tierErr := ""
			if err == nil {
				res.requests = append(res.requests, st.ID)
				for _, r := range st.Results {
					if tierErr == "" {
						tierErr = checkTier(r.Source, "micromag")
					}
				}
				s.cellSteps = xor.cellSteps() * float64(len(st.Results))
				s.steps = float64(xor.steps * len(st.Results))
				switch {
				case op.seg && len(st.Results) != 1:
					wrong = []string{fmt.Sprintf("segmented case returned %d results", len(st.Results))}
				case op.seg:
					wrong = checkCase("xor", false, ref, st.Results[0].Outputs, op.inputs)
				case st.Table == nil:
					wrong = []string{"completed fleet table request carries no table"}
				default:
					wrong = checkTable("xor", op.inverted, st.Table)
					if r, rerr := tableRef(st.Table); rerr == nil {
						ref = r
					}
				}
			}
			res.record(s, err, tierErr, wrong)
		}
	}
	res.elapsed = time.Since(start)
	return res
}
