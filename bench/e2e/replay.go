package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"time"

	"spinwave"
	"spinwave/internal/runhistory"
)

// The traced run replays a seeded sample of the workload in process,
// timing with spans the public functions swserve and swworker call —
// backend construction, the tiered engine, the history append — while
// spinwave.SetSpanSink collects the solver's own setup, transient and
// lock-in spans. The sample is 200 requests where requests are cheap and
// one cycle where each is a multi-second micromag table.

// replaySample is how many cheap requests a replay times.
const replaySample = 200

// gateWork is the solver work of one micromag case of a gate.
type gateWork struct {
	cells int
	steps int
}

func (g gateWork) cellSteps() float64 { return float64(g.cells) * float64(g.steps) }

// loadModel reads each micromag gate's cell count and step count from
// the public backend, keyed by request name and by the gate's String
// (the "gate" label of solver spans).
func loadModel() (map[string]gateWork, error) {
	m := map[string]gateWork{}
	for name, kind := range map[string]spinwave.GateKind{"xor": spinwave.XOR, "maj3": spinwave.MAJ3} {
		b, err := spinwave.NewMicromagnetic(kind)
		if err != nil {
			return nil, err
		}
		w := gateWork{cells: b.Region.Count(), steps: int(b.Duration() / b.Dt())}
		m[name] = w
		m[kind.String()] = w
	}
	return m, nil
}

var gateKinds = map[string]spinwave.GateKind{"xor": spinwave.XOR, "maj3": spinwave.MAJ3, "maj5": spinwave.MAJ5}

// replayer runs requests in process under spans.
type replayer struct {
	tr  *tracer
	eng *spinwave.Engine
	cat *runhistory.Catalog
	n   int
}

func newReplayer(tr *tracer, dir string, opts ...spinwave.EngineOption) (*replayer, error) {
	cat, err := runhistory.Open(filepath.Join(dir, "history"))
	if err != nil {
		return nil, err
	}
	return &replayer{tr: tr, eng: spinwave.NewEngine(opts...), cat: cat}, nil
}

// request times f as one replayed request: the root span of a fresh
// request ID.
func (r *replayer) request(kind string, f func(root int64, req string) error) error {
	r.n++
	req := fmt.Sprintf("replay-%d", r.n)
	id := r.tr.newID()
	start := time.Now()
	err := f(id, req)
	r.tr.finish(id, 0, req, "replay.request", start, "kind", kind)
	return err
}

// backend builds a gate's backend the way swserve does, under a
// core.new_micromag or core.new_behavioral span.
func (r *replayer) backend(root int64, req, gate, mode string) (spinwave.Backend, error) {
	kind, ok := gateKinds[gate]
	if !ok {
		return nil, fmt.Errorf("replay: unknown gate %q", gate)
	}
	id, start := r.tr.newID(), time.Now()
	if mode == "behavioral" {
		b, err := spinwave.NewBehavioral(kind, spinwave.PaperSpec(), spinwave.FeCoB())
		r.tr.finish(id, root, req, "core.new_behavioral", start, "gate", gate)
		return b, err
	}
	b, err := spinwave.NewMicromagnetic(kind)
	r.tr.finish(id, root, req, "core.new_micromag", start, "gate", gate)
	return b, err
}

// table runs a truth table through the engine under an engine.table
// span labeled with the tier that answered; solver spans nest under it.
func (r *replayer) table(ctx context.Context, root int64, req string, b spinwave.Backend, gate string, inverted bool, mode spinwave.EvalMode) error {
	id, start := r.tr.newID(), time.Now()
	var tt *spinwave.TruthTable
	var src spinwave.EvalSource
	var err error
	r.tr.within(id, req, func() {
		if gate == "xor" {
			tt, src, err = r.eng.XORTableTiered(ctx, b, inverted, mode)
		} else {
			tt, src, err = r.eng.MajorityTableTiered(ctx, b, mode)
		}
	})
	r.tr.finish(id, root, req, "engine.table", start, "gate", gate, "tier", string(src))
	if err == nil && !tt.AllCorrect() {
		err = fmt.Errorf("replay: %s table decoded wrong", gate)
	}
	return err
}

// eval runs one case under an engine.eval span labeled with the tier.
func (r *replayer) eval(ctx context.Context, root int64, req string, b spinwave.Backend, in []bool, mode spinwave.EvalMode) (spinwave.EvalSource, error) {
	id, start := r.tr.newID(), time.Now()
	var res spinwave.EvalResult
	var err error
	r.tr.within(id, req, func() { res, err = r.eng.EvalTiered(ctx, b, in, mode) })
	r.tr.finish(id, root, req, "engine.eval", start, "tier", string(res.Source))
	return res.Source, err
}

// history appends one catalog record per answered unit, as swserve
// does, under a runhistory.append span.
func (r *replayer) history(root int64, req, kind, gate string, n int) error {
	recs := make([]runhistory.Record, n)
	for i := range recs {
		recs[i] = runhistory.Record{ID: spinwave.NewRunID(), Kind: kind, Gate: gate, Cases: 1}
	}
	id, start := r.tr.newID(), time.Now()
	_, err := r.cat.Append(recs...)
	r.tr.finish(id, root, req, "runhistory.append", start, "records", strconv.Itoa(n))
	return err
}

// tableRequest replays one /v1/table request.
func (r *replayer) tableRequest(ctx context.Context, kind, gate, backendMode string, inverted bool, mode spinwave.EvalMode) error {
	return r.request(kind, func(root int64, req string) error {
		b, err := r.backend(root, req, gate, backendMode)
		if err != nil {
			return err
		}
		if err := r.table(ctx, root, req, b, gate, inverted, mode); err != nil {
			return err
		}
		return r.history(root, req, "table", gate, 1)
	})
}

// evalRequest replays one /v1/eval request, checking each case's tier.
func (r *replayer) evalRequest(ctx context.Context, kind, gate, backendMode string, cases [][]bool, mode spinwave.EvalMode, tiers ...string) error {
	return r.request(kind, func(root int64, req string) error {
		b, err := r.backend(root, req, gate, backendMode)
		if err != nil {
			return err
		}
		for _, in := range cases {
			src, err := r.eval(ctx, root, req, b, in, mode)
			if err != nil {
				return err
			}
			if msg := checkTier(string(src), tiers...); msg != "" {
				return fmt.Errorf("replay %s: %s", kind, msg)
			}
		}
		return r.history(root, req, "eval", gate, len(cases))
	})
}

func replayMicromagCold(ctx context.Context, e *env, tr *tracer) error {
	r, err := newReplayer(tr, e.work, spinwave.WithEngineWorkers(2), spinwave.WithEngineCacheSize(0))
	if err != nil {
		return err
	}
	for _, op := range micromagCycle(rand.New(rand.NewSource(e.seed))) {
		if err := r.tableRequest(ctx, op.gate+"_table", op.gate, "micromag", op.inverted, spinwave.EvalModeDirect); err != nil {
			return err
		}
	}
	return nil
}

func replayServeWarm(ctx context.Context, e *env, tr *tracer) error {
	r, err := newReplayer(tr, e.work, spinwave.WithEngineWorkers(2))
	if err != nil {
		return err
	}
	// Set-up: build and admit the XOR surrogate, pre-warm MAJ3.
	err = r.request("setup_surrogate", func(root int64, req string) error {
		b, err := r.backend(root, req, "xor", "micromag")
		if err != nil {
			return err
		}
		m := b.(*spinwave.Micromagnetic)
		id, start := r.tr.newID(), time.Now()
		var model *spinwave.SurrogateModel
		r.tr.within(id, req, func() { model, err = spinwave.BuildSurrogate(ctx, m) })
		r.tr.finish(id, root, req, "surrogate.build", start, "gate", "xor")
		if err != nil {
			return err
		}
		return r.eng.AdmitSurrogate(model)
	})
	if err != nil {
		return err
	}
	if err := r.tableRequest(ctx, "setup_prewarm", "maj3", "micromag", false, spinwave.EvalModeDirect); err != nil {
		return err
	}
	for _, op := range warmOps(e.seed, replaySample) {
		switch op.kind {
		case "auto_xor_eval":
			err = r.evalRequest(ctx, op.kind, "xor", "micromag", op.cases, spinwave.EvalModeAuto, "surrogate")
		case "beh_eval":
			err = r.evalRequest(ctx, op.kind, op.gate, "behavioral", op.cases, spinwave.EvalModeDirect, "cache", "behavioral")
		case "mm_maj3_table":
			err = r.tableRequest(ctx, op.kind, "maj3", "micromag", false, spinwave.EvalModeDirect)
		default:
			err = r.tableRequest(ctx, op.kind, op.gate, "behavioral", false, spinwave.EvalModeDirect)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func replayStoreChurn(ctx context.Context, e *env, tr *tracer) error {
	store, err := spinwave.OpenDiskStore(filepath.Join(e.work, "replay-store"))
	if err != nil {
		return err
	}
	cache, _ := strconv.Atoi(churnCache)
	r, err := newReplayer(tr, e.work, spinwave.WithEngineWorkers(2),
		spinwave.WithEngineCacheSize(cache), spinwave.WithEngineDiskStore(store))
	if err != nil {
		return err
	}
	for _, g := range []string{"xor", "maj3"} {
		if err := r.tableRequest(ctx, "setup_populate", g, "micromag", false, spinwave.EvalModeDirect); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(e.seed * 7919))
	for i := 0; i < replaySample; i++ {
		gate, cases := churnOp(rng)
		if err := r.evalRequest(ctx, gate+"_batch", gate, "micromag", cases, spinwave.EvalModeDirect, "cache", "disk"); err != nil {
			return err
		}
	}
	return nil
}

// replayFleetTable replays the worker side of one fleet XOR table: with
// -fleet-shard 1 each case is its own job, and a worker builds the
// backend and evaluates the case through its engine per job.
func replayFleetTable(ctx context.Context, e *env, tr *tracer) error {
	r, err := newReplayer(tr, e.work, spinwave.WithEngineWorkers(1), spinwave.WithEngineCacheSize(0))
	if err != nil {
		return err
	}
	return r.request("xor_table", func(root int64, req string) error {
		for _, in := range randomCases(rand.New(rand.NewSource(e.seed)), 2, 4) {
			b, err := r.backend(root, req, "xor", "micromag")
			if err != nil {
				return err
			}
			src, err := r.eval(ctx, root, req, b, in, spinwave.EvalModeDirect)
			if err != nil {
				return err
			}
			if msg := checkTier(string(src), "micromag"); msg != "" {
				return fmt.Errorf("replay fleet job: %s", msg)
			}
		}
		return r.history(root, req, "fleet", "xor", 1)
	})
}
