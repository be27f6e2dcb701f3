package engine

import (
	"context"
	"fmt"

	"spinwave/internal/core"
	"spinwave/internal/detect"
)

// SourceMixed is the aggregate Source of a multi-case evaluation whose
// cases were answered by different tiers.
const SourceMixed Source = "mixed"

// evalCasesTiered evaluates the input combinations through EvalBatch
// and also reports the aggregate source: the single tier that answered
// every case, or SourceMixed.
func (e *Engine) evalCasesTiered(ctx context.Context, b core.Backend, inputs [][]bool, mode Mode) ([]map[string]detect.Readout, Source, error) {
	res, err := e.EvalBatch(ctx, b, inputs, mode, nil)
	if err != nil {
		return nil, "", err
	}
	outs := make([]map[string]detect.Readout, len(res))
	agg := res[0].Source
	for i, r := range res {
		outs[i] = r.Readouts
		if r.Source != agg {
			agg = SourceMixed
		}
	}
	return outs, agg, nil
}

// MajorityTable reproduces the paper's Table I through the engine: all
// input cases of a MAJ3-family backend evaluated as one batch (the
// recomputes concurrently on the worker pool), then decoded exactly as
// core.MajorityTruthTable would.
func (e *Engine) MajorityTable(ctx context.Context, b core.Backend) (*core.TruthTable, error) {
	tt, _, err := e.MajorityTableTiered(ctx, b, ModeDirect)
	return tt, err
}

// MajorityTableTiered is MajorityTable through the tiered store: each
// case is answered by the cheapest tier the mode allows, and the
// aggregate source of the rows is reported alongside the table.
func (e *Engine) MajorityTableTiered(ctx context.Context, b core.Backend, mode Mode) (*core.TruthTable, Source, error) {
	if b.Kind() == core.XOR {
		return nil, "", fmt.Errorf("engine: majority truth table needs a MAJ3 backend, got %s", b.Kind())
	}
	outs, src, err := e.evalCasesTiered(ctx, b, core.EnumerateInputs(b.Kind().NumInputs()), mode)
	if err != nil {
		return nil, "", err
	}
	tt, err := core.AssembleMajorityTable(b.Kind(), b.Name(), outs[0], outs)
	return tt, src, err
}

// XORTable reproduces Table II through the engine; inverted decodes the
// XNOR gate.
func (e *Engine) XORTable(ctx context.Context, b core.Backend, inverted bool) (*core.TruthTable, error) {
	tt, _, err := e.XORTableTiered(ctx, b, inverted, ModeDirect)
	return tt, err
}

// XORTableTiered is XORTable through the tiered store, reporting the
// aggregate source of the rows alongside the table.
func (e *Engine) XORTableTiered(ctx context.Context, b core.Backend, inverted bool, mode Mode) (*core.TruthTable, Source, error) {
	if b.Kind() != core.XOR {
		return nil, "", fmt.Errorf("engine: XOR truth table needs an XOR backend, got %s", b.Kind())
	}
	outs, src, err := e.evalCasesTiered(ctx, b, core.EnumerateInputs(2), mode)
	if err != nil {
		return nil, "", err
	}
	tt, err := core.AssembleXORTable(b.Name(), inverted, outs[0], outs)
	return tt, src, err
}

// DerivedTable evaluates a §III-A derived (N)AND/(N)OR gate through the
// engine: the all-zeros reference and the four pinned-I3 cases run as
// one batch.
func (e *Engine) DerivedTable(ctx context.Context, b core.Backend, d core.DerivedGate) (*core.TruthTable, error) {
	tt, _, err := e.DerivedTableTiered(ctx, b, d, ModeDirect)
	return tt, err
}

// DerivedTableTiered is DerivedTable through the tiered store, reporting
// the aggregate source of the rows alongside the table.
func (e *Engine) DerivedTableTiered(ctx context.Context, b core.Backend, d core.DerivedGate, mode Mode) (*core.TruthTable, Source, error) {
	if b.Kind() == core.XOR {
		return nil, "", fmt.Errorf("engine: derived gates need a MAJ3 backend")
	}
	drives, err := d.DerivedCaseInputs()
	if err != nil {
		return nil, "", err
	}
	// The reference (all zeros of the full MAJ3 input space) rides along
	// as one more case of the batch.
	all := make([][]bool, 0, len(drives)+1)
	all = append(all, make([]bool, b.Kind().NumInputs()))
	all = append(all, drives...)
	outs, src, err := e.evalCasesTiered(ctx, b, all, mode)
	if err != nil {
		return nil, "", err
	}
	tt, err := core.AssembleDerivedTable(b.Name(), d, outs[0], outs[1:])
	return tt, src, err
}

// Table evaluates the natural truth table of the backend's gate kind:
// Table II for XOR backends, Table I for the Majority family.
func (e *Engine) Table(ctx context.Context, b core.Backend) (*core.TruthTable, error) {
	if b.Kind() == core.XOR {
		return e.XORTable(ctx, b, false)
	}
	return e.MajorityTable(ctx, b)
}
