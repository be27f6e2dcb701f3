package main

import (
	"context"
	"fmt"
	"strings"

	"spinwave"
	"spinwave/internal/fleet"
)

// newEvaluator adapts the tiered engine to the fleet.Evaluator
// interface: each job's spec is resolved to a backend + serving mode
// with the same vocabulary as the swserve /v1 API, and the job's cases
// run as one engine batch: the node's cache/disk/surrogate tiers answer
// before its solver does, and the cases they miss recompute
// concurrently, up to the node's -workers. Transient segment jobs
// (spec.Transient set) instead take the checkpointed path in
// transient.go, against the coordinator's artifact store.
func newEvaluator(eng *spinwave.Engine, coordinator string) fleet.Evaluator {
	return fleet.EvaluatorFunc(func(ctx context.Context, spec fleet.JobSpec, cases [][]bool) (string, []fleet.CaseOutcome, error) {
		if spec.Transient != nil {
			return runTransientSegment(ctx, coordinator, spec, cases)
		}
		b, mode, err := buildBackend(spec)
		if err != nil {
			return "", nil, err
		}
		res, err := eng.EvalBatch(ctx, b, cases, mode, nil)
		if err != nil {
			return "", nil, err
		}
		out := make([]fleet.CaseOutcome, len(cases))
		var fp string
		for i, r := range res {
			out[i] = fleet.CaseOutcome{Inputs: cases[i], Outputs: r.Readouts, Source: string(r.Source)}
			fp = r.Fingerprint
		}
		return fp, out, nil
	})
}

// buildBackend resolves a job spec to a spinwave backend and engine
// serving mode. The vocabulary matches the swserve API: gate
// (xor/maj3/maj3single/maj5), backend (behavioral/micromag), spec
// (paper/paper-micromag/reduced), material (fecob/yig/permalloy), mode
// (direct/auto/surrogate, empty = direct).
func buildBackend(spec fleet.JobSpec) (spinwave.Backend, spinwave.EvalMode, error) {
	kind, err := parseGate(spec.Gate)
	if err != nil {
		return nil, "", err
	}

	var mode spinwave.EvalMode
	switch strings.ToLower(spec.Mode) {
	case "", "direct":
		mode = spinwave.EvalModeDirect
	case "auto":
		mode = spinwave.EvalModeAuto
	case "surrogate":
		mode = spinwave.EvalModeSurrogateOnly
	default:
		return nil, "", fmt.Errorf("swworker: unknown mode %q (want direct, auto or surrogate)", spec.Mode)
	}

	mat := spinwave.FeCoB()
	if spec.Material != "" {
		if mat, err = spinwave.MaterialByName(spec.Material); err != nil {
			return nil, "", fmt.Errorf("swworker: material %q: %w", spec.Material, err)
		}
	}

	switch strings.ToLower(spec.Backend) {
	case "", "behavioral":
		s, err := parseSpec(spec.Spec, spinwave.PaperSpec())
		if err != nil {
			return nil, "", err
		}
		b, err := spinwave.NewBehavioral(kind, s, mat)
		return b, mode, err
	case "micromag", "micromagnetic":
		s, err := parseSpec(spec.Spec, spinwave.ReducedSpec())
		if err != nil {
			return nil, "", err
		}
		b, err := spinwave.NewMicromagnetic(kind,
			spinwave.WithSpec(s), spinwave.WithMaterial(mat))
		return b, mode, err
	default:
		return nil, "", fmt.Errorf("swworker: unknown backend %q (want behavioral or micromag)", spec.Backend)
	}
}

// parseGate resolves a gate name with the swserve API vocabulary.
func parseGate(name string) (spinwave.GateKind, error) {
	switch strings.ToLower(name) {
	case "maj3", "majority":
		return spinwave.MAJ3, nil
	case "maj3single", "maj3-single":
		return spinwave.MAJ3Single, nil
	case "xor":
		return spinwave.XOR, nil
	case "maj5":
		return spinwave.MAJ5, nil
	default:
		return 0, fmt.Errorf("swworker: unknown gate %q", name)
	}
}

func parseSpec(name string, fallback spinwave.Spec) (spinwave.Spec, error) {
	switch strings.ToLower(name) {
	case "":
		return fallback, nil
	case "paper":
		return spinwave.PaperSpec(), nil
	case "paper-micromag":
		return spinwave.PaperMicromagSpec(), nil
	case "reduced":
		return spinwave.ReducedSpec(), nil
	default:
		return spinwave.Spec{}, fmt.Errorf("swworker: unknown spec %q (want paper, paper-micromag or reduced)", name)
	}
}
