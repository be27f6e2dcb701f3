package main

import (
	"context"

	"spinwave"
	"spinwave/internal/backendspec"
	"spinwave/internal/fleet"
)

// newEvaluator adapts the tiered engine to the fleet.Evaluator
// interface. Plain jobs take the shared job evaluator: the spec resolves
// through the swserve /v1 vocabulary to a backend memoized in memo for
// the life of the process, and the job's cases run as one engine batch,
// so the node's cache/disk/surrogate tiers answer before its solver
// does and the cases they miss recompute concurrently, up to the node's
// -workers. Transient segment jobs (spec.Transient set) instead take the
// checkpointed path in transient.go, against the coordinator's artifact
// store.
func newEvaluator(eng *spinwave.Engine, memo *backendspec.Memo, coordinator string) fleet.Evaluator {
	jobs := backendspec.Evaluator(eng, memo)
	return fleet.EvaluatorFunc(func(ctx context.Context, spec fleet.JobSpec, cases [][]bool) (string, []fleet.CaseOutcome, error) {
		if spec.Transient != nil {
			return runTransientSegment(ctx, coordinator, spec, cases)
		}
		return jobs(ctx, spec, cases)
	})
}
