GO ?= go

# Statement-coverage floor for `make cover` (percent). Measured 70.6%
# with -short; the margin absorbs run-to-run jitter, not regressions.
COVER_BASELINE ?= 69.0

.PHONY: all build vet test test-race bench bench-smoke cover docs-lint journal-smoke health-smoke surrogate-smoke fleet-smoke checkpoint-smoke history-smoke fuzz clean

all: build vet test docs-lint

build:
	$(GO) build ./...

# go vet, then a formatting gate: any file gofmt would change fails the
# target (the benchmark's build output under .bench_build/ is exempt).
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l . | grep -v '^\.bench_build/'); \
	if [ -n "$$out" ]; then echo "FAIL: not gofmt-clean:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Race-detector pass over the concurrent packages: the evaluation
# engine, the serving layer, the row-band-parallel field stencil, the
# tiled LLG solver and its worker pool, the metrics registry, the fleet
# observability plane, the durable file primitives every store shares
# and the shared backend memo.
test-race:
	$(GO) test -race ./internal/durable/ ./internal/engine/ ./internal/mag/ ./internal/llg/ ./internal/tile/ ./internal/obs/ ./internal/journal/ ./internal/probe/ ./internal/health/ ./internal/fleet/ ./internal/fleet/faults/ ./internal/checkpoint/ ./internal/obsplane/ ./internal/runhistory/ ./internal/backendspec/ ./cmd/swserve/ ./cmd/swworker/

# Godoc coverage gate (ISSUE 3): every exported identifier in the LLG
# core and its term-by-term test oracle, the field evaluator, the gate backends and their resolver, the flight-recorder
# packages, the checkpoint/fleet layers, the durable file primitives,
# the worker entrypoint and the root package must carry a doc comment.
docs-lint:
	$(GO) run ./tools/docslint . ./internal/durable ./internal/llg ./internal/llg/llgref ./internal/mag ./internal/core ./internal/backendspec ./internal/probe ./internal/journal ./internal/health ./internal/fleet ./internal/fleet/faults ./internal/checkpoint ./internal/obsplane ./internal/runhistory ./cmd/swworker

# Flight-recorder smoke (ISSUE 4): a short probed XOR case writing the
# JSONL journal and Chrome trace, then schema-validating the journal.
journal-smoke:
	$(GO) run ./cmd/swsim -gate xor -inputs 10 -probe -journal journal.jsonl -trace-out trace.json -workers 2
	$(GO) run ./tools/journalcheck journal.jsonl

# Health-monitor smoke (ISSUE 5): destabilize the integrator on purpose
# by scaling dt far past the stability bound; the streaming monitor must
# fire a critical alert, record a violated verdict in the journal, and
# make swsim exit non-zero. swdoctor then scores the journal and must
# agree. The `!` inverts swsim's expected failure.
health-smoke:
	! $(GO) run ./cmd/swsim -gate xor -inputs 10 -health -dt-scale 20 -journal health.jsonl
	$(GO) run ./tools/journalcheck health.jsonl
	@grep -q '"verdict":"violated"' health.jsonl || { echo "FAIL: no violated verdict in health.jsonl"; exit 1; }
	@grep -q '"severity":"critical"' health.jsonl || { echo "FAIL: no critical alert in health.jsonl"; exit 1; }
	! $(GO) run ./tools/swdoctor health.jsonl

# Surrogate-admission smoke (ISSUE 6): build the linear-superposition
# surrogate from the real micromagnetic backend (one unit transient per
# port), push it through the engine's golden-band admission gate, and
# require a journaled "admitted" verdict. A surrogate that drifts out of
# the Tables I/II bands flips the verdict to "rejected" and swsim exits
# non-zero, failing the target before the grep even runs. The MAJ3 run
# pins the CLI's build path: its I3 trim comes from the resolver's
# committed table, not from a calibration run.
surrogate-smoke:
	$(GO) run ./cmd/swsim -gate xor -surrogate -journal surrogate.jsonl
	$(GO) run ./tools/journalcheck surrogate.jsonl
	@grep -q '"event":"surrogate.admission"' surrogate.jsonl || { echo "FAIL: no admission verdict in surrogate.jsonl"; exit 1; }
	@grep -q '"verdict":"admitted"' surrogate.jsonl || { echo "FAIL: surrogate was not admitted"; exit 1; }
	$(GO) run ./cmd/swsim -gate maj3 -surrogate -journal surrogate-maj3.jsonl
	$(GO) run ./tools/journalcheck surrogate-maj3.jsonl
	@grep -q '"verdict":"admitted"' surrogate-maj3.jsonl || { echo "FAIL: maj3 surrogate was not admitted"; exit 1; }

# Coverage gate: total -short statement coverage must stay at or above
# COVER_BASELINE (-short skips the minutes-long micromagnetic
# integration runs; `test` still exercises them). Dev tooling under
# tools/ is excluded — it gates CI itself rather than shipping.
cover:
	$(GO) test -short -coverprofile=coverage.out $$($(GO) list ./... | grep -v '^spinwave/tools/')
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	awk -v t=$$total -v b=$(COVER_BASELINE) 'BEGIN { \
		if (t+0 < b+0) { printf "FAIL: coverage %.1f%% below baseline %.1f%%\n", t, b; exit 1 } \
		printf "coverage %.1f%% (baseline %.1f%%)\n", t, b }'

# Fleet smoke (ISSUE 7): build the real swserve + swworker binaries,
# boot a coordinator with a 2s lease and two workers, submit the full
# XOR table sharded one case per job, SIGKILL whichever worker holds a
# job mid-case, and require the survivor to complete the table through
# lease expiry and requeue. The journal must validate and must contain
# both a claim and a requeue event — the durable-queue recovery story,
# end to end on the shipped entrypoints. The observability plane
# (DESIGN.md §16) is gated in the same run: fleetsmoke downloads the
# merged multi-node journal and assembled Chrome trace for the killed
# request and fails unless the dead worker's shipped events survived at
# the coordinator; journalcheck -fleet and swdoctor -fleet then
# re-validate the downloaded snapshot independently.
fleet-smoke:
	$(GO) run ./tools/fleetsmoke -journal fleet.jsonl -events fleet-trace.jsonl -trace fleet-trace.json
	$(GO) run ./tools/journalcheck fleet.jsonl
	$(GO) run ./tools/journalcheck -fleet fleet-trace.jsonl
	$(GO) run ./tools/swdoctor -fleet fleet-trace.jsonl
	@grep -q '"event":"fleet.claim"' fleet.jsonl || { echo "FAIL: no fleet.claim in fleet.jsonl"; exit 1; }
	@grep -q '"event":"fleet.requeue"' fleet.jsonl || { echo "FAIL: no fleet.requeue in fleet.jsonl"; exit 1; }
	@grep -q '"status":"segment_chained"' fleet.jsonl || { echo "FAIL: no segment_chained event in fleet.jsonl"; exit 1; }
	@grep -q '"event":"fleet.journal_shipped"' fleet-trace.jsonl || { echo "FAIL: no fleet.journal_shipped in fleet-trace.jsonl"; exit 1; }

# Checkpoint/resume smoke (ISSUE 8): a golden uninterrupted swsim run,
# the same case SIGKILLed mid-transient with checkpointing on, then a
# -resume run under the health monitor that must land on byte-identical
# full-precision readouts. The resumed run's journal must validate and
# must record the checkpoint.resume event and a healthy verdict; its
# manifest must name the rk4 integrator.
checkpoint-smoke:
	$(GO) run ./tools/checkpointsmoke -journal checkpoint.jsonl -keep-manifest checkpoint-manifest.json
	$(GO) run ./tools/journalcheck checkpoint.jsonl
	@grep -q '"event":"checkpoint.resume"' checkpoint.jsonl || { echo "FAIL: no checkpoint.resume in checkpoint.jsonl"; exit 1; }
	@grep -q '"event":"checkpoint.save"' checkpoint.jsonl || { echo "FAIL: no checkpoint.save in checkpoint.jsonl"; exit 1; }
	@grep -q '"verdict":"healthy"' checkpoint.jsonl || { echo "FAIL: no healthy verdict in checkpoint.jsonl"; exit 1; }
	@grep -q '"scheme": *"rk4"' checkpoint-manifest.json || { echo "FAIL: checkpoint-manifest.json does not name the rk4 scheme"; exit 1; }

# Run-history / retention smoke (ISSUE 10): boot swserve with history
# indexing and a trace budget of one, serve evals and a table, run two
# fleet requests back to back, and require the retention sweeper to
# reclaim the older request's fleet-journal trace — journaled as
# retention.gc with nonzero bytes — while the newer trace still answers
# its events endpoint and everything stays queryable through
# /v1/history and the swhistory CLI. journalcheck then validates the
# retention.gc / history.indexed schemas, and the greps pin the events
# the smoke's assertions rode on.
history-smoke:
	$(GO) run ./tools/historysmoke -journal history-fleet.jsonl -catalog history-catalog.jsonl
	$(GO) run ./tools/journalcheck history-fleet.jsonl
	@grep -q '"event":"retention.gc"' history-fleet.jsonl || { echo "FAIL: no retention.gc in history-fleet.jsonl"; exit 1; }
	@grep -q '"event":"history.indexed"' history-fleet.jsonl || { echo "FAIL: no history.indexed in history-fleet.jsonl"; exit 1; }

# Fuzz the OVF parser, the fleet job-file parser, the checkpoint
# manifest parser, the shared JSONL log's torn-tail recovery and the
# disk tier's recovery over arbitrary segment bytes beyond their
# checked-in seeds.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzOVFRead -fuzztime 30s ./internal/ovf/
	$(GO) test -run '^$$' -fuzz FuzzJobFile -fuzztime 30s ./internal/fleet/
	$(GO) test -run '^$$' -fuzz FuzzManifest -fuzztime 30s ./internal/checkpoint/
	$(GO) test -run '^$$' -fuzz FuzzLogRecover -fuzztime 30s ./internal/durable/
	$(GO) test -run '^$$' -fuzz FuzzStoreRecover -fuzztime 30s ./internal/engine/

# Quick benchmark set, one iteration each: the behavioral Tables I/II
# and derived-gate benchmarks and Figures 1-2 in the root package, then
# BenchmarkFieldEvaluation in internal/mag. The engine's warm path
# (BenchmarkEvalBatchStored: 4-case batches from the disk tier behind a
# 4-entry LRU) takes microseconds, so it runs for the default benchtime
# with allocation counts rather than once.
bench:
	$(GO) test -run '^$$' -bench 'Behavioral|Figure1|Figure2|Interference' -benchtime 1x .
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/mag/
	$(GO) test -run '^$$' -bench EvalBatchStored -benchmem ./internal/engine/

# Stepper and surrogate gate (EXPERIMENTS.md E-GATE): 21 interleaved
# pairs of ≈100 ms slices per mode, a bare fused solver at 1 and at 8
# stepping workers against the llgref oracle on the reduced XOR mesh.
# Fails if a mode's median fused ÷ reference pair ratio is below its
# committed bound, if the warm surrogate fails golden-band admission,
# or if its per-case speedup over fused-1 is under the committed floor.
# Logs every pair ratio.
bench-smoke:
	$(GO) run ./cmd/swbench

clean:
	$(GO) clean ./...
