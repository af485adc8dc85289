# Tier-1 gate for this repository. `make check` is what CI runs on every
# change; `make race` is required for anything touching the Engine's
# worker pool or pattern cache.

GO ?= go
DATE := $(shell date +%Y%m%d)

.PHONY: check build vet test race atpg-race bench bench-json telemetry-race wide-race fuzz-equiv bench-atpg api-compat serve-smoke loadsmoke obs-smoke bench-cluster

check: vet build test race atpg-race telemetry-race wide-race fuzz-equiv api-compat bench-json serve-smoke loadsmoke obs-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The fault-parallel ATPG scheduler under the race detector: worker
# bit-identity at several worker counts, the MaxPodemFaults cap with
# in-flight speculation, and the engine's worker-normalized pattern cache.
atpg-race:
	$(GO) test -race -run 'Workers|Podem|Scheduler|DetectAllMask|RandomPhase' ./internal/atpg/ .

# Engine acceptance benchmark: sequential vs GOMAXPROCS Table I.
bench:
	$(GO) test -run=NONE -bench=BenchmarkTableOne -benchtime=1x .

# Machine-readable perf trajectory: a small Table I run whose manifest
# (environment, per-stage wall times, counters, results) lands in
# BENCH_<date>.json for cross-commit comparison.
bench-json:
	$(GO) run ./cmd/tableone -circuits s344,s382,s444 -manifest BENCH_$(DATE).json >/dev/null

# The telemetry path under the race detector: concurrent Engine workers
# feeding one Recorder, registry, and trace writer. The Packed kernel,
# packed Monte-Carlo, hook-pairing and scanpowerd service tests ride along
# so the bit-parallel paths and the job queue are raced too.
telemetry-race:
	$(GO) test -race -run 'Telemetry|Recorder|Trace|Registry|Packed|StageHooks|PatternCache|Submit|Queue|Coalesc|Drain|Deadline|Disconnect|Cancel|MCPacked|MCBatch' . ./internal/telemetry/ ./internal/power/ ./internal/service/ ./internal/obs/ ./internal/core/

# The 256-lane compiled kernels under the race detector: the Compile
# lowering property test, the wide-vs-scalar equivalence suites, and
# every packed consumer (measure, obs, fill, faultsim, leakage
# accumulators).
wide-race:
	$(GO) test -race -run 'Wide|Compile|PackedW|FaultSimW|MeasureScanPacked|EstimatePacked|FillPacked' ./internal/sim/ ./internal/leakage/ ./internal/power/ ./internal/obs/ ./internal/core/ ./internal/atpg/

# Wire-compatibility gate for the v1 job API: golden JSON fixtures under
# api/testdata round-tripped through the repro/api marshallers and the
# shared validator, so a refactor that moves a byte on the wire — field
# renamed, omitempty dropped, error message reworded — fails here before
# it ships. Regenerate intentionally with:
#   go test ./api/ -run TestAPICompat -update
api-compat:
	$(GO) test ./api/ -run 'TestAPICompat|TestValidate' -count=1

# Full service contract against a real scanpowerd process: boots the
# daemon on a random port, checks the inline-c17 result is bit-identical
# to an in-process Engine run, exercises 429 backpressure and DELETE, and
# requires a clean SIGTERM drain with a balanced span trace.
serve-smoke:
	$(GO) run ./scripts/servesmoke

# Cluster contract against real scanpowerd processes: single-node cold
# baseline, 3-node sharded cluster under the same load, mixed traffic
# with one node SIGKILLed and restarted on its result store (must serve
# a first-life result bit-identically from disk, no ATPG recompute),
# and a clean SIGTERM drain of every node. Short traffic windows here;
# `make bench-cluster` is the full-length run.
loadsmoke:
	$(GO) run ./scripts/loadsmoke -short

# Observability contract against a real 3-node cluster: a forwarded job's
# merged trace spans >= 2 nodes under one trace ID (queried from both the
# owner and the forwarding node), a client traceparent is adopted, and
# the fused /v1/cluster/metrics counters and submit-histogram buckets are
# bit-exact sums of the per-node /v1/node/metrics snapshots.
obs-smoke:
	$(GO) run ./scripts/obssmoke

# Full-length cluster benchmark: throughput/latency percentiles of the
# single node vs the 3-node cluster land in BENCH_<date>_cluster.json.
# The cold-scaling bar (>= 2x) is enforced on hosts with >= 3 CPUs.
bench-cluster:
	$(GO) run ./scripts/loadsmoke -out BENCH_$(DATE)_cluster.json

# Short equivalence fuzz of each fast path against its reference: random
# circuits through the wide evaluators and the scalar simulator, random
# pattern sets and shift configs through the packed and dense measurement
# kernels (bit-equal reports), random flow shapes through the packed and
# scalar don't-care fills (same completion, same rng end state), random
# batches through the packed and serial fault simulators, and random
# circuit profiles through the linear-time and original quadratic circuit
# generators (same error, or same .bench text and fingerprint). The seed
# corpora also run on every plain `go test`.
fuzz-equiv:
	$(GO) test ./internal/sim/ -run '^$$' -fuzz FuzzWideEquivalence -fuzztime 10s
	$(GO) test ./internal/power/ -run '^$$' -fuzz FuzzMeasureScanPackedEquivalence -fuzztime 10s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzMCPackedEquivalence -fuzztime 10s
	$(GO) test ./internal/atpg/ -run '^$$' -fuzz FuzzFaultSimEquivalence -fuzztime 10s
	$(GO) test ./internal/iscas/ -run '^$$' -fuzz FuzzGenerateEquivalence -fuzztime 10s

# ATPG pipeline benchmark: incremental event-driven PODEM + batched fault
# dropping vs the preserved legacy baseline on s1423/s5378, plus the
# Workers=1 vs Workers=4 bit-identity gate (acceptance: podem phase >= 5x
# on s1423; report lands in BENCH_<date>_atpg.json).
bench-atpg:
	ATPG_BENCH_OUT=$(CURDIR)/BENCH_$(DATE)_atpg.json $(GO) test ./internal/atpg/ -run TestBenchATPGJSON -count=1 -v
