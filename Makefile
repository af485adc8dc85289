# Tier-1 gate for this repository. `make check` is what CI runs on every
# change; `make race` is required for anything touching the Engine's
# worker pool or pattern cache.

GO ?= go
GOFMT ?= gofmt

.PHONY: check fmt build vet test race atpg-race manifest-smoke telemetry-race wide-race fuzz-equiv api-compat serve-smoke loadsmoke obs-smoke

check: fmt vet build test race atpg-race telemetry-race wide-race fuzz-equiv api-compat manifest-smoke serve-smoke loadsmoke obs-smoke

# Formatting gate: fails, naming the files, when gofmt would rewrite any
# Go file of the repository (benchmark/run.sh's build directory aside).
fmt:
	@out=$$($(GOFMT) -l $$(find . -name '*.go' -not -path './.bench_build/*')); \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

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
# The Podem tests ride along: each scheduler worker owns a PODEM engine
# whose undo trail (backtracks rewind it instead of re-implying), region
# marks (only gates of the fault's TFI(TFO(f)) are evaluated) and event
# queue are reused across faults, and the step-level differential
# against the full engine runs here under the race detector too.
atpg-race:
	$(GO) test -race -run 'Workers|Podem|Scheduler|DetectAllMask|RandomPhase' ./internal/atpg/ .

# End-to-end tableone run: a small Table I with -manifest into a
# temporary file, which must parse as scanpower/run-manifest/v1 with one
# four-stage entry per circuit. Performance is measured by benchmark/run.sh.
manifest-smoke:
	$(GO) run ./scripts/manifestsmoke

# The telemetry path under the race detector: concurrent Engine workers
# and same-named concurrent Compares feeding one Recorder, registry, and
# trace writer through the probe scopes. The packed measurement kernel,
# hook-pairing and scanpowerd service tests ride along so the
# bit-parallel paths and the job queue are raced too, and so is the panic
# boundary around a job's run (TestRunnerPanicFailsJob), and a panic on
# an ATPG scheduler worker, which generation returns as an error
# (WorkerPanic). The Monte-Carlo tests (MCPacked, MCBatch) race the obs
# and fill batch loops, which start no goroutines, against the Engine
# workers and the Recorder that receive their probe events. The
# byte-bounded pattern cache (PatternCache: budget, recency, in-flight
# entries, panics) and the terminal jobs that drop their netlists
# (DropsCircuit) run here too.
telemetry-race:
	$(GO) test -race -run 'Telemetry|Recorder|Trace|Registry|Packed|StageHooks|PatternCache|Submit|Queue|Coalesc|Drain|Deadline|Disconnect|Cancel|MCPacked|MCBatch|RunnerPanicFailsJob|EnginePanicFailsJobOnce|WorkerPanic|DropsCircuit' . ./internal/telemetry/ ./internal/power/ ./internal/service/ ./internal/obs/ ./internal/core/ ./internal/probe/

# The 256-lane compiled kernels under the race detector: the Compile
# lowering property test, the wide-vs-scalar equivalence suites, and
# every packed consumer (measure, obs, fill, faultsim, leakage
# accumulators). The obs and fill kernels are one serial batch loop each
# with buffers allocated per call; their allocation tests run here too.
wide-race:
	$(GO) test -race -run 'Wide|Compile|PackedW|FaultSimW|MeasureScanPacked|EstimatePacked|FillPacked' ./internal/sim/ ./internal/leakage/ ./internal/power/ ./internal/obs/ ./internal/core/ ./internal/atpg/

# Wire-compatibility gate for the v1 job API: golden JSON fixtures under
# api/testdata for every request body and every response document (job,
# healthz, cluster, cluster metrics, traces, errors, results),
# round-tripped through the repro/api types and the shared validator,
# then replayed byte for byte through the typed client and the server's
# peer pulls, which must decode each one to the golden's values. A
# go/ast check keeps every document declared once, in api. A refactor
# that moves a byte on the wire, or a field renamed on one side only,
# fails here before it ships. Regenerate intentionally with:
#   go test ./api/ -run TestAPICompat -update
api-compat:
	$(GO) test ./api/ ./client/ ./internal/service/ -run 'TestAPICompat|TestValidate|TestDocumentsDeclaredOnlyInAPI' -count=1

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
# `go run ./scripts/loadsmoke -out FILE` is the full-length run.
loadsmoke:
	$(GO) run ./scripts/loadsmoke -short

# Observability contract against a real 3-node cluster: a forwarded job's
# merged trace spans >= 2 nodes under one trace ID (queried from both the
# owner and the forwarding node), a client traceparent is adopted, and
# the fused /v1/cluster/metrics counters and submit-histogram buckets are
# bit-exact sums of the per-node /v1/node/metrics snapshots.
obs-smoke:
	$(GO) run ./scripts/obssmoke

# Short equivalence fuzz of each fast path against its reference: random
# circuits through the wide evaluators and the scalar simulator, random
# pattern sets and shift configs through the packed and dense measurement
# kernels (bit-equal reports), random flow shapes through the packed and
# scalar don't-care fills (same completion, same rng end state), random
# set/flip/undo sequences through the blocking search's event-driven and
# full implication (same implied value on every net), random
# batches through the packed and serial fault simulators, random circuits
# through the incremental and full PODEM engines in lockstep (after every
# imply, including each one right after an undo-trail rewind and flip,
# the same value on every net of the fault's region TFI(TFO(f)) and the
# same difference set; then the same decisions, status, backtracks and
# assignment for every fault, at 16 and at 64 backtracks), and random
# circuit profiles through the linear-time and original quadratic circuit
# generators (same error, or same .bench text and fingerprint). FuzzVerilog
# feeds arbitrary text to the Verilog reader the daemon runs on inline
# submissions: an error or a frozen circuit, never a panic. FuzzVCD does
# the same for the VCD reader behind activity submissions: an error or a
# non-empty map of activities in [0, 1], never a panic. The seed corpora
# also run on every plain `go test`.
fuzz-equiv:
	$(GO) test ./internal/sim/ -run '^$$' -fuzz FuzzWideEquivalence -fuzztime 10s
	$(GO) test ./internal/power/ -run '^$$' -fuzz FuzzMeasureScanPackedEquivalence -fuzztime 10s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzMCPackedEquivalence -fuzztime 10s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzFinderImplyEquivalence -fuzztime 10s
	$(GO) test ./internal/atpg/ -run '^$$' -fuzz FuzzFaultSimEquivalence -fuzztime 10s
	$(GO) test ./internal/atpg/ -run '^$$' -fuzz FuzzPodemEquivalence -fuzztime 10s
	$(GO) test ./internal/iscas/ -run '^$$' -fuzz FuzzGenerateEquivalence -fuzztime 10s
	$(GO) test ./internal/verilog/ -run '^$$' -fuzz FuzzVerilog -fuzztime 10s
	$(GO) test ./internal/vcd/ -run '^$$' -fuzz FuzzVCD -fuzztime 10s
