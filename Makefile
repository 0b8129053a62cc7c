GO ?= go
FUZZTIME ?= 30s

.PHONY: all build test race lint lint-json lint-dataflow lint-fix-hints vet fmt fmt-check bench planbench-test check conformance cover cover-update fuzz-smoke alloc-bench results trace

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# mdglint is this repo's own static-analysis suite (cmd/mdglint), nine
# analyzers: determinism, float-equality, panic, discarded-error, and
# global-state checks plus the type-aware unitcheck (units of measure),
# the call-graph-backed alloccheck (hot-path allocation sites), and the
# dataflow pair over the engine seam: purecheck (Scenario
# purity/retention) and ctxflow (context threading).
# CI runs it; `make lint` reproduces the gate locally.
lint:
	$(GO) run ./cmd/mdglint ./...

# lint-json emits one JSON object per finding (file, line, analyzer,
# message) — the format of CI's one lint step, which fails on any line.
lint-json:
	$(GO) run ./cmd/mdglint -json ./...

# lint-dataflow runs the two dataflow analyzers (purecheck, ctxflow) plus
# the syntactic errcheck — the fast loop while auditing a planner for
# scenario mutation, context laundering, or discarded errors.
lint-dataflow:
	$(GO) run ./cmd/mdglint -run purecheck,ctxflow,errcheck ./...

# lint-fix-hints lists the analyzers with their one-line docs as a
# reminder of what each finding class means and how to suppress one
# (//mdglint:ignore <analyzer> <reason> on or above the offending line).
lint-fix-hints:
	$(GO) run ./cmd/mdglint -list
	@echo
	@echo "suppress a finding with: //mdglint:ignore <analyzer> <reason>"
	@echo "unitcheck: keep unit types (geom.Meters, energy.Joules, sim.Rounds);"
	@echo "  annotate true conversion boundaries (JSON IO, math stdlib) instead"
	@echo "  of laundering through float64."

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# fmt-check fails, listing the files, when any file needs gofmt (CI's
# gofmt step).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# planbench-test vets and tests the benchmark module (planbench/go.mod),
# which the root `go vet ./...` and `go test ./...` do not reach.
planbench-test:
	cd planbench && $(GO) vet ./... && $(GO) test ./...

# conformance runs the registry-wide planner contract suite under the
# race detector — oracle validity, cross-pool determinism, cancellation
# with leak checks, progress monotonicity — including the n=10k
# cancellation-under-load smoke (CI job: engine-conformance).
conformance:
	$(GO) test -race -count=1 ./internal/engine/...

# cover enforces the committed per-package coverage floors
# (COVERAGE_ratchet.txt) through cmd/mdgratchet (exit 0 holds, 1
# regression, 2 operational error); cover-update regenerates them
# (measured minus a 1-point jitter margin).
cover:
	$(GO) test -cover ./... | $(GO) run ./cmd/mdgratchet cover

cover-update:
	$(GO) test -cover ./... | $(GO) run ./cmd/mdgratchet cover -update

# alloc-bench runs the steady-state hot-path benchmarks and one warm
# round (BenchmarkWarmRound) with allocation reporting, to read their
# numbers; the test suite enforces 0 allocs/op
# (TestHotPathSteadyStateZeroAllocs), each registered planner's
# allocations per plan (TestPlanAllocsCeiling) and the bytes of a warm
# round and of an shdg plan (TestWarmRoundBytesCeiling,
# TestPlanBytesCeiling).
alloc-bench:
	$(GO) test -run=^$$ -bench='SteadyState|WarmRound' -benchmem .

# results regenerates RESULTS.txt, the committed snapshot of all
# seventeen experiment tables at 20 trials/point, in place and fails on
# any difference from the committed file, with no tolerance. E17's scale
# rows print every number in shortest round-trip form, so this pins them
# bit for bit. After a deliberate change, commit the regenerated file.
results:
	$(GO) run ./cmd/mdgbench -trials 20 > RESULTS.txt
	git diff --exit-code RESULTS.txt

# trace records a seeded planner trace and prints its per-phase summary
# (deterministic: byte-identical across runs of the same seed).
trace:
	$(GO) run ./cmd/wsngen -n 100 -side 200 -range 30 -seed 1 -o /tmp/mobicol-net.json
	$(GO) run ./cmd/mdgplan -net /tmp/mobicol-net.json -algo shdg -trace /tmp/mobicol-trace.jsonl
	$(GO) run ./cmd/mdgtrace summary /tmp/mobicol-trace.jsonl

# fuzz-smoke runs each native fuzz target for FUZZTIME on top of the
# committed corpora under testdata/fuzz/.
fuzz-smoke:
	$(GO) test -fuzz=FuzzTourPlanRoundTrip -fuzztime=$(FUZZTIME) ./internal/collector/
	$(GO) test -fuzz=FuzzNetworkRead -fuzztime=$(FUZZTIME) ./internal/wsn/
	$(GO) test -fuzz=FuzzCourseRead -fuzztime=$(FUZZTIME) ./internal/obstacle/
	$(GO) test -fuzz=FuzzGridIndexQueries -fuzztime=$(FUZZTIME) ./internal/geom/
	$(GO) test -fuzz=FuzzCoverPointCandidates -fuzztime=$(FUZZTIME) ./internal/geom/
	$(GO) test -fuzz=FuzzRelocate -fuzztime=$(FUZZTIME) ./internal/tsp/
	$(GO) test -fuzz=FuzzImprove -fuzztime=$(FUZZTIME) ./internal/tsp/
	$(GO) test -fuzz=FuzzOrOpt -fuzztime=$(FUZZTIME) ./internal/tsp/

# check runs the CI pipeline's gates locally. It skips the fuzz-smoke
# job (make fuzz-smoke) and the benchmark smoke step, which runs every
# benchmark once (go test -run=NONE -bench=. -benchtime=1x ./...). CI's
# sample-trace step only prints: make trace records the same sample
# trace.
check: build vet fmt-check lint test race cover results planbench-test
