GO ?= go

.PHONY: ci vet lint lint-teeth build nofma unreached unreached-teeth examples test claims scenario-check bench-smoke bench-check bench fmt-check profile fuzz-smoke serve-smoke cover counters experiments-golden library-golden

ci: fmt-check vet lint lint-teeth build nofma unreached unreached-teeth examples test claims scenario-check bench-smoke bench-check fuzz-smoke serve-smoke

vet:
	$(GO) vet ./...

# Run the repo's own analyzer suite (cmd/ispnvet, catalog in
# docs/ANALYSIS.md) through the go vet driver, plus staticcheck when it is
# installed (CI installs a pinned version; locally it is optional).
lint:
	$(GO) build -o bin/ispnvet ./cmd/ispnvet
	$(GO) vet -vettool=$(CURDIR)/bin/ispnvet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; fi

# Prove the lint gate has teeth: seed an unsorted map range into a copy of
# internal/core and require `go vet -vettool` to reject it.
lint-teeth:
	./scripts/lint-teeth.sh

build:
	$(GO) build ./...

# Cross-build the module for arm64, ppc64le, s390x and riscv64 with
# -gcflags=-S and fail on any fused multiply-add outside an explicit
# math.FMA: a fused product rounds once, so the same report would differ
# there from amd64's bytes (scripts/nofma.sh).
nofma:
	./scripts/nofma.sh

# The dead-code gate, a workload census: build ispnsim, ispnvet, the examples
# and the bench binary with coverage, run the workload set (scenario library,
# every experiment, fuzz, serve-smoke, go vet with
# ispnvet, the five bench workloads, the examples), and fail on any function
# that never ran, or that scripts/listfuncs declares and no binary carries,
# unless scripts/unreached.allow explains it, and on any block that never ran
# inside a function that did, other than an error exit, unless
# scripts/unreached.blocks explains it; a stale entry in either fails too
# (docs/TESTING.md). About 46 s on the 2-vCPU host with a warm build cache.
unreached:
	./scripts/unreached.sh

# Prove the census has teeth: plant three functions no workload runs (a Churn
# argument's effect, an uncalled method, a package no binary imports), an
# allow entry for a function every workload runs, a branch no workload takes
# in scenario.Parse and a blocks entry for a block every parse runs, in a
# copy, and require all six to be named (about 50 s).
unreached-teeth:
	./scripts/unreached-teeth.sh

# Build every runnable example explicitly (they are also covered by build,
# but this target keeps them honest if the module layout changes).
examples:
	$(GO) build ./examples/...

test:
	$(GO) test ./...

# The paper's claims (internal/experiments/claims_test.go) at seeds 1-8 and
# both horizons, 30 s and 180 s, uncached: the yardstick any moved golden is
# judged by. About 10 s on 2 vCPUs.
claims:
	$(GO) test -count=1 -run TestClaims ./internal/experiments

# Parse and validate the whole scenario library without simulating; the
# full parse+simulate round trip, byte-pinned, runs under test
# (TestLibraryMatchesGolden).
scenario-check:
	$(GO) run ./cmd/ispnsim check scenarios/*.ispn

# One-iteration benchmark smoke run: catches harness regressions without the
# cost of full timing. MillionFlows fails itself above 40 resident
# bytes/flow or on any allocation in its admit+release cycle; the zero-alloc
# steady state and the per-call allocation budget are gated under `test`
# (TestFacadeSteadyStateAllocs, internal/core's TestCallSetupAllocation). The second line runs internal/stats' recorder
# benchmarks (one Add; one full chunk sorted and coded as a block; a
# report's three ranks of 1 M samples); the recorder's byte and read-cost
# budgets are tests there. The third line runs
# the rate schedulers over the shared flow table; each fails itself if a
# warmed-up enqueue+dequeue cycle allocates. The fourth runs internal/sim's hold model (fire one event,
# schedule one) at three heap sizes; it fails itself if a warmed-up op
# allocates. The last runs internal/scenario's setup of a mesh world (Parse,
# then Compile+Start) and a whole setup of a churn world, whose B/op and
# allocs/op repeat from run to run; their budgets are TestSetupAllocationBudget.
# The last checks what one unified port costs to build (NewPipeline and
# ConnectWith, TestPortAllocationBudget). Timing lives in bench/ (see bench/README.md).
bench-smoke:
	$(GO) test -run '^$$' -bench 'SimulatorThroughput|FacadeSmallNetwork|MillionFlows|CallChurn' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench 'RecorderAdd|RecorderEncode|RecorderPercentiles' -benchtime 1x -benchmem ./internal/stats
	$(GO) test -run '^$$' -bench 'WFQEnqueueDequeue|VirtualClockEnqueueDequeue|UnifiedEnqueueDequeue' -benchtime 1x -benchmem ./internal/sched
	$(GO) test -run '^$$' -bench 'Hold' -benchtime 1x -benchmem ./internal/sim
	$(GO) test -run '^$$' -bench 'AdmitRelease' -benchtime 1x -benchmem ./internal/admission
	$(GO) test -run '^$$' -bench 'ShortestPath' -benchtime 1x -benchmem ./internal/routing
	$(GO) test -run '^$$' -bench 'Setup' -benchtime 1x -benchmem ./internal/scenario
	$(GO) test -count=1 -run 'TestPortAllocationBudget' ./internal/core

# bench/ is a module of its own, so the root build, vet and test never
# compile it: vet and test it here so that removing an API the benchmark
# calls fails CI, not the next benchmark run.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Regenerate internal/experiments/testdata/golden from the CLI after an
# intended behaviour change (TestExperimentsMatchGolden compares against
# these byte for byte): one file per `=== name ===` section of `all`, which
# prints exactly what `ispnsim <name>` does, cut at the wall-clock footer.
# Review the diff before committing it.
experiments-golden:
	$(GO) run ./cmd/ispnsim -horizon 30 -seed 7 all | awk -v dir=internal/experiments/testdata/golden \
		'/^=== .* ===$$/ { out = dir "/" $$2 ".txt"; printf "" > out; cut = 0; next } \
		 /wall clock/ { cut = 1 } !cut { print > out }'

# Regenerate internal/scenario/testdata/library from the CLI after an intended
# behaviour change (TestLibraryMatchesGolden compares against these byte for
# byte): every scenarios/*.ispn file's report as written, <name>.txt, and
# under the invariant oracle, <name>.check.txt, one file per report of
# `ispnsim run`, cut at the wall-clock footer. Review the diff before
# committing it.
library_split = -v dir=internal/scenario/testdata/library \
	'/^scenario [^ ]+: .* simulated, seed -?[0-9]+$$/ { name = $$2; sub(/:$$/, "", name); \
	   out = dir "/" name ext; printf "" > out; cut = 0 } \
	 /wall clock\]$$/ { cut = 1 } !cut { print > out }'

library-golden:
	rm -rf internal/scenario/testdata/library
	mkdir -p internal/scenario/testdata/library
	$(GO) run ./cmd/ispnsim run scenarios/*.ispn | awk -v ext=.txt $(library_split)
	$(GO) run ./cmd/ispnsim -check run scenarios/*.ispn | awk -v ext=.check.txt $(library_split)

# Full benchmark suite over every table/figure/ablation.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# CPU + heap profile of the scenario library run as written.
# Inspect with `go tool pprof cpu.pprof` / `go tool pprof mem.pprof`.
profile:
	$(GO) run ./cmd/ispnsim -cpuprofile cpu.pprof -memprofile mem.pprof \
		run scenarios/*.ispn
	@echo "wrote cpu.pprof and mem.pprof"

# Fuzz smoke: a few seconds of coverage-guided fuzzing over the .ispn
# lexer/parser, compiler and runtime injection (InjectEvents), over the
# event engine's firing order against a sorted-slice model and over the
# recorder's block coding (arbitrary keys and simulated delays), then a
# randomized scenario fuzz run — every world simulated under the invariant
# oracle (see docs/TESTING.md). The nightly CI job runs the same harnesses much
# longer.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseScenario -fuzztime 5s ./internal/scenario
	$(GO) test -run '^$$' -fuzz FuzzCompileScenario -fuzztime 5s ./internal/scenario
	$(GO) test -run '^$$' -fuzz FuzzInjectEvents -fuzztime 5s ./internal/scenario
	$(GO) test -run '^$$' -fuzz FuzzEngineOrder -fuzztime 5s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzRecorderBlock -fuzztime 5s ./internal/stats
	$(GO) run ./cmd/ispnsim -n 50 -seed 1 fuzz

# Control-plane smoke: start a real `ispnsim serve`, drive a failover
# session over HTTP (create, inject an outage, finish, stream the trace,
# fetch the report), and verify clean SIGINT shutdown (docs/OPERATIONS.md).
serve-smoke:
	./scripts/serve-smoke.sh

# Print one row of the exact cost counters as JSON (scripts/counters.sh):
# the Table-3 cell's recorder bytes per chunked sample and its samples in
# runs, blocks and tails, BenchmarkMillionFlows' bytes per flow and
# TestChurnRetention's bytes per sample. BENCH_COUNTERS.json keeps a row
# per change (ROADMAP item 23). A few seconds.
counters:
	./scripts/counters.sh

# Aggregate test coverage with a per-function summary.
cover:
	$(GO) test -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | tail -1

# Fail on unformatted files (CI gate; prints the offenders).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
