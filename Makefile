GO ?= go

.PHONY: ci vet lint lint-teeth build unlinked unlinked-teeth examples test scenario-check bench-smoke bench-check bench fmt-check profile fuzz-smoke serve-smoke cover experiments-golden

ci: fmt-check vet lint lint-teeth build unlinked unlinked-teeth examples test scenario-check bench-smoke bench-check fuzz-smoke serve-smoke

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

# Fail on dead code: build the eight shipped entry points (cmd/ispnsim,
# cmd/ispnvet, the five examples, the bench binary) without inlining and
# require every function declared in a non-test, non-main package to be
# linked into one of them or listed, with the test or role that needs it, in
# scripts/unlinked.allow; a stale allow entry fails too (docs/TESTING.md).
# On the 2-vCPU host: 44 s with an empty build cache (the uninlined standard
# library is most of it), 3-5 s after that.
unlinked:
	./scripts/unlinked.sh

# Prove the unlinked gate has teeth: plant an uncalled exported method and an
# allow entry for a linked function in a copy, and require both to be named
# (about 7 s warm).
unlinked-teeth:
	./scripts/unlinked-teeth.sh

# Build every runnable example explicitly (they are also covered by build,
# but this target keeps them honest if the module layout changes).
examples:
	$(GO) build ./examples/...

test:
	$(GO) test ./...

# Parse and validate the whole scenario library without simulating; the
# full parse+simulate round trip runs under test (TestLibraryParsesAndSimulates).
scenario-check:
	$(GO) run ./cmd/ispnsim check scenarios/*.ispn

# One-iteration benchmark smoke run: catches harness regressions without the
# cost of full timing. MillionFlows fails itself above 64 resident
# bytes/flow or on any allocation in its admit+release cycle; the zero-alloc
# steady state and the per-call allocation budget are gated under `test`
# (TestFacadeSteadyStateAllocs, internal/core's TestCallSetupAllocation). The second line runs internal/stats' recorder
# benchmarks (one Add; a report's three ranks of 1 M samples); the recorder's
# byte budgets are tests there. The third line runs the rate schedulers over
# the shared flow table; each fails itself if a warmed-up enqueue+dequeue
# cycle allocates. Timing lives in bench/ (see bench/README.md).
bench-smoke:
	$(GO) test -run '^$$' -bench 'SimulatorThroughput|ShardedThroughput|FacadeSmallNetwork|MillionFlows|CallChurn' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench 'RecorderAdd|RecorderPercentiles' -benchtime 1x -benchmem ./internal/stats
	$(GO) test -run '^$$' -bench 'WFQEnqueueDequeue|VirtualClockEnqueueDequeue|UnifiedEnqueueDequeue' -benchtime 1x -benchmem ./internal/sched

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
	$(GO) run ./cmd/ispnsim -duration 30 -seed 7 all | awk -v dir=internal/experiments/testdata/golden \
		'/^=== .* ===$$/ { out = dir "/" $$2 ".txt"; printf "" > out; cut = 0; next } \
		 /wall clock/ { cut = 1 } !cut { print > out }'

# Full benchmark suite over every table/figure/ablation.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# CPU + heap profile of the scenario library run as four event heaps in
# lockstep windows (one goroutine): window bookkeeping shows up as
# sim.(*Coordinator).Run frames next to the per-packet layers.
# Inspect with `go tool pprof cpu.pprof` / `go tool pprof mem.pprof`.
profile:
	$(GO) run ./cmd/ispnsim -shards 4 -cpuprofile cpu.pprof -memprofile mem.pprof \
		run scenarios/*.ispn
	@echo "wrote cpu.pprof and mem.pprof"

# Fuzz smoke: a few seconds of coverage-guided fuzzing over the .ispn
# lexer/parser and compiler, then a randomized scenario fuzz run — every
# world simulated sequentially and sharded under the invariant oracle with
# byte-identical reports required (see docs/TESTING.md). The nightly CI job
# runs the same harnesses much longer.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseScenario -fuzztime 5s ./internal/scenario
	$(GO) test -run '^$$' -fuzz FuzzCompileScenario -fuzztime 5s ./internal/scenario
	$(GO) run ./cmd/ispnsim -n 50 -seed 1 fuzz

# Control-plane smoke: start a real `ispnsim serve`, drive a failover
# session over HTTP (create, inject an outage, finish, stream the trace,
# fetch the report), and verify clean SIGINT shutdown (docs/OPERATIONS.md).
serve-smoke:
	./scripts/serve-smoke.sh

# Aggregate test coverage with a per-function summary.
cover:
	$(GO) test -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | tail -1

# Fail on unformatted files (CI gate; prints the offenders).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
