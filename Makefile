# Development targets. `make check` is tier-1 plus the race suite and the
# repository benchmark's self-test in one command.

GO ?= go

# Baseline file consumed by bench-compare; create it with bench-baseline.
BENCH_BASELINE ?= bench-baseline.json

# Dated benchmark history appended to by bench-record (committed, so the
# repo carries its own performance trajectory).
BENCH_HISTORY ?= BENCH_HISTORY.json

# The workloads gated against a same-machine baseline: the K-pool races,
# the tournament engine, the continuous-time workloads, the fast-forward
# speedup pair, the result-cache workloads (poolwars cold bounds the
# cache's miss-path overhead, poolwars warm pins the fully cached sweep,
# fig8-quick-cache-disk-warm pins a rerun served from the disk journal),
# the long-horizon streaming workload (1m guards the O(window) memory
# claim through the bytes/op gate), and the alpha-0.45 Fig. 8 point
# (fig8-alpha045 guards the chain views behind the uncle scan and the
# floor purge). bench-gate and the CI workflow both read this list, so
# the two cannot drift; cmd/ethbench's TestBenchGateFiltersMatchWorkloads
# pins the workloads each filter selects.
BENCH_GATE_FILTERS := 2pools tournament eip100 profitability alpha05 fastforward cache 1m fig8-alpha045

.PHONY: check build vet test race agreement perfbench-test staticcheck chaos-smoke cache-smoke fuzz-smoke bench bench-json bench-baseline bench-compare bench-gate bench-record bench-smoke

# How long each fuzz target runs in fuzz-smoke; CI uses the default.
FUZZTIME ?= 10s

check: vet staticcheck test race agreement perfbench-test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. Skipped with a notice when the binary is not
# on PATH (the tool is not vendored; CI installs it), so `make check` works
# on a bare toolchain.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test: build
	$(GO) test ./...

# The parallel engine's determinism tests double as its data-race check,
# and its cancellation tests verify prompt return, deterministic partial
# results, and no goroutine leaks under the detector. -short skips the full
# best-response grid search, which the plain test target already covers;
# everything else (including the tournament's parallel-vs-sequential check
# over parametric strategies and the chaos fault-injection suite) runs
# under the detector.
race:
	$(GO) test -race -short ./internal/parallel ./internal/sim ./internal/experiments ./internal/resultcache ./internal/chaos

# The repository benchmark (perfbench/, run by perfbench/run.py) is a Go
# module of its own, so `test` never reaches its self-test; this builds it
# against the current library and runs it, so a library API change that
# breaks the benchmark fails `make check`.
perfbench-test:
	cd perfbench && $(GO) test ./...

# The cross-mode agreement suite by name: fast-forward vs plain
# distribution agreement, the paired/antithetic estimators against their
# closed-form oracles, and the RNG's distributional pins. Everything here
# also runs inside `test`; the explicit pass keeps the statistical gates
# visible (and runnable alone) when modes diverge.
agreement:
	$(GO) test -run 'FastForward|Antithetic|Precision|Paired|Geometric|GammaInt|ExpUnit' \
		./internal/rng ./internal/stats ./internal/sim ./internal/experiments

# The chaos suite alone (adversarial strategies, injected worker
# panics/errors, and corrupted trace decoding must all fail closed with
# typed errors and leave Runners reusable), plus one sampled-audit
# experiment end to end through the CLI.
chaos-smoke:
	$(GO) test -race ./internal/chaos
	$(GO) run ./cmd/ethselfish -quick -runs 1 -blocks 20000 -audit -audit-every 256 table2 >/dev/null

# The result cache end to end through the CLI: a cold run populates a disk
# journal, a warm rerun must serve at least one hit and reproduce the
# figure bit for bit (invariant 3 makes hits exact, so cmp — not a fuzzy
# diff — is the right check). Then the resume path: a sweep into a second
# directory is cut by a short -timeout (a deadline error is expected; a
# machine fast enough to finish first is tolerated), and rerunning it
# without the deadline must serve the completed rows and reproduce the
# cold output bit for bit.
cache-smoke:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/ethselfish -quick -cachedir "$$dir/cache" fig8 \
		> "$$dir/cold.out" 2> "$$dir/cold.err"; \
	$(GO) run ./cmd/ethselfish -quick -cachedir "$$dir/cache" fig8 \
		> "$$dir/warm.out" 2> "$$dir/warm.err"; \
	cmp "$$dir/cold.out" "$$dir/warm.out"; \
	grep -Eq 'cache: [1-9][0-9]* hits' "$$dir/warm.err"; \
	$(GO) run ./cmd/ethselfish -quick -cachedir "$$dir/resume" -timeout 100ms fig8 \
		> /dev/null 2> "$$dir/cut.err" || grep -q 'deadline exceeded' "$$dir/cut.err"; \
	$(GO) run ./cmd/ethselfish -quick -cachedir "$$dir/resume" fig8 \
		> "$$dir/resumed.out" 2> "$$dir/resumed.err"; \
	cmp "$$dir/cold.out" "$$dir/resumed.out"; \
	grep -Eq 'cache: [1-9][0-9]* hits' "$$dir/resumed.err"; \
	echo "cache-smoke: warm rerun and resumed sweep bit-identical and served from cache"

# Short randomized passes over the simulator's fuzz targets (the strategy
# gate and the random-legal-reaction property) and the result-cache
# journal decoder, the one on-disk row format; Go allows one -fuzz target
# per invocation, hence the separate runs.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzValidateReaction -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run=NONE -fuzz=FuzzDecisionTableCompile -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run=NONE -fuzz=FuzzRandomLegalStrategySimulation -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run=NONE -fuzz=FuzzCacheDecode -fuzztime=$(FUZZTIME) ./internal/resultcache

# Every workload in internal/benchwork through `go test`, as sub-benchmarks
# of BenchmarkWorkloads (select one with -bench='Workloads/<name>$$');
# cmd/ethbench runs the same table.
bench:
	$(GO) test -run=NONE -bench=. -benchmem .

# Machine-readable benchmark results (the BENCH_*.json trajectory).
bench-json:
	$(GO) run ./cmd/ethbench

# Record the current benchmark numbers as the comparison baseline.
bench-baseline:
	$(GO) run ./cmd/ethbench > $(BENCH_BASELINE)

# Compare against the recorded baseline; exits non-zero on a >20%
# regression in ns/op, bytes/op, or allocs/op of any shared benchmark.
bench-compare:
	$(GO) run ./cmd/ethbench -baseline $(BENCH_BASELINE)

# Record-and-compare each gated workload back to back on the same machine,
# so only a real blow-up trips ethbench's >20% regression limit. CI runs
# this as its final step.
bench-gate:
	@set -e; for f in $(BENCH_GATE_FILTERS); do \
		echo "bench-gate: $$f"; \
		$(GO) run ./cmd/ethbench -filter $$f > ci-bench-$$f.json; \
		$(GO) run ./cmd/ethbench -filter $$f -baseline ci-bench-$$f.json; \
	done

# Append the current benchmark numbers as a dated entry to the committed
# history file (satisfying curiosity about the performance trajectory
# without digging through git history of baselines).
bench-record:
	$(GO) run ./cmd/ethbench -record $(BENCH_HISTORY)

# Where bench-smoke leaves its CPU/heap profiles (uploaded as CI
# artifacts, so a slow CI run can be diagnosed without reproducing it).
BENCH_PROFILE_DIR ?= bench-profiles

# One-iteration pass over every benchmark so bench code cannot rot; used by
# CI, where full benchmark timings would be noise anyway. The first pass
# covers the internal packages' micro-benchmarks. The profiled pass runs the
# root package's BenchmarkWorkloads, which is every ethbench workload, with
# its output check, once. The last pass takes a dedicated heap profile of
# the 1M-block streaming workload.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./internal/...
	mkdir -p $(BENCH_PROFILE_DIR)
	$(GO) test -run=NONE -bench=. -benchtime=1x \
		-cpuprofile=$(BENCH_PROFILE_DIR)/cpu.pprof \
		-memprofile=$(BENCH_PROFILE_DIR)/mem.pprof \
		-o $(BENCH_PROFILE_DIR)/bench.test .
	$(GO) test -run=NONE -bench='Workloads/sim-1m-blocks$$' -benchtime=1x \
		-memprofile=$(BENCH_PROFILE_DIR)/longhorizon-heap.pprof \
		-o $(BENCH_PROFILE_DIR)/longhorizon.test .
