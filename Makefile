# Developer entry points. `make ci` is the merge gate: it must pass on
# every commit. .github/workflows/ci.yml runs its steps one by one, plus
# three targets only the workflow runs: chaos, fuzz-smoke and bench-smoke.

GO ?= go

# Packages with dedicated concurrency stress tests; the race detector is
# mandatory for them (sharded stores, batched ingest, HTTP surface, the
# shared workspace arena under the compute kernels, the spooling
# transport and its fault injector, the bitset-indexed analytics with
# their shared support caches, and the WAL — concurrent appends,
# background compaction, and the crash matrix all live under
# internal/driftlog, with the service-level wiring under internal/cloud;
# and the device half — nn, registry, device — where installed versions
# are views reading one backbone's weights from whichever goroutines
# drive the devices).
RACE_PKGS = ./internal/cloud/... ./internal/driftlog/... ./internal/fim/... ./internal/rca/... ./internal/httpapi/... ./internal/tensor/... ./internal/transport/... ./internal/faultinject/... ./internal/macrosim/... ./internal/nn/... ./internal/registry/... ./internal/device/...

.PHONY: ci vet staticcheck build cross loc test race race-chaos chaos macrosim-smoke examples fuzz-smoke bench bench-kernels bench-analysis bench-wal bench-wire bench-macrosim bench-smoke clean

ci: vet staticcheck build cross loc test race race-chaos macrosim-smoke examples

# vet is go vet plus the formatting gate: any file gofmt would rewrite
# fails the target (and so `make ci` and the workflow's Vet step).
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt -l lists (run gofmt -w on them):"; echo "$$out"; exit 1; \
	fi

# staticcheck is optional locally (skipped when the binary is absent)
# but mandatory in CI, where the workflow installs it. Metric-name
# collisions are caught separately: the obs registry panics on duplicate
# registration and the panic paths are under test.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

build:
	$(GO) build ./...

# The float kernels and the drift log's bitset popcount kernel have an
# amd64 assembly body beside the Go loop every other platform runs; vet and
# build for arm64 so the portable half (and the assembly's Go
# declarations) cannot rot.
cross:
	GOARCH=arm64 $(GO) vet ./internal/tensor/ ./internal/driftlog/ && GOARCH=arm64 $(GO) build ./...

# Non-test Go lines of the packages ROADMAP's collapse item is measured
# on, and their sum — its acceptance number — held to the checked-in
# LOC_BUDGET (first line: the number). A ratchet: the target fails when
# the total is above the budget, so a PR that must add lines lowers
# something else or raises the budget in the same diff and says why there.
LOC_PKGS = driftlog cloud httpapi transport fim

loc:
	@total=0; for p in $(LOC_PKGS); do \
		n=$$(ls internal/$$p/*.go | grep -v _test.go | xargs cat | wc -l); \
		printf '%-10s %6d\n' $$p $$n; total=$$((total + n)); \
	done; budget=$$(head -n 1 LOC_BUDGET); \
	printf '%-10s %6d\n%-10s %6d\n' total $$total budget $$budget; \
	if [ $$total -gt $$budget ]; then \
		echo "five-package total $$total is above LOC_BUDGET $$budget: delete something or raise the budget in this diff, with the reason"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# The chaos tests (fleet → resilient transport → injected-fault wire →
# cloud, the pipeline's wire edge) under the race detector: the delivery
# invariant must hold with every interleaving the detector can provoke.
race-chaos:
	$(GO) test -race -run 'TestChaos' ./internal/pipeline/

# Full chaos run at the three fault-rate presets, one JSON summary per
# rate, diffed against the checked-in expectation (the same lines
# TestChaosGolden compares). Fails if any acknowledged entry was lost or
# any byte differs.
CHAOS_GOLDEN = internal/pipeline/testdata

chaos:
	$(GO) run ./cmd/nazar-sim -chaos -chaos-rates 0,0.1,0.3 > chaos-binary.out
	diff $(CHAOS_GOLDEN)/chaos-binary.jsonl chaos-binary.out
	@cat chaos-binary.out; rm -f chaos-binary.out

# Macro-scale fleet simulator smoke: 10k devices through the checked-in
# smoke scenario (diurnal traffic, churn, a staged rollout) on 4
# workers. Completes in seconds; part of `make ci` and a workflow step.
macrosim-smoke:
	$(GO) run ./cmd/nazar-sim -scenario internal/macrosim/testdata/scenarios/smoke.json -workers 4

# Every program under examples/, each required to exit 0: they drive the
# public APIs end to end (opsmode over the HTTP client), and no test
# runs them.
EXAMPLES = $(wildcard examples/*)

examples:
	@for e in $(EXAMPLES); do \
		echo "== $$e"; $(GO) run ./$$e > /dev/null || exit 1; \
	done

# 30 seconds of coverage-guided fuzzing per target across every fuzz
# entry point in the repo (the checked-in seed corpora always run as
# part of `make test`): the ingest route (NZB1 bodies, and JSON bodies
# read as a batch's readable form and shipped as frames), the analyze
# decoder, the count differential, the fault-schedule
# parser, WAL replay, the quantized int8 model pass, and the
# branch-free layer kernels against the branchy loops they replaced. CI
# runs this on every push; interesting inputs it finds should be
# committed under the package's testdata/fuzz corpus. WAL replay's
# minimization is capped at 100 runs an input: each run does real file
# I/O, so go's default 60 s minimization of every new input took the
# whole budget and its exec count stopped growing after ~3 s.
fuzz-smoke:
	$(GO) test ./internal/httpapi/ -run '^$$' -fuzz 'FuzzIngestBatch$$' -fuzztime 30s
	$(GO) test ./internal/httpapi/ -run '^$$' -fuzz FuzzIngestBatchBinary -fuzztime 30s
	$(GO) test ./internal/httpapi/ -run '^$$' -fuzz FuzzAnalyzeRequest -fuzztime 30s
	$(GO) test ./internal/driftlog/ -run '^$$' -fuzz FuzzCountDifferential -fuzztime 30s
	$(GO) test ./internal/driftlog/ -run '^$$' -fuzz FuzzWALReplay -fuzztime 30s -fuzzminimizetime 100x
	$(GO) test ./internal/faultinject/ -run '^$$' -fuzz FuzzParseSchedule -fuzztime 30s
	$(GO) test ./internal/driftlog/ -run '^$$' -fuzz FuzzWireDecode -fuzztime 30s
	$(GO) test ./internal/nn/ -run '^$$' -fuzz FuzzQuantizedForward -fuzztime 30s
	$(GO) test ./internal/nn/ -run '^$$' -fuzz FuzzLayerKernels -fuzztime 30s
	$(GO) test ./internal/macrosim/ -run '^$$' -fuzz FuzzParseScenario -fuzztime 30s

bench:
	$(GO) test -run '^$$' -bench 'BenchmarkIngest$$|BenchmarkRunWindow$$' -benchtime 2s .

# Kernel/model micro-benchmarks (-benchmem): blocked vs reference matmul
# orientations, fused ops, workspace round trips, steady-state model
# passes, the adaptation step and whole runs built on them, and the
# device side's working-set axis (BenchmarkInferFleet: pools × versions
# over one backbone, ns/inference and resident-B/pool) with what an
# install costs (BenchmarkPoolInstall). Each benchmark runs 5 times and
# benchjson keeps the fastest sample, which filters shared-machine noise.
# The parsed results (including blocked-vs-ref speedups) land in
# BENCH_kernels.json.
bench-kernels:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 0.5s -count 5 ./internal/tensor/ ./internal/nn/ ./internal/adapt/ ./internal/registry/ ./internal/device/ \
		| tee bench-kernels.out
	$(GO) run ./cmd/benchjson < bench-kernels.out > BENCH_kernels.json
	@rm -f bench-kernels.out
	@echo "wrote BENCH_kernels.json"

# Drift-log analytics benchmarks: bitset popcount counting vs the
# tests' row-scan reference, full mining vs cached window re-mining, and
# the key-caching micro-benchmark. Same 5-sample best-of protocol as
# bench-kernels; the parsed results (including bitset-vs-scan and
# cached-vs-first speedups) land in BENCH_analysis.json.
bench-analysis:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 0.5s -count 5 ./internal/driftlog/ ./internal/fim/ \
		| tee bench-analysis.out
	$(GO) run ./cmd/benchjson < bench-analysis.out > BENCH_analysis.json
	@rm -f bench-analysis.out
	@echo "wrote BENCH_analysis.json"

# Durability benchmarks: append throughput with and without the WAL in
# front of the store (the nowal-vs-wal pair reads as the fsync overhead
# factor) and cold-start replay rate by row count and by file count
# (segments/32k against files/32KiB/32k: the same rows from one segment
# and from 32 KiB segments). Results land in BENCH_wal.json.
bench-wal:
	$(GO) test -run '^$$' -bench 'BenchmarkDriftlogAppend|BenchmarkWALReplay' -benchmem -benchtime 0.5s -count 5 \
		./internal/driftlog/ | tee bench-wal.out
	$(GO) run ./cmd/benchjson < bench-wal.out > BENCH_wal.json
	@rm -f bench-wal.out
	@echo "wrote BENCH_wal.json"

# Wire-codec benchmarks: binary vs JSON encode/decode of ingest batches
# at 16 and 256 rows, plus handler-level NZB1 ingest round trips. The parsed
# results (including binary-vs-json speedups) land in BENCH_wire.json.
bench-wire:
	$(GO) test -run '^$$' -bench 'BenchmarkWire' -benchmem -benchtime 0.5s -count 5 \
		./internal/driftlog/ | tee bench-wire.out
	$(GO) run ./cmd/benchjson < bench-wire.out > BENCH_wire.json
	@rm -f bench-wire.out
	@echo "wrote BENCH_wire.json"

# Macro-simulator throughput: 100k- and 1M-device windows, serial and
# parallel, reporting devices/s. Results land in BENCH_macrosim.json so
# simulator throughput is tracked across PRs like the kernel numbers.
bench-macrosim:
	$(GO) test -run '^$$' -bench 'BenchmarkMacrosim' -benchmem -count 3 \
		./internal/macrosim/ | tee bench-macrosim.out
	$(GO) run ./cmd/benchjson < bench-macrosim.out > BENCH_macrosim.json
	@rm -f bench-macrosim.out
	@echo "wrote BENCH_macrosim.json"

# One-iteration pass over every benchmark in the repo — the CI smoke
# check that none of them rotted.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

clean:
	$(GO) clean -testcache
