GO ?= go

# BENCHTIME paces the hot-path benchmarks (make bench). CI overrides
# it with a fixed iteration count for a fast, deterministic smoke.
BENCHTIME ?= 1s
# CHURNTIME paces BenchmarkCallChurn with a fixed iteration count:
# its allocs/op amortizes one-time warm-up (monitor pool, intern
# table, timer wheel) over the run, so baseline and fresh runs must
# use identical pacing for bench-compare to be meaningful.
CHURNTIME ?= 5000x

# The benchmark suites behind the committed JSON baselines. HOTPATH
# feeds BENCH_hotpath.json; the engine file merges a churn run
# (allocation-gated) with a throughput run (timing only — engine
# fan-out allocs vary with scheduling and are not a useful gate).
HOTPATH_BENCH = BenchmarkSIPParse$$|BenchmarkRTPParse$$|BenchmarkRTCPParse$$|BenchmarkIDSProcessSIP$$|BenchmarkIDSProcessSIPCompiled$$|BenchmarkIDSProcessRTP$$|BenchmarkEFSMStep$$|BenchmarkEFSMStepCompiled$$|BenchmarkFastpathLookup$$
# CHURN_BENCH is the call lifecycle one dialog at a time plus the same
# churn with 1k and 10k closed monitors lingering resident, whose
# ns/op must not grow with the resident count.
CHURN_BENCH = BenchmarkCallChurn$$|BenchmarkCallChurnResident$$
# THROUGHPUT_BENCH pairs the SIP-heavy engine mix with the media-heavy
# one so the fast-path absorption numbers are pinned alongside the
# baseline fan-out numbers in BENCH_engine.json.
THROUGHPUT_BENCH = BenchmarkEngineThroughput$$|BenchmarkEngineThroughputMedia$$

.PHONY: all build test race fmt lint ci golden bench bench-smoke bench-compare fuzz-smoke speccover speccover-update specgen specgen-check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi

# lint runs every static gate: formatting, go vet, the repo-specific
# source analyzer (cmd/vidslint) and the EFSM specification verifier
# (internal/speclint via cmd/fsmdump). vidslint's whole-module run
# includes the whole-program passes: the //vids:noalloc escape gate
# over the hot-path call closure, the //vids:nopanic panic-freedom
# gate over the untrusted-input closure, the lock-discipline gate over
# internal/engine, internal/timerwheel and internal/ingress, the
# directive-freshness sweep, and the alloc-ceiling drift check
# against alloc_test.go.
lint: fmt
	$(GO) vet ./...
	$(GO) run ./cmd/vidslint ./...
	$(GO) run ./cmd/fsmdump

# bench runs the packet-path micro-benchmarks with allocation
# reporting and archives the numbers as BENCH_hotpath.json — the
# regression record for the zero-allocation hot path — plus the call
# lifecycle and engine throughput benchmarks as BENCH_engine.json.
# Override the pacing with BENCHTIME (e.g. `make bench BENCHTIME=100x`).
bench:
	$(GO) test -run '^$$' -bench '$(HOTPATH_BENCH)' \
		-benchmem -benchtime $(BENCHTIME) . | tee BENCH_hotpath.txt
	$(GO) run ./cmd/benchjson < BENCH_hotpath.txt > BENCH_hotpath.json
	@rm -f BENCH_hotpath.txt
	@echo "wrote BENCH_hotpath.json"
	$(GO) test -run '^$$' -bench '$(CHURN_BENCH)' \
		-benchmem -benchtime $(CHURNTIME) . | $(GO) run ./cmd/benchjson > BENCH_churn.part.json
	$(GO) test -run '^$$' -bench '$(THROUGHPUT_BENCH)' \
		-benchtime $(BENCHTIME) . | $(GO) run ./cmd/benchjson > BENCH_throughput.part.json
	$(GO) run ./cmd/benchjson -merge BENCH_churn.part.json BENCH_throughput.part.json > BENCH_engine.json
	@rm -f BENCH_churn.part.json BENCH_throughput.part.json
	@echo "wrote BENCH_engine.json"
	$(GO) run ./cmd/benchjson -scaling BENCH_engine.json \
		'BenchmarkEngineThroughput/shards=4' 'BenchmarkEngineThroughput/shards=1'
	$(GO) run ./cmd/benchjson -scaling BENCH_engine.json \
		'BenchmarkEngineThroughputMedia/fastpath=on/shards=4' 'BenchmarkEngineThroughputMedia/fastpath=on/shards=1'
	$(GO) run ./cmd/benchjson -scaling -scale-ratio 4 -scale-min-cores 1 BENCH_engine.json \
		'BenchmarkEngineThroughputMedia/fastpath=on/shards=1' 'BenchmarkEngineThroughputMedia/fastpath=off/shards=1'

# bench-compare reruns the pinned benchmarks and diffs allocs/op
# against the committed baselines, failing on a >10% regression —
# run it before `make bench` overwrites the baselines.
bench-compare:
	$(GO) test -run '^$$' -bench '$(HOTPATH_BENCH)' \
		-benchmem -benchtime $(BENCHTIME) . | $(GO) run ./cmd/benchjson > BENCH_hotpath.fresh.json
	$(GO) test -run '^$$' -bench '$(CHURN_BENCH)' \
		-benchmem -benchtime $(CHURNTIME) . | $(GO) run ./cmd/benchjson > BENCH_churn.fresh.json
	$(GO) test -run '^$$' -bench '$(THROUGHPUT_BENCH)' \
		-benchtime $(BENCHTIME) . | $(GO) run ./cmd/benchjson > BENCH_throughput.fresh.json
	$(GO) run ./cmd/benchjson -merge BENCH_churn.fresh.json BENCH_throughput.fresh.json > BENCH_engine.fresh.json
	$(GO) run ./cmd/benchjson -compare BENCH_hotpath.json BENCH_hotpath.fresh.json
	$(GO) run ./cmd/benchjson -compare BENCH_engine.json BENCH_engine.fresh.json
	$(GO) run ./cmd/benchjson -scaling BENCH_engine.fresh.json \
		'BenchmarkEngineThroughput/shards=4' 'BenchmarkEngineThroughput/shards=1'
	$(GO) run ./cmd/benchjson -scaling BENCH_engine.fresh.json \
		'BenchmarkEngineThroughputMedia/fastpath=on/shards=4' 'BenchmarkEngineThroughputMedia/fastpath=on/shards=1'
	$(GO) run ./cmd/benchjson -scaling -scale-ratio 4 -scale-min-cores 1 BENCH_engine.fresh.json \
		'BenchmarkEngineThroughputMedia/fastpath=on/shards=1' 'BenchmarkEngineThroughputMedia/fastpath=off/shards=1'
	@rm -f BENCH_hotpath.fresh.json BENCH_churn.fresh.json BENCH_throughput.fresh.json BENCH_engine.fresh.json
	@echo "allocation budgets hold vs committed baselines; ingestion tier scaling and fast-path absorption floors hold"

# bench-smoke exercises the concurrent engine benchmark once per
# shard count under the race detector — a cheap CI gate that the
# sharded pipeline still builds, runs and drains cleanly.
bench-smoke:
	$(GO) test -race -run '^$$' -bench 'BenchmarkEngineThroughput' -benchtime=1x .

# fuzz-smoke briefly runs the native fuzz targets that hammer the
# //vids:nopanic roots with hostile bytes — the dynamic cross-check of
# the static panic-freedom gate. Each target also replays its
# committed corpus (testdata/fuzz/) as regression cases under plain
# `go test`. FUZZTIME paces the smoke; raise it for a deeper local run
# (e.g. `make fuzz-smoke FUZZTIME=2m`).
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/sipmsg -run '^$$' -fuzz 'FuzzSIPParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sipmsg -run '^$$' -fuzz 'FuzzURIParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rtp -run '^$$' -fuzz 'FuzzRTPParseInto$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ingress -run '^$$' -fuzz 'FuzzLiteExtract$$' -fuzztime $(FUZZTIME)

# speccover measures specification transition coverage (scenario
# suite + synthesized witness traces, merged with static product
# reachability) and gates on the committed SPEC_COVERAGE.json
# baseline. Witness traces land in coverage-traces/ for inspection and
# replay via `vids -replay`.
speccover:
	$(GO) run ./cmd/speccover -baseline SPEC_COVERAGE.json -traces coverage-traces

# speccover-update regenerates the coverage baseline after a reviewed
# specification or scenario change.
speccover-update:
	$(GO) run ./cmd/speccover -write SPEC_COVERAGE.json

# specgen regenerates internal/idsgen/tables_gen.go from the
# interpreted EFSM specifications — run it after any spec change, then
# commit the result. specgen-check verifies the committed file is
# byte-identical to what the generator would emit (the CI freshness
# gate: stale compiled tables fail instead of silently diverging from
# the specs).
specgen:
	$(GO) run ./cmd/specgen

specgen-check:
	$(GO) run ./cmd/specgen -check

# ci reproduces .github/workflows/ci.yml locally.
ci: lint specgen-check build race bench-smoke fuzz-smoke speccover

# golden regenerates the spec-graph golden files after a reviewed
# specification change.
golden:
	$(GO) test ./internal/ids -run DOTGolden -update
