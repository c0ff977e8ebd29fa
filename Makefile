GO ?= go

.PHONY: all build vet test race bench benchcheck benchpool benchcompress fuzz soak chaos warmcache traceguard servesmoke loadsmoke benchload check

all: check

build:
	$(GO) build ./...

# vet also fails when any tracked Go file is not gofmt-formatted.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
		if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# benchcheck vets and tests the repository benchmark (bench/, a Go
# module of its own that root ./... never reaches): the metric catalog
# check plus a short smoke of every workload, so a change that breaks
# an API the benchmark calls fails here.
benchcheck:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# benchpool measures the replica pool's hedged-tail win (p99 with one
# occasionally-stalling backend vs a 3-replica hedged pool) and the
# affinity scorer's cold-vs-warm shard win (warm misroute rate, guarded
# at zero vs the P2C baseline), appending one JSON line each to
# BENCH_pool.json. The benchmarks themselves fail unless hedging at
# least halves the p99 and affinity keeps every warm prompt on its
# owner.
benchpool:
	MQO_BENCH_JSON=$(CURDIR)/BENCH_pool.json \
		$(GO) test -bench 'BenchmarkPoolHedgedTail|BenchmarkPoolAffinityColdWarm' -benchtime 3x -run '^$$' ./internal/pool/
	@tail -n 2 BENCH_pool.json

# fuzz smokes every fuzz target for a bounded interval (go test -fuzz
# accepts one target per package invocation).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz FuzzPoolPick -fuzztime $(FUZZTIME) -run '^$$' ./internal/pool/
	$(GO) test -fuzz FuzzReplayLog -fuzztime $(FUZZTIME) -run '^$$' ./internal/batch/
	$(GO) test -fuzz FuzzSegmentReplay -fuzztime $(FUZZTIME) -run '^$$' ./internal/promptcache/
	$(GO) test -fuzz FuzzScenarioConfig -fuzztime $(FUZZTIME) -run '^$$' ./internal/load/
	$(GO) test -fuzz FuzzCompress -fuzzminimizetime 10x -fuzztime $(FUZZTIME) -run '^$$' ./internal/prompt/
	$(GO) test -fuzz FuzzCount -fuzztime $(FUZZTIME) -run '^$$' ./internal/token/

# soak runs the chaos soak (replica pool + hedging + breakers + disk
# cache + surrogate fallback under injected faults) and the serving-tier
# soak (mixed-tenant coalescing + backpressure over /v1/query) with the
# race detector. -short keeps CI at 2k query executions; drop it locally
# for the full 10k.
soak:
	$(GO) test -race -tags soak -short -run 'TestSoak' ./internal/core/ ./internal/serve/

# chaos runs the fault-injection experiment at a fixed seed and asserts
# that the surrogate fallback actually answered queries and that the
# run reproduced across worker counts (the experiment fails otherwise).
chaos:
	$(GO) run ./cmd/mqobench -exp faults -fast -seed 1 > chaos.log; \
		status=$$?; cat chaos.log; \
		if [ $$status -ne 0 ]; then rm -f chaos.log; exit $$status; fi
	grep -Eq 'chaos: surrogate fallback answered [1-9][0-9]* queries' chaos.log
	rm -f chaos.log

# warmcache proves the persistent prompt cache end-to-end across two
# processes: a cold mqobench run populates the cache directory, and the
# warm re-run must answer every prompt from disk. The warm run's metrics
# snapshot (BENCH_cache.json) must contain zero predictor calls
# (mqo_sim_queries_total absent) and zero cache misses; the target fails
# otherwise.
warmcache:
	rm -rf warmcache.dir
	$(GO) run ./cmd/mqobench -exp table4 -fast -seed 1 -cache-dir warmcache.dir > /dev/null
	$(GO) run ./cmd/mqobench -exp table4 -fast -seed 1 -cache-dir warmcache.dir -metrics-json BENCH_cache.json > /dev/null 2>&1
	rm -rf warmcache.dir
	@if grep -q mqo_sim_queries_total BENCH_cache.json; then \
		echo "warmcache: FAIL - warm run paid predictor calls"; exit 1; fi
	@if grep -q mqo_cache_misses_total BENCH_cache.json; then \
		echo "warmcache: FAIL - warm run missed the cache"; exit 1; fi
	@grep -q mqo_cache_hits_total BENCH_cache.json || \
		{ echo "warmcache: FAIL - no cache hits recorded"; exit 1; }
	@echo "warmcache: warm run served entirely from cache (BENCH_cache.json)"

# traceguard proves end-to-end latency attribution: a fully-traced
# mqorun must produce, for every query, a ledger whose billed stages
# cover >= 90% of the query's span, and an SLO report whose JSON a
# strict consumer can parse. A generous 30s p99 objective makes the
# -require-slo verdict deterministic on any CI machine.
traceguard:
	$(GO) run ./cmd/mqorun -dataset cora -scale 0.1 -queries 25 -seed 1 -workers 4 \
		-trace-sample 1 -slo-latency-p99 30s \
		-trace-json traceguard.json -metrics-json traceguard-metrics.json > /dev/null
	$(GO) run ./cmd/traceguard -trace traceguard.json -require-slo
	rm -f traceguard.json traceguard-metrics.json

# loadsmoke is the CI load gate: the short deterministic "smoke"
# scenario (fixed seed, sim predictor, open-loop Poisson arrivals)
# drives the in-process serving tier, and the run fails on any SLO
# violation, any client/server verdict disagreement, or a >1%
# decode-error share. The generous 30s p99 objective makes the verdict
# deterministic on any CI machine; the honest tail numbers live in
# BENCH_load.json.
loadsmoke:
	$(GO) run ./cmd/mqoload -preset smoke -require-slo -max-decode-errors 0.01

# benchload appends one report row per headline scenario (steady near
# capacity, flood past it) to the committed BENCH_load.json trajectory:
# p50/p95/p99 latency, tokens per query, coalescing and affinity rates,
# 429 share, queue peak, and the SLO verdict cross-checked against the
# same run's /debug/slo.
benchload:
	$(GO) run ./cmd/mqoload -preset steady -out BENCH_load.json -max-decode-errors 0
	$(GO) run ./cmd/mqoload -preset flood -out BENCH_load.json -max-decode-errors 0
	@tail -n 2 BENCH_load.json

# benchcompress runs the standard prompt-compression sweep (levels 1-3
# plus two token budgets on the calibration datasets) and appends one
# JSON row per dataset to the committed BENCH_compress.json trajectory.
# The benchmark itself is the guard: it fails unless level-1
# compression saves >= 10% of metered input tokens on every dataset at
# same-shape accuracy.
benchcompress:
	MQO_BENCH_JSON=$(CURDIR)/BENCH_compress.json \
		$(GO) test -bench BenchmarkCompressSweep -benchtime 1x -run '^$$' ./internal/experiments/
	@tail -n 3 BENCH_compress.json

# servesmoke proves the online serving tier end to end across a real
# process boundary: llmserve starts with -serve on the smoke scenario's
# dataset, scale and seed (so node IDs line up), mqoload drives the
# smoke scenario against it over HTTP with the SLO gate armed and zero
# decode errors allowed, the printed coalesce rate must be nonzero
# (cross-tenant coalescing happened), and SIGTERM must drain cleanly:
# exit 0 and the "drained" line.
SERVESMOKE_ADDR ?= 127.0.0.1:18089
servesmoke:
	$(GO) build -o servesmoke-llmserve.bin ./cmd/llmserve
	$(GO) build -o servesmoke-mqoload.bin ./cmd/mqoload
	./servesmoke-llmserve.bin -addr $(SERVESMOKE_ADDR) -serve -dataset cora -scale 0.12 -seed 1 \
		-workers 4 -slo-latency-p99 30s -access-log=false > servesmoke-llmserve.log 2>&1 & pid=$$!; \
	status=0; \
	for i in $$(seq 100); do curl -sf http://$(SERVESMOKE_ADDR)/healthz > /dev/null && break; sleep 0.1; done; \
	./servesmoke-mqoload.bin -preset smoke -target http://$(SERVESMOKE_ADDR) \
		-require-slo -max-decode-errors 0 > servesmoke-mqoload.log 2>&1 || status=1; \
	cat servesmoke-mqoload.log; \
	grep -Eq 'report: .*coalesce [1-9][0-9]*%' servesmoke-mqoload.log || \
		{ echo "servesmoke: FAIL - coalesce rate is 0 (no cross-tenant coalescing)"; status=1; }; \
	kill -TERM $$pid; wait $$pid || { echo "servesmoke: FAIL - llmserve exited nonzero after SIGTERM"; status=1; }; \
	cat servesmoke-llmserve.log; \
	grep -q 'drained' servesmoke-llmserve.log || { echo "servesmoke: FAIL - no clean drain"; status=1; }; \
	rm -f servesmoke-*.bin servesmoke-*.log; \
	if [ $$status -eq 0 ]; then echo "servesmoke: PASS"; fi; exit $$status

check: build vet test race
