GO ?= go

.PHONY: all build vet test race bench benchcheck benchpool benchcompress benchplan fuzz soak chaos warmcache traceguard servesmoke loadsmoke examples check

all: check

build:
	$(GO) build ./...

# vet also fails when any tracked Go file is not gofmt-formatted; when
# non-test code outside internal/llm and bench/ type-asserts
# llm.ContextPredictor: llm.Ask is the one place that decides whether a
# predictor call can be canceled; when Go code in the packages that
# build serve configs sets Window:, the deprecated serve.Config field
# the tier ignores; and when Go code in the packages that build core
# execution configs sets Cache:, the deprecated core.ExecConfig field
# nothing reads (batch.Config has no Cache field, so in mqo and
# examples a Cache: can only be that one).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
		if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi
	@asserts=$$(git grep --untracked -nE '\.\((llm\.)?ContextPredictor\)' -- '*.go' ':!*_test.go' ':!internal/llm/' ':!bench/'); \
		if [ -n "$$asserts" ]; then echo "call llm.Ask instead of type-asserting llm.ContextPredictor:"; echo "$$asserts"; exit 1; fi
	@windows=$$(git grep --untracked -nw 'Window:' -- 'internal/serve/*.go' 'internal/load/*.go' 'internal/cliflags/*.go' 'mqo/*.go' 'cmd/*.go' 'examples/*.go'); \
		if [ -n "$$windows" ]; then echo "serve.Config.Window is deprecated and ignored; do not set it:"; echo "$$windows"; exit 1; fi
	@caches=$$(git grep --untracked -nw 'Cache:' -- 'internal/core/*.go' 'internal/serve/*.go' 'internal/load/*.go' 'internal/cliflags/*.go' 'internal/experiments/*.go' 'cmd/*.go' 'mqo/*.go' 'examples/*.go'); \
		if [ -n "$$caches" ]; then echo "core.ExecConfig.Cache is deprecated and ignored; do not set it:"; echo "$$caches"; exit 1; fi

test:
	$(GO) test ./...

# race also repeats the prompt cache's concurrency tests ten times: one
# mutex guards the whole cache, so these are where a lost update or an
# unreconciled counter would show. It repeats the SNS label index's
# reference and concurrency tests too: one index is built lazily by
# whichever selection comes first and then read by every worker. The
# SNS similarity index is built the same way, by whichever selection
# runs first, through the term-count build (encode.Tally straight into
# the index's arrays), so its first-use test is repeated as well.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'TestConcurrentPutGet|TestStatsReconcileWithMetrics' ./internal/promptcache/
	$(GO) test -race -count=10 -run TestEvictionUnderConcurrentExecute ./internal/batch/
	$(GO) test -race -count=10 -run 'TestReachMatchesWalk$$|TestReachConcurrent' ./internal/tag/
	$(GO) test -race -count=10 -run 'TestFixedLabelsConcurrentFirstUse|TestSNSConcurrentFirstUse' ./internal/predictors/

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
# accepts one target per package invocation, so each pattern is
# anchored).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz FuzzPoolPick -fuzztime $(FUZZTIME) -run '^$$' ./internal/pool/
	$(GO) test -fuzz FuzzSegmentReplay -fuzztime $(FUZZTIME) -run '^$$' ./internal/promptcache/
	$(GO) test -fuzz FuzzScenarioConfig -fuzztime $(FUZZTIME) -run '^$$' ./internal/load/
	$(GO) test -fuzz FuzzCompress -fuzzminimizetime 10x -fuzztime $(FUZZTIME) -run '^$$' ./internal/prompt/
	$(GO) test -fuzz FuzzCount -fuzztime $(FUZZTIME) -run '^$$' ./internal/token/
	$(GO) test -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/prompt/
	$(GO) test -fuzz '^FuzzParseResponse$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/prompt/
	$(GO) test -fuzz FuzzBuildParseRoundTrip -fuzztime $(FUZZTIME) -run '^$$' ./internal/prompt/
	$(GO) test -fuzz FuzzLoad -fuzztime $(FUZZTIME) -run '^$$' ./internal/tag/

# soak runs the chaos soak (replica pool + hedging + breakers + disk
# cache + surrogate fallback under injected faults) and the serving-tier
# soak (mixed-tenant coalescing + backpressure over /v1/query) with the
# race detector. -short keeps CI at 2k query executions; drop it locally
# for the full 10k. The second run repeats the affinity warm path with
# more Ps than CPUs, where goroutines are parked mid-request: warm
# prompts must still stay on their owners and pay nothing.
soak:
	$(GO) test -race -tags soak -short -run 'TestSoak' ./internal/core/ ./internal/serve/
	GOMAXPROCS=8 $(GO) test -race -tags soak -short -run TestSoakAffinityWarmPath -count=4 ./internal/core/

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
# snapshot (a temporary file, removed afterwards) must contain zero
# predictor calls (mqo_sim_queries_total absent) and zero cache misses,
# and must record cache hits; the target fails otherwise.
warmcache:
	rm -rf warmcache.dir
	$(GO) run ./cmd/mqobench -exp table4 -fast -seed 1 -cache-dir warmcache.dir > /dev/null
	@snap=$$(mktemp); status=0; \
	$(GO) run ./cmd/mqobench -exp table4 -fast -seed 1 -cache-dir warmcache.dir -metrics-json $$snap > /dev/null 2>&1 || \
		{ echo "warmcache: FAIL - warm run failed"; status=1; }; \
	if [ $$status -eq 0 ] && grep -q mqo_sim_queries_total $$snap; then \
		echo "warmcache: FAIL - warm run paid predictor calls"; status=1; fi; \
	if [ $$status -eq 0 ] && grep -q mqo_cache_misses_total $$snap; then \
		echo "warmcache: FAIL - warm run missed the cache"; status=1; fi; \
	if [ $$status -eq 0 ] && ! grep -q mqo_cache_hits_total $$snap; then \
		echo "warmcache: FAIL - no cache hits recorded"; status=1; fi; \
	rm -rf warmcache.dir $$snap; \
	if [ $$status -eq 0 ]; then echo "warmcache: warm run served entirely from cache"; fi; \
	exit $$status

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
# deterministic on any CI machine; the honest serving tail is measured
# by the repository benchmark (bash bench/run.sh, BENCHMARK.json).
loadsmoke:
	$(GO) run ./cmd/mqoload -preset smoke -require-slo -max-decode-errors 0.01

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

# benchplan times the plan path's stages on a full-size pubmed graph
# (generation, the SNS similarity index, SNS selection of every tenth
# node, level-1 compression of 200 SNS prompts, the simulator
# answering those 200 compressed prompts, ExecuteWith of 200 SNS
# queries with neighbor abstracts at compression level 1, and BoostWith
# of batch-boost's pruned 2,000-query SNS plan) five times each and
# appends one JSON line per run (ns/op, B/op, allocs/op, and for the
# SNS index the live heap it keeps) to the
# committed BENCH_plan.json trajectory, then shows every line the run
# appended. One run cannot show a change smaller than the host's drift
# between back-to-back runs, so a before/after claim compares the
# medians of each benchmark's five rows. The benchmarks use only
# long-standing APIs, so the same file measures an older checkout for
# a before row.
benchplan:
	@before=$$(wc -l < BENCH_plan.json); \
	MQO_BENCH_JSON=$(CURDIR)/BENCH_plan.json \
		$(GO) test -bench 'BenchmarkPlan' -benchtime 3x -count 5 -run '^$$' ./internal/core/ && \
	tail -n +$$((before + 1)) BENCH_plan.json

# servesmoke proves the online serving tier end to end across a real
# process boundary: llmserve starts with -serve on the smoke scenario's
# dataset, scale and seed (so node IDs line up), mqoload drives the
# smoke scenario against it over HTTP with the SLO gate armed and zero
# decode errors allowed, the printed coalesce rate must be nonzero
# (cross-tenant coalescing happened), and SIGTERM must drain cleanly:
# exit 0 and a "drained" line that counts a nonzero number of /v1/query
# answers.
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
	grep -Eq 'drained, .* [1-9][0-9]* on /v1/query\)' servesmoke-llmserve.log || \
		{ echo "servesmoke: FAIL - drain line counts no /v1/query answers"; status=1; }; \
	rm -f servesmoke-*.bin servesmoke-*.log; \
	if [ $$status -eq 0 ]; then echo "servesmoke: PASS"; fi; exit $$status

# examples builds every program under examples/ into a temporary
# directory and runs each once, failing on the first build error or
# nonzero exit and then showing that program's output. The examples
# drive the public mqo API end to end (the batch executor, resuming a
# stopped batch from the prompt cache, boosting, budgets), which no
# test runs as a program; examples/resume fails if its second run pays
# again for a prompt its first run bought.
examples:
	@dir=$$(mktemp -d); status=0; \
	for ex in examples/*/; do \
		name=$$(basename $$ex); \
		$(GO) build -o $$dir/$$name ./$$ex || { status=1; break; }; \
		if $$dir/$$name > $$dir/$$name.log 2>&1; then echo "examples/$$name: ok"; \
		else cat $$dir/$$name.log; echo "examples: FAIL - $$name exited nonzero"; status=1; break; fi; \
	done; \
	rm -rf $$dir; exit $$status

check: build vet test race
