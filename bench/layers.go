package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/predictors"
	"repro/internal/prompt"
	"repro/internal/promptcache"
	"repro/internal/tag"
	"repro/internal/token"
)

// A traced run (-trace 1) measures the workload twice over identical
// inputs, each for half the run's seconds. The untraced half gives the
// process's CPU and heap growth and the base for
// obs.trace_overhead_share. The traced half samples every root span and
// hands the program wrapped method and predictors; the other per-layer
// metrics come from its spans, ledgers and wrappers, plus replays of
// single layers on the workload's own inputs.

// spansPerRequest bounds the spans one request or plan entry can leave
// (serve.query, core.query, batch.queue/request/attempt/cache,
// pool.pick/attempt, plus its share of window and round spans), so the
// trace ring never wraps during a run.
const spansPerRequest = 12

// replayNodes caps how many of the workload's nodes the replays use.
const replayNodes = 256

// spanIndex groups completed spans by name.
type spanIndex map[string][]obs.Trace

func indexSpans(reg *obs.Registry, capacity int) (spanIndex, int, error) {
	spans := reg.Traces()
	if len(spans) >= capacity {
		return nil, 0, fmt.Errorf("trace ring filled (%d spans): per-layer numbers would be incomplete", capacity)
	}
	idx := make(spanIndex)
	for _, t := range spans {
		idx[t.Name] = append(idx[t.Name], t)
	}
	for _, ts := range idx {
		sort.Slice(ts, func(i, j int) bool { return ts[i].Start.Before(ts[j].Start) })
	}
	return idx, len(spans), nil
}

func spanEnd(t obs.Trace) time.Time { return t.Start.Add(t.Duration) }

func spanMS(ts []obs.Trace) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = ms(t.Duration)
	}
	return out
}

// attrMean averages a numeric span attribute.
func attrMean(ts []obs.Trace, key string) float64 {
	var xs []float64
	for _, t := range ts {
		if v, err := strconv.ParseFloat(t.Attrs[key], 64); err == nil {
			xs = append(xs, v)
		}
	}
	return mean(xs)
}

// stageWall sums one stage's billed and unbilled charges in a ledger.
func stageWall(l obs.LedgerSnapshot, stage string) (time.Duration, bool) {
	var d time.Duration
	found := false
	for _, e := range l.Entries {
		if e.Stage == stage {
			d += e.Wall
			found = true
		}
	}
	return d, found
}

// roundsPerPlan averages boosting rounds per core.plan; a plain plan
// executes as one round.
func roundsPerPlan(sp spanIndex) float64 {
	rounds := make(map[string]int)
	for _, r := range sp["core.round"] {
		rounds[r.TraceID]++
	}
	var xs []float64
	for _, p := range sp["core.plan"] {
		xs = append(xs, float64(max(1, rounds[p.TraceID])))
	}
	return mean(xs)
}

// commonLayers fills the metrics every workload measures the same way:
// neighbor selection, predictor calls, the batch executor's ledgers,
// pool routing and the trace volume.
func commonLayers(ls *metricSet, sp spanIndex, nspans int, ledgers []obs.LedgerSnapshot, pr *probe, answered float64, wall time.Duration, workers int) {
	sel := pr.selects.snapshot()
	ls.set("predictors.select_us_p50", percentile(usAll(sel), 0.50))
	ls.set("predictors.select_us_p99", percentile(usAll(sel), 0.99))
	ls.set("predictors.select_calls_per_query", share(float64(len(sel)), answered))
	ls.set("predictors.select_busy_share", share(float64(sum(sel)), float64(wall)))

	outer, inner := pr.outer.snapshot(), pr.inner.snapshot()
	ls.set("llm.calls", float64(len(outer)))
	ls.set("llm.calls_per_ok", share(float64(len(outer)), answered))
	ls.set("llm.call_ms_p50", percentile(msAll(outer), 0.50))
	ls.set("llm.call_ms_p99", percentile(msAll(outer), 0.99))
	ls.set("llm.sim_us_p50", percentile(usAll(inner), 0.50))
	ls.set("llm.busy_share", share(float64(sum(outer)), float64(wall)*float64(workers)))

	var queue, predict, exec, attribution []float64
	queries, cached := 0, 0
	for _, l := range ledgers {
		if strings.HasPrefix(l.Name, "serve/") {
			continue
		}
		queries++
		q, _ := stageWall(l, obs.StageQueue)
		queue = append(queue, ms(q))
		if p, ok := stageWall(l, obs.StagePredict); ok {
			predict = append(predict, ms(p))
		}
		e, _ := stageWall(l, obs.StageExec)
		exec = append(exec, us(e))
		if _, ok := stageWall(l, obs.StageCache); ok {
			cached++
		}
		attribution = append(attribution, l.Attribution())
	}
	ls.set("batch.queue_ms_p50", percentile(queue, 0.50))
	ls.set("batch.queue_ms_p99", percentile(queue, 0.99))
	ls.set("batch.predict_ms_p50", percentile(predict, 0.50))
	ls.set("batch.exec_us_p50", percentile(exec, 0.50))
	ls.set("batch.cache_share", share(float64(cached), float64(queries)))
	ls.set("batch.attribution_p50", percentile(attribution, 0.50))

	picks, hits := sp["pool.pick"], 0
	for _, p := range picks {
		if p.Attrs["affinity"] == "hit" {
			hits++
		}
	}
	ls.set("pool.picks", float64(len(picks)))
	ls.set("pool.affinity_hit_share", share(float64(hits), float64(len(picks))))
	ls.set("obs.spans_per_query", share(float64(nspans), answered))
}

// instantBackend answers at once; the pool replay uses it so only the
// routing cost is timed.
type instantBackend struct{}

func (instantBackend) Name() string { return "instant" }
func (instantBackend) Query(string) (llm.Response, error) {
	return llm.Response{Category: "instant"}, nil
}

// replay times single layers on the workload's own nodes: prompt build,
// compression at batch-boost's level, token counting of the prompt as
// the workload sends it (compressed when comp is enabled), the replica
// pool's affinity routing over instant backends, and a disk prompt-cache
// lookup. A workload that bypasses one of these layers still gets its
// cost on its own prompts.
func replay(ls *metricSet, ctx *predictors.Context, m predictors.Method, nodes []tag.NodeID, comp prompt.Compressor, dir string) error {
	nodes = nodes[:min(replayNodes, len(nodes))]
	var build, compress, count []float64
	var saved, before, sent float64
	prompts := make([]string, 0, len(nodes))
	for _, v := range nodes {
		sel := m.Select(ctx, v)
		t := time.Now()
		p := predictors.BuildPrompt(ctx, v, sel, m.Ranked() && len(sel) > 0)
		build = append(build, us(time.Since(t)))
		t = time.Now()
		c, st := prompt.Compressor{Level: batchCompress}.CompressStats(p)
		compress = append(compress, us(time.Since(t)))
		saved, before = saved+float64(st.Saved()), before+float64(st.TokensBefore)
		if comp.Enabled() {
			p = c
		}
		t = time.Now()
		n := token.Count(p)
		count = append(count, us(time.Since(t)))
		sent += float64(n)
		prompts = append(prompts, p)
	}
	ls.set("prompt.build_us_p50", percentile(build, 0.50))
	ls.set("prompt.compress_us_p50", percentile(compress, 0.50))
	ls.set("prompt.compress_saved_share", share(saved, before))
	ls.set("token.count_us_p50", percentile(count, 0.50))
	ls.set("token.prompt_tokens_mean", share(sent, float64(len(prompts))))

	pl, err := pool.New([]llm.Predictor{instantBackend{}, instantBackend{}, instantBackend{}},
		pool.Config{Scorer: &pool.Affinity{}, Obs: obs.Nop})
	if err != nil {
		return err
	}
	var pick []float64
	for _, p := range prompts {
		t := time.Now()
		if _, err := pl.QueryContext(context.Background(), p); err != nil {
			return err
		}
		pick = append(pick, us(time.Since(t)))
	}
	ls.set("pool.pick_us_p50", percentile(pick, 0.50))

	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c, err := promptcache.Open(dir, promptcache.Config{Obs: obs.Nop})
	if err != nil {
		return err
	}
	defer c.Close()
	const ns = "replay"
	for _, p := range prompts {
		if err := c.Put(promptcache.KeyOf(ns, p), llm.Response{Category: "replay"}); err != nil {
			return err
		}
	}
	var lookup []float64
	for _, p := range prompts {
		t := time.Now()
		if _, ok := c.Get(promptcache.KeyOf(ns, p)); !ok {
			return fmt.Errorf("replay cache lost an entry")
		}
		lookup = append(lookup, us(time.Since(t)))
	}
	ls.set("promptcache.lookup_us_p50", percentile(lookup, 0.50))
	return nil
}

// runServeTraced is a serve workload's -trace 1 run.
func runServeTraced(w serveWorkload, cfg runConfig) (*result, error) {
	var gt gate
	base, err := setupServe(w, cfg, nil)
	if err != nil {
		return nil, err
	}
	baseHeap := liveHeapMB()
	tr, err := newTraffic(w, cfg.seed, base.g.NumNodes(), base.setupNode, cfg.seconds/2)
	if err != nil {
		base.close()
		return nil, err
	}
	baseRun := base.drive(tr)
	base.close()
	gt.checkContract(baseRun, tr)
	if n := failures(baseRun); n > 0 {
		gt.failf("untraced run: %d of %d requests failed", n, len(baseRun.samples))
	}

	pr := &probe{}
	rig, err := setupServe(w, cfg, pr)
	if err != nil {
		return nil, err
	}
	pr.reset()
	capacity := spansPerRequest*len(tr.due) + 1024
	rig.reg.SetTraceCapacity(capacity)
	rig.reg.SetLedgerCapacity(2*len(tr.due) + 1024)
	run := rig.drive(tr)
	rig.close()
	gt.checkServe(rig, run, tr, cfg.seed)

	ls := newMetricSet(perLayer)
	if err := rig.layers(ls, run, baseRun, tr, baseHeap, capacity, cfg.workDir); err != nil {
		return nil, err
	}
	return gt.result(ls, len(run.samples), failures(run))
}

// layers fills a traced serve run's per-layer metrics.
func (rig *serveRig) layers(ls *metricSet, run, base serveRun, tr traffic, baseHeap float64, capacity int, dir string) error {
	sp, nspans, err := indexSpans(rig.reg, capacity)
	if err != nil {
		return err
	}
	sent := float64(len(run.samples))
	var lags []float64
	rejected, errs := 0, 0
	var answered []tag.NodeID
	seen := make(map[int]bool)
	for i, s := range run.samples {
		lags = append(lags, ms(s.lag))
		switch {
		case s.ok:
			if !seen[tr.nodes[i]] {
				seen[tr.nodes[i]] = true
				answered = append(answered, tag.NodeID(tr.nodes[i]))
			}
		case s.rejected():
			rejected++
		default:
			errs++
		}
	}
	ok := float64(run.okCount())
	ls.set("driver.lag_p50_ms", percentile(lags, 0.50))
	ls.set("driver.lag_p99_ms", percentile(lags, 0.99))
	ls.set("driver.drain_ms", ms(run.drain))
	ls.set("driver.sent", sent)
	ls.set("driver.ok", ok)
	ls.set("driver.rejected", float64(rejected))
	ls.set("driver.errors", float64(errs))

	windows, plans := sp["serve.window"], sp["core.plan"]
	ls.set("window.count", float64(len(windows)))
	ls.set("window.entries_mean", attrMean(windows, "entries"))
	ls.set("window.ms_p50", percentile(spanMS(windows), 0.50))
	ls.set("window.ms_p99", percentile(spanMS(windows), 0.99))
	var queue, exec []float64
	ledgers := rig.reg.Ledgers()
	for _, l := range ledgers {
		if strings.HasPrefix(l.Name, "serve/") {
			q, _ := stageWall(l, obs.StageQueue)
			e, _ := stageWall(l, obs.StageExec)
			queue, exec = append(queue, ms(q)), append(exec, ms(e))
		}
	}
	ls.set("window.queue_wait_ms_p50", percentile(queue, 0.50))
	ls.set("window.queue_wait_ms_p99", percentile(queue, 0.99))
	ls.set("window.exec_ms_p50", percentile(exec, 0.50))
	ls.set("window.exec_ms_p99", percentile(exec, 0.99))

	for _, tier := range []string{"memory", "inflight", "window"} {
		n := rig.reg.CounterValue("mqo_serve_coalesced_total", "tier", tier)
		ls.set("serve.coalesced_share."+tier, share(n, sent))
	}
	ls.set("serve.reject_share", share(float64(rejected), sent))
	ls.set("serve.queue_peak", float64(rig.tier.QueuePeak()))
	ls.set("heap.growth_mb", base.endHeapMB-baseHeap)

	// Windows run one at a time, and each executes one core.plan inside
	// it; the rest of the window is plan building.
	var build []float64
	j := 0
	for _, win := range windows {
		for j < len(plans) && plans[j].Start.Before(win.Start) {
			j++
		}
		if j < len(plans) && !spanEnd(plans[j]).After(spanEnd(win)) {
			build = append(build, ms(win.Duration-plans[j].Duration))
		}
	}
	ls.set("core.plan_ms_p50", percentile(spanMS(plans), 0.50))
	ls.set("core.build_ms_p50", percentile(build, 0.50))
	ls.set("core.rounds_per_plan", roundsPerPlan(sp))

	commonLayers(ls, sp, nspans, ledgers, rig.pr, ok, run.wall, serveWorkers)
	ls.set("process.cpu_us_per_query", base.cpuPerQuery())
	ls.set("obs.trace_overhead_share", share(run.cpuPerQuery()-base.cpuPerQuery(), base.cpuPerQuery()))
	for _, name := range []string{"promptcache.hit_share", "promptcache.entries", "promptcache.bytes",
		"promptcache.cold_qps", "promptcache.warm_qps"} {
		ls.set(name, 0)
	}
	m, err := predictors.ByName(rig.w.method)
	if err != nil {
		return err
	}
	return replay(ls, rig.pctx, m, answered, prompt.Compressor{}, filepath.Join(dir, "replay-cache"))
}

// runBatchTraced is batch-boost's -trace 1 run.
func runBatchTraced(cfg runConfig) (*result, error) {
	var gt gate
	base, err := setupBatch(cfg, nil)
	if err != nil {
		return nil, err
	}
	baseHeap := liveHeapMB()
	baseRun, err := base.drive(cfg.seconds/2, cfg.workDir)
	if err != nil {
		return nil, err
	}
	gt.checkBatch(baseRun.iters)

	pr := &probe{}
	rig, err := setupBatch(cfg, pr)
	if err != nil {
		return nil, err
	}
	pr.reset()
	// The traced iterations run slower than the untraced ones just
	// measured, so two spare iterations keep the ring from wrapping.
	passes := 2 * (len(baseRun.iters) + 2)
	capacity := passes * (spansPerRequest*len(rig.plan.Queries) + 1024)
	rig.reg.SetTraceCapacity(capacity)
	rig.reg.SetLedgerCapacity(passes * (len(rig.plan.Queries) + 16))
	run, err := rig.drive(cfg.seconds/2, cfg.workDir)
	if err != nil {
		return nil, err
	}
	gt.checkBatch(run.iters)

	ls := newMetricSet(perLayer)
	if err := rig.layers(ls, run, baseRun, baseHeap, capacity, cfg.workDir); err != nil {
		return nil, err
	}
	attempted, failed := run.attemptedFailed(len(rig.plan.Queries))
	return gt.result(ls, attempted, failed)
}

// layers fills a traced batch-boost run's per-layer metrics. The
// boosting round is the batch pipeline's window: its queries wait from
// the pass start until the round dispatches them.
func (rig *batchRig) layers(ls *metricSet, run, base batchRun, baseHeap float64, capacity int, dir string) error {
	sp, nspans, err := indexSpans(rig.reg, capacity)
	if err != nil {
		return err
	}
	attempted, failed := run.attemptedFailed(len(rig.plan.Queries))
	answered := float64(run.answered())
	var drains []float64
	for _, p := range run.passes() {
		last := time.Duration(0)
		for _, d := range p.settled {
			last = max(last, d)
		}
		drains = append(drains, ms(p.wall-last))
	}
	ls.set("driver.lag_p50_ms", percentile(msAll(run.lags), 0.50))
	ls.set("driver.lag_p99_ms", percentile(msAll(run.lags), 0.99))
	ls.set("driver.drain_ms", median(drains))
	ls.set("driver.sent", float64(attempted))
	ls.set("driver.ok", answered)
	ls.set("driver.rejected", 0)
	ls.set("driver.errors", float64(failed))

	plans, rounds := sp["core.plan"], sp["core.round"]
	planStart := make(map[string]time.Time, len(plans))
	for _, p := range plans {
		planStart[p.TraceID] = p.Start
	}
	type roundKey struct{ plan, round string }
	type extent struct{ first, last time.Time }
	dispatch := make(map[roundKey]extent)
	var queue, exec []float64
	for _, q := range sp["core.query"] {
		start, ok := planStart[q.Attrs["plan_trace"]]
		if !ok {
			continue
		}
		queue = append(queue, ms(q.Start.Sub(start)))
		exec = append(exec, ms(q.Duration))
		k := roundKey{q.Attrs["plan_trace"], q.Attrs["round"]}
		e, seen := dispatch[k]
		if !seen || q.Start.Before(e.first) {
			e.first = q.Start
		}
		if end := spanEnd(q); end.After(e.last) {
			e.last = end
		}
		dispatch[k] = e
	}
	// A round's planning is everything between the previous round's end
	// (or the pass start) and its own end that is not dispatch: candidate
	// selection, prompt build, compression and pseudo-label updates.
	var build []float64
	prevEnd := make(map[string]time.Time, len(plans))
	for _, r := range rounds {
		prev, ok := prevEnd[r.TraceID]
		if !ok {
			prev = planStart[r.TraceID]
		}
		e := dispatch[roundKey{r.TraceID, r.Attrs["round"]}]
		build = append(build, ms(spanEnd(r).Sub(prev)-e.last.Sub(e.first)))
		prevEnd[r.TraceID] = spanEnd(r)
	}
	ls.set("window.count", float64(len(rounds)))
	ls.set("window.entries_mean", attrMean(rounds, "executed"))
	ls.set("window.ms_p50", percentile(spanMS(rounds), 0.50))
	ls.set("window.ms_p99", percentile(spanMS(rounds), 0.99))
	ls.set("window.queue_wait_ms_p50", percentile(queue, 0.50))
	ls.set("window.queue_wait_ms_p99", percentile(queue, 0.99))
	ls.set("window.exec_ms_p50", percentile(exec, 0.50))
	ls.set("window.exec_ms_p99", percentile(exec, 0.99))
	for _, name := range []string{"serve.coalesced_share.memory", "serve.coalesced_share.inflight",
		"serve.coalesced_share.window", "serve.reject_share", "serve.queue_peak"} {
		ls.set(name, 0)
	}
	ls.set("heap.growth_mb", base.endHeapMB-baseHeap)
	ls.set("core.plan_ms_p50", percentile(spanMS(plans), 0.50))
	ls.set("core.build_ms_p50", percentile(build, 0.50))
	ls.set("core.rounds_per_plan", roundsPerPlan(sp))

	commonLayers(ls, sp, nspans, rig.reg.Ledgers(), rig.pr, answered, run.wall, runtime.NumCPU())
	ls.set("process.cpu_us_per_query", base.cpuPerQuery())
	ls.set("obs.trace_overhead_share", share(run.cpuPerQuery()-base.cpuPerQuery(), base.cpuPerQuery()))

	var hits, lookups int64
	var cold, warm []float64
	for _, it := range run.iters {
		hits += it.cache.Hits
		lookups += it.cache.Hits + it.cache.Misses
		cold, warm = append(cold, it.cold.qps()), append(warm, it.warm.qps())
	}
	last := run.iters[len(run.iters)-1].cache
	ls.set("promptcache.hit_share", share(float64(hits), float64(lookups)))
	ls.set("promptcache.entries", float64(last.Entries))
	ls.set("promptcache.bytes", float64(last.Bytes))
	ls.set("promptcache.cold_qps", median(cold))
	ls.set("promptcache.warm_qps", median(warm))

	rig.pctx.Known = copyKnown(rig.known)
	return replay(ls, rig.pctx, predictors.SNS{}, rig.plan.Queries, prompt.Compressor{Level: batchCompress}, filepath.Join(dir, "replay-cache"))
}
