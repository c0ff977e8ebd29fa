package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/predictors"
	"repro/internal/prompt"
	"repro/internal/promptcache"
	"repro/internal/tag"
	"repro/internal/xrand"
)

// batchRig is one set-up of the paper's offline pipeline: the dataset,
// the fitted text-inadequacy measure and the pruned plan.
type batchRig struct {
	g      *tag.Graph
	known  map[tag.NodeID]string
	pctx   *predictors.Context
	method predictors.Method
	sim    *llm.Sim
	pred   llm.Predictor
	plan   core.Plan
	reg    *obs.Registry
	pr     *probe // nil when untraced
}

// batchQuerySet draws the query nodes from seed among the unlabeled
// nodes.
func batchQuerySet(g *tag.Graph, split tag.Split, seed uint64) []tag.NodeID {
	labeled := split.IsLabeled()
	rest := make([]tag.NodeID, 0, g.NumNodes())
	for i := 0; i < g.NumNodes(); i++ {
		if v := tag.NodeID(i); !labeled[v] {
			rest = append(rest, v)
		}
	}
	idx := xrand.New(seed).SplitString("bench/queries").Sample(len(rest), min(batchQueries, len(rest)))
	out := make([]tag.NodeID, len(idx))
	for i, j := range idx {
		out[i] = rest[j]
	}
	return out
}

// setupBatch generates the dataset, fits FitInadequacy, prunes the plan
// at batchTau and builds the lazy SNS similarity index with one
// selection. A non-nil probe makes the run traced.
func setupBatch(cfg runConfig, pr *probe) (*batchRig, error) {
	g, split, err := graphWithLabels(cfg.scale)
	if err != nil {
		return nil, err
	}
	rig := &batchRig{g: g, known: predictors.KnownFromSplit(g, split), reg: obs.NewRegistry(), pr: pr}
	rig.reg.SetTraceSample(0)
	if pr != nil {
		rig.reg.SetTraceSample(1)
	}
	rig.pctx = newContext(g, rig.known, true)
	rig.pctx.Obs = rig.reg
	rig.sim = llm.NewSim(llm.GPT35(), g.Vocab, g.Classes, datasetSeed)
	rig.method, rig.pred = predictors.SNS{}, rig.sim
	if pr != nil {
		rig.method = timedMethod{Method: rig.method, log: &pr.selects}
		rig.pred = timed(timed(rig.sim, &pr.inner), &pr.outer)
	}
	queries := batchQuerySet(g, split, cfg.seed)
	iq, err := core.FitInadequacy(g, split.Labeled, rig.pred, "", core.DefaultInadequacyConfig())
	if err != nil {
		return nil, err
	}
	rig.plan = core.PrunePlan(iq, g, queries, batchTau)
	rig.method.Select(rig.pctx, queries[0])
	return rig, nil
}

// passOut is one BoostWith pass over the plan.
type passOut struct {
	start time.Time
	wall  time.Duration
	// settled holds each answer's instant, from the pass start.
	settled  []time.Duration
	pred     map[tag.NodeID]string
	failed   int
	calls    int // predictor calls
	tokens   int // predictor tokens
	accuracy float64
}

func (p passOut) qps() float64 { return float64(len(p.pred)) / p.wall.Seconds() }

// pass runs the plan once through the disk cache, from the initial
// labeled set (BoostWith writes pseudo-labels into Known).
func (rig *batchRig) pass(cache *promptcache.Cache) (passOut, error) {
	rig.pctx.Known = copyKnown(rig.known)
	out := passOut{settled: make([]time.Duration, 0, len(rig.plan.Queries))}
	var mu sync.Mutex
	meter := rig.sim.Meter()
	calls0, tok0 := meter.Queries(), meter.Total()
	out.start = time.Now()
	res, _, err := core.BoostWith(rig.pctx, rig.method, rig.pred, rig.plan, core.DefaultBoostConfig(), core.ExecConfig{
		Workers:  runtime.NumCPU(),
		Disk:     cache,
		Compress: prompt.Compressor{Level: batchCompress},
		OnResult: func(core.QueryOutcome) {
			d := time.Since(out.start)
			mu.Lock()
			out.settled = append(out.settled, d)
			mu.Unlock()
		},
	})
	out.wall = time.Since(out.start)
	var qerrs *core.QueryErrors
	switch {
	case errors.As(err, &qerrs):
		out.failed = len(qerrs.Errs)
	case err != nil:
		return out, err
	}
	out.pred = res.Pred
	out.calls, out.tokens = meter.Queries()-calls0, meter.Total()-tok0
	out.accuracy, _ = core.PlanAccuracy(rig.g, rig.plan.Queries, res.Pred)
	return out, nil
}

// batchIter is one iteration: a cold pass into a fresh disk cache, then
// a warm pass reading it back.
type batchIter struct {
	cold, warm passOut
	cache      promptcache.Stats
}

// batchRun is one measured interval of iterations.
type batchRun struct {
	iters []batchIter
	// lags holds, per pass, how late the driver started it after the
	// previous pass (or the interval) ended.
	lags      []time.Duration
	wall, cpu time.Duration
	endHeapMB float64
}

// passes lists the run's passes in order.
func (run batchRun) passes() []passOut {
	var out []passOut
	for _, it := range run.iters {
		out = append(out, it.cold, it.warm)
	}
	return out
}

// answered counts answers over all passes.
func (run batchRun) answered() int {
	n := 0
	for _, p := range run.passes() {
		n += len(p.pred)
	}
	return n
}

// drive repeats iterations until seconds have passed (at least one).
func (rig *batchRig) drive(seconds float64, workDir string) (batchRun, error) {
	var run batchRun
	cpu0 := cpuTime()
	start := time.Now()
	due := start
	limit := time.Duration(seconds * float64(time.Second))
	for i := 0; i == 0 || time.Since(start) < limit; i++ {
		it, err := rig.iterate(filepath.Join(workDir, fmt.Sprintf("promptcache-%d", i)), &run, &due)
		if err != nil {
			return run, err
		}
		run.iters = append(run.iters, it)
	}
	run.wall, run.cpu = time.Since(start), cpuTime()-cpu0
	run.endHeapMB = liveHeapMB()
	// The end heap must include the set-up the run used, even when the
	// caller drops the rig after this call.
	runtime.KeepAlive(rig)
	return run, nil
}

func (rig *batchRig) iterate(dir string, run *batchRun, due *time.Time) (batchIter, error) {
	var it batchIter
	if err := os.RemoveAll(dir); err != nil {
		return it, err
	}
	cache, err := promptcache.Open(dir, promptcache.Config{Obs: rig.reg})
	if err != nil {
		return it, err
	}
	defer os.RemoveAll(dir)
	defer cache.Close()
	for _, p := range []*passOut{&it.cold, &it.warm} {
		if *p, err = rig.pass(cache); err != nil {
			return it, err
		}
		run.lags = append(run.lags, p.start.Sub(*due))
		*due = p.start.Add(p.wall)
	}
	it.cache = cache.Stats()
	return it, nil
}

// endToEnd fills the user-visible metrics over all passes, cold and
// warm. In a batch job every query is due when its pass starts, so
// latency is the time until its answer, and each pass is one chunk of
// the latency percentiles.
func (rig *batchRig) endToEnd(out *metricSet, run batchRun) {
	var lat []float64
	var busy time.Duration
	for _, p := range run.passes() {
		lat = append(lat, msAll(p.settled)...)
		busy += p.wall
	}
	first := run.iters[0].cold
	attempted, _ := run.attemptedFailed(len(rig.plan.Queries))
	out.set("p50_ms", chunkedPercentile(lat, len(rig.plan.Queries), 0.50))
	out.set("p99_ms", chunkedPercentile(lat, len(rig.plan.Queries), 0.99))
	out.set("goodput_rps", float64(run.answered())/busy.Seconds())
	out.set("ok_share", share(float64(run.answered()), float64(attempted)))
	out.set("tokens_per_query", share(float64(first.tokens), float64(len(first.pred))))
	out.set("end_heap_mb", run.endHeapMB)
	out.set("accuracy", first.accuracy)
}

func (run batchRun) cpuPerQuery() float64 { return share(us(run.cpu), float64(run.answered())) }

// attemptedFailed counts plan entries dispatched and failed.
func (run batchRun) attemptedFailed(planSize int) (attempted, failed int) {
	for _, p := range run.passes() {
		attempted += planSize
		failed += p.failed
	}
	return attempted, failed
}

// runBatch runs batch-boost: set-ups, the measured iterations and the
// correctness gate.
func runBatch(cfg runConfig) (*result, error) {
	if cfg.trace {
		return runBatchTraced(cfg)
	}
	var setupS, setupHeap []float64
	var rig *batchRig
	for i := 0; i < cfg.setups; i++ {
		rig = nil
		start := time.Now()
		r, err := setupBatch(cfg, nil)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		setupHeap = append(setupHeap, liveHeapMB())
		rig = r
	}
	run, err := rig.drive(cfg.seconds, cfg.workDir)
	if err != nil {
		return nil, err
	}
	out := newMetricSet(endToEnd)
	out.set("setup_s", median(setupS))
	out.set("setup_heap_mb", median(setupHeap))
	rig.endToEnd(out, run)
	var gt gate
	gt.checkBatch(run.iters)
	attempted, failed := run.attemptedFailed(len(rig.plan.Queries))
	return gt.result(out, attempted, failed)
}
