package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/predictors"
	"repro/internal/serve"
	"repro/internal/tag"
	"repro/internal/xrand"
)

// traffic is one serve run's generated inputs: when each request is
// due, which node it asks about and on behalf of which tenant.
type traffic struct {
	due     []time.Duration
	nodes   []int
	tenants []string
}

// hotSet is serve-hot's fixed node set, drawn from the dataset seed.
func hotSet(w serveWorkload, numNodes int) []int {
	return xrand.New(datasetSeed).SplitString("bench/hot-set").Sample(numNodes, w.hotSet)
}

// setupNode is the node the set-up request asks about: the first
// neighbor of a labeled node, in labeled-set order, outside serve-hot's
// node set. With a labeled node one hop away, SNS ranks candidates and
// so builds its lazy similarity index during set-up. The measured
// traffic never asks this node.
func (w serveWorkload) setupNode(g *tag.Graph, labeled []tag.NodeID) (int, error) {
	hot := make(map[int]bool, w.hotSet)
	if w.hotSet > 0 {
		for _, v := range hotSet(w, g.NumNodes()) {
			hot[v] = true
		}
	}
	for _, l := range labeled {
		for _, v := range g.Neighbors(l) {
			if !hot[int(v)] {
				return int(v), nil
			}
		}
	}
	return 0, fmt.Errorf("%s: no labeled node has a neighbor to set up with", w.name)
}

// newTraffic draws seconds worth of Poisson arrivals and their nodes
// and tenants from seed.
func newTraffic(w serveWorkload, seed uint64, numNodes, setupNode int, seconds float64) (traffic, error) {
	// Over-draw, then cut at the run length: the schedule's span is then
	// exactly the measured interval rather than n/rate on average.
	n := int(w.rate*seconds*1.25) + 64
	due, err := load.Arrival{Process: load.ProcessPoisson, RatePerSec: w.rate}.Schedule(seed, n)
	if err != nil {
		return traffic{}, err
	}
	end := time.Duration(seconds * float64(time.Second))
	cut := sort.Search(len(due), func(i int) bool { return due[i] >= end })
	if cut == len(due) || cut == 0 {
		return traffic{}, fmt.Errorf("%s: schedule of %d arrivals does not cover %gs", w.name, n, seconds)
	}
	tr := traffic{due: due[:cut], nodes: make([]int, cut), tenants: make([]string, cut)}
	if w.hotSet > 0 {
		set := hotSet(w, numNodes)
		rng := xrand.New(seed).SplitString("bench/node")
		for i := range tr.nodes {
			tr.nodes[i] = set[rng.Intn(len(set))]
		}
	} else {
		order := xrand.New(seed).SplitString("bench/nodes").Perm(numNodes)
		if cut > len(order)-1 {
			return traffic{}, fmt.Errorf("%s: %d requests need more distinct nodes than the graph's %d", w.name, cut, numNodes)
		}
		i := 0
		for _, v := range order {
			if i == cut {
				break
			}
			if v != setupNode {
				tr.nodes[i] = v
				i++
			}
		}
	}
	weights := make([]float64, serveTenants)
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -serveSkew)
	}
	trng := xrand.New(seed).SplitString("bench/tenant")
	for i := range tr.tenants {
		tr.tenants[i] = "tenant-" + strconv.Itoa(trng.Categorical(weights))
	}
	return tr, nil
}

// reqSample is one request's fate as the client saw it.
type reqSample struct {
	lag, latency time.Duration // from the instant the request was due
	status       int
	ok           bool
	violation    string // a broken /v1/query contract; "" when none
	category     string
	tokens       int
}

// fire sends one /v1/query request through the handler in memory and
// strictly decodes the answer.
func fire(h http.Handler, node int, tenant string) reqSample {
	req := httptest.NewRequest(http.MethodPost, serve.QueryPath,
		strings.NewReader(`{"node":`+strconv.Itoa(node)+`}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	resp := rw.Result()
	s := reqSample{status: resp.StatusCode}
	switch resp.StatusCode {
	case http.StatusOK:
		dec := json.NewDecoder(resp.Body)
		dec.DisallowUnknownFields()
		var qr serve.QueryResponse
		if err := dec.Decode(&qr); err != nil {
			s.violation = "strict decode: " + err.Error()
			return s
		}
		if qr.Node != node || qr.Tenant != tenant || qr.Category == "" {
			s.violation = fmt.Sprintf("answer %+v does not match request node %d tenant %q", qr, node, tenant)
			return s
		}
		s.ok, s.category = true, qr.Category
		s.tokens = qr.InputTokens + qr.OutputTokens
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		if resp.Header.Get("Retry-After") == "" {
			s.violation = fmt.Sprintf("%d without Retry-After", resp.StatusCode)
		}
	}
	return s
}

// rejected reports a backpressure refusal that honoured the contract.
func (s reqSample) rejected() bool {
	return s.violation == "" && (s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable)
}

// failed reports an operation that went wrong: neither answered nor
// refused under the backpressure contract.
func (s reqSample) failed() bool { return !s.ok && !s.rejected() }

// serveRig is one set-up of the online tier.
type serveRig struct {
	w     serveWorkload
	g     *tag.Graph
	known map[tag.NodeID]string
	pctx  *predictors.Context
	sim   *llm.Sim
	tier  *serve.Server
	h     http.Handler
	reg   *obs.Registry
	pr    *probe // nil when untraced
	// setupNode is the node the set-up request asked about.
	setupNode int
}

// setupServe builds the dataset, context, simulated backend and serving
// tier, and answers one request so lazily built state (the SNS
// similarity index) is paid here rather than by the first measured
// request. A non-nil probe makes the run traced.
func setupServe(w serveWorkload, cfg runConfig, pr *probe) (*serveRig, error) {
	g, split, err := graphWithLabels(cfg.scale)
	if err != nil {
		return nil, err
	}
	rig := &serveRig{w: w, g: g, known: predictors.KnownFromSplit(g, split), reg: obs.NewRegistry(), pr: pr}
	rig.reg.SetTraceSample(0)
	if pr != nil {
		rig.reg.SetTraceSample(1)
	}
	rig.pctx = newContext(g, rig.known, false)
	rig.pctx.Obs = rig.reg
	m, err := predictors.ByName(w.method)
	if err != nil {
		return nil, err
	}
	rig.sim = llm.NewSim(llm.GPT35(), g.Vocab, g.Classes, datasetSeed)
	var pred llm.Predictor = rig.sim
	if pr != nil {
		pred = timed(pred, &pr.inner)
	}
	if pred, err = llm.NewFaultInjector(pred, llm.FaultConfig{Seed: datasetSeed, MaxLatency: w.maxLatency}); err != nil {
		return nil, err
	}
	if pr != nil {
		m, pred = timedMethod{Method: m, log: &pr.selects}, timed(pred, &pr.outer)
	}
	rig.tier, err = serve.New(rig.pctx, m, pred, serve.Config{
		Window:   serveWindow,
		MaxQueue: w.maxQueue,
		Obs:      rig.reg,
		Exec: core.ExecConfig{
			Workers:      serveWorkers,
			Cache:        true,
			ReplicaCount: w.replicas,
			Affinity:     w.affinity,
		},
	})
	if err != nil {
		return nil, err
	}
	rig.h = serve.Handler(rig.tier)
	if rig.setupNode, err = w.setupNode(g, split.Labeled); err != nil {
		rig.tier.Close()
		return nil, err
	}
	if s := fire(rig.h, rig.setupNode, "setup"); !s.ok {
		rig.tier.Close()
		return nil, fmt.Errorf("%s: set-up request: status %d %s", w.name, s.status, s.violation)
	}
	return rig, nil
}

func (rig *serveRig) close() { rig.tier.Close() }

// serveRun is one measured interval.
type serveRun struct {
	samples []reqSample
	// wall spans the schedule's start to the last answer; drain is the
	// part after the last due instant.
	wall, drain time.Duration
	cpu         time.Duration
	tokens      int
	endHeapMB   float64
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// drive replays the traffic open-loop: one dispatcher fires each
// request at its due instant in its own goroutine, whether or not
// earlier requests have been answered, and every latency is timed from
// the due instant, so a stall also charges the requests it delays.
func (rig *serveRig) drive(tr traffic) serveRun {
	run := serveRun{samples: make([]reqSample, len(tr.due))}
	tok0, cpu0 := rig.sim.Meter().Total(), cpuTime()
	var wg sync.WaitGroup
	start := time.Now()
	for i, d := range tr.due {
		dueAt := start.Add(d)
		if wait := time.Until(dueAt); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sent := time.Now()
			s := fire(rig.h, tr.nodes[i], tr.tenants[i])
			s.lag, s.latency = sent.Sub(dueAt), time.Since(dueAt)
			run.samples[i] = s
		}()
	}
	wg.Wait()
	run.wall = time.Since(start)
	run.drain = run.wall - tr.due[len(tr.due)-1]
	run.cpu = cpuTime() - cpu0
	run.tokens = rig.sim.Meter().Total() - tok0
	run.endHeapMB = liveHeapMB()
	return run
}

// okCount counts answered requests.
func (run serveRun) okCount() int {
	n := 0
	for _, s := range run.samples {
		if s.ok {
			n++
		}
	}
	return n
}

// cpuPerQuery is CPU microseconds per answered request.
func (run serveRun) cpuPerQuery() float64 { return share(us(run.cpu), float64(run.okCount())) }

// endToEnd fills the user-visible metrics of one run.
func (rig *serveRig) endToEnd(out *metricSet, run serveRun, tr traffic, seconds float64) {
	var lat []float64
	good, correct := 0, 0
	for i, s := range run.samples {
		if !s.ok {
			continue
		}
		lat = append(lat, ms(s.latency))
		if s.latency <= rig.w.limit {
			good++
		}
		if s.category == trueCategory(rig.g, tr.nodes[i]) {
			correct++
		}
	}
	ok := float64(len(lat))
	out.set("p50_ms", chunkedPercentile(lat, latencyChunk, 0.50))
	out.set("p99_ms", chunkedPercentile(lat, latencyChunk, 0.99))
	out.set("goodput_rps", float64(good)/seconds)
	out.set("ok_share", share(ok, float64(len(run.samples))))
	out.set("tokens_per_query", share(float64(run.tokens), ok))
	out.set("end_heap_mb", run.endHeapMB)
	out.set("accuracy", share(float64(correct), ok))
}

// runServe runs one serve workload: set-ups, the measured interval, and
// the correctness gate.
func runServe(w serveWorkload, cfg runConfig) (*result, error) {
	if cfg.trace {
		return runServeTraced(w, cfg)
	}
	var setupS, setupHeap []float64
	var rig *serveRig
	for i := 0; i < cfg.setups; i++ {
		if rig != nil {
			rig.close()
			rig = nil
		}
		start := time.Now()
		r, err := setupServe(w, cfg, nil)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		setupHeap = append(setupHeap, liveHeapMB())
		rig = r
	}
	tr, err := newTraffic(w, cfg.seed, rig.g.NumNodes(), rig.setupNode, cfg.seconds)
	if err != nil {
		rig.close()
		return nil, err
	}
	run := rig.drive(tr)
	rig.close()

	out := newMetricSet(endToEnd)
	out.set("setup_s", median(setupS))
	out.set("setup_heap_mb", median(setupHeap))
	rig.endToEnd(out, run, tr, cfg.seconds)
	var gt gate
	gt.checkServe(rig, run, tr, cfg.seed)
	return gt.result(out, len(run.samples), failures(run))
}

// failures counts requests that failed outright.
func failures(run serveRun) int {
	n := 0
	for _, s := range run.samples {
		if s.failed() {
			n++
		}
	}
	return n
}
