package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/predictors"
	"repro/internal/serve"
	"repro/internal/tag"
	"repro/internal/xrand"
)

// Options tunes how a scenario runs.
type Options struct {
	// TargetURL points the runner at a running llmserve (started with
	// -serve and the scenario's dataset/scale/seed). Empty runs an
	// in-process serving tier — same serve.Server, same /v1/query
	// handler, no network stack in between.
	TargetURL string
	// Logf receives progress lines; nil is silent.
	Logf func(format string, args ...any)
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// outcome classes for one driven request.
const (
	classOK       = "ok"
	classRejected = "rejected" // 429/503 backpressure with a Retry-After
	classError    = "error"    // any other failure mode
	classDecode   = "decode"   // response violated the /v1/query contract
)

// sample records one request's fate.
type sample struct {
	class     string
	latency   time.Duration
	tokens    int
	coalesced bool
	fallback  bool
	status    int
}

// Run drives one scenario and builds its report. The offered schedule
// is deterministic; observed latencies are whatever the hardware did.
func Run(sc Scenario, opts Options) (*Report, error) {
	sc.applyDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	sched, err := sc.Arrival.Schedule(sc.Seed, sc.Requests)
	if err != nil {
		return nil, err
	}

	// The graph is generated locally in both modes: in-process it backs
	// the serving tier, remotely it only defines the node universe the
	// driver may ask about (the server, started with the same dataset,
	// scale and seed, generated the identical graph).
	spec, err := tag.SpecByName(sc.Dataset)
	if err != nil {
		return nil, fmt.Errorf("load: scenario %q: %w", sc.Name, err)
	}
	g := tag.Generate(spec, sc.Seed, tag.Options{Scale: sc.Scale})

	base := opts.TargetURL
	target := base
	if base == "" {
		ts, tier, err := startInProcess(sc, g)
		if err != nil {
			return nil, err
		}
		defer tier.Close()
		defer ts.Close()
		base = ts.URL
		target = "in-process"
	}

	// Deterministic tenant and node draws, split off the scenario seed
	// under their own labels (independent of the arrival stream).
	pool := nodePool(sc, g)
	trng := xrand.New(sc.Seed).SplitString("load/tenant")
	nrng := xrand.New(sc.Seed).SplitString("load/node")
	weights := tenantWeights(sc.Tenants)
	tenants := make([]string, sc.Requests)
	nodes := make([]int, sc.Requests)
	for i := 0; i < sc.Requests; i++ {
		tenants[i] = fmt.Sprintf("tenant-%d", trng.Categorical(weights))
		nodes[i] = pool[nrng.Intn(len(pool))]
	}

	client := &http.Client{Timeout: 120 * time.Second}
	opts.logf("load: %s: offering %d requests (%s @ %.0f/s) against %s",
		sc.Name, sc.Requests, sc.Arrival.Process, sc.Arrival.RatePerSec, target)

	// Open loop: every request fires at its scheduled offset whether or
	// not earlier ones completed. One goroutine per request keeps the
	// dispatcher itself off the critical path.
	samples := make([]sample, sc.Requests)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range sched {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if d := time.Until(start.Add(sched[i])); d > 0 {
				time.Sleep(d)
			}
			samples[i] = doQuery(client, base, tenants[i], nodes[i])
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	rep, err := buildReport(sc, target, samples, sched, wall, client, base)
	if err != nil {
		return nil, err
	}
	opts.logf("load: %s: %s", sc.Name, rep.Summary())
	return rep, nil
}

// nodePool picks the distinct nodes the run queries, seeded.
func nodePool(sc Scenario, g *tag.Graph) []int {
	n := sc.NodePool
	if n <= 0 {
		n = 64
	}
	if n > g.NumNodes() {
		n = g.NumNodes()
	}
	rng := xrand.New(sc.Seed).SplitString("load/pool")
	idx := rng.Sample(g.NumNodes(), n)
	return idx
}

// tenantWeights renders the skewed tenant mix: weight_i = (i+1)^-skew.
func tenantWeights(t Tenants) []float64 {
	w := make([]float64, t.Count)
	for i := range w {
		w[i] = math.Pow(float64(i+1), -t.Skew)
	}
	return w
}

// startInProcess builds the scenario's serving tier — the same stack
// llmserve -serve mounts — behind an httptest server, so even the
// "in-process" mode exercises the real HTTP contract the golden tests
// pin.
func startInProcess(sc Scenario, g *tag.Graph) (*httptest.Server, *serve.Server, error) {
	method, err := predictors.ByName(sc.Topology.Method)
	if err != nil {
		return nil, nil, fmt.Errorf("load: scenario %q: %w", sc.Name, err)
	}
	reg := obs.NewRegistry()
	if sc.SLOP99MS > 0 {
		reg.SetSLO(obs.SLO{
			Name:       "query_latency_p99",
			Objective:  time.Duration(sc.SLOP99MS * float64(time.Millisecond)),
			Percentile: 0.99,
		})
	}
	split := g.SplitPerClass(xrand.New(sc.Seed+1), sc.Topology.Labeled, 0)
	pctx := &predictors.Context{
		Graph: g,
		Known: predictors.KnownFromSplit(g, split),
		M:     sc.Topology.M,
		Seed:  sc.Seed,
		Obs:   reg,
	}
	var pred llm.Predictor = llm.NewSim(llm.GPT35(), g.Vocab, g.Classes, sc.Seed)
	if sc.Faults.enabled() {
		pred, err = llm.NewFaultInjector(pred, llm.FaultConfig{
			Seed:        sc.Seed,
			ErrorRate:   sc.Faults.ErrorRate,
			HangRate:    sc.Faults.HangRate,
			GarbageRate: sc.Faults.GarbageRate,
			MaxLatency:  time.Duration(sc.Faults.MaxLatencyMS * float64(time.Millisecond)),
		})
		if err != nil {
			return nil, nil, fmt.Errorf("load: scenario %q: %w", sc.Name, err)
		}
	}
	scfg := serve.Config{
		Window:       sc.Topology.Window,
		MaxQueue:     sc.Topology.MaxQueue,
		TenantBudget: sc.Tenants.TokenBudget,
		Obs:          reg,
		Exec:         sc.Topology.ExecConfig(),
	}
	scfg.Exec.Cache = !sc.Topology.NoCache
	tier, err := serve.New(pctx, method, pred, scfg)
	if err != nil {
		return nil, nil, fmt.Errorf("load: scenario %q: %w", sc.Name, err)
	}
	mux := http.NewServeMux()
	mux.Handle(serve.QueryPath, serve.Handler(tier))
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/slo", obs.SLOHandler(reg))
	return httptest.NewServer(mux), tier, nil
}

// queryResponse is the harness's strict decode of the /v1/query success
// body. DisallowUnknownFields plus the golden contract tests on the
// server side mean neither end can drift without a test failing.
type queryResponse struct {
	Node         int    `json:"node"`
	Category     string `json:"category"`
	Tenant       string `json:"tenant"`
	Coalesced    bool   `json:"coalesced"`
	Cached       bool   `json:"cached"`
	Fallback     bool   `json:"fallback"`
	InputTokens  int    `json:"input_tokens"`
	OutputTokens int    `json:"output_tokens"`
	TraceID      string `json:"trace_id"`
}

// doQuery drives one request and classifies the outcome.
func doQuery(client *http.Client, base, tenant string, node int) sample {
	body := fmt.Sprintf(`{"node": %d}`, node)
	req, err := http.NewRequest(http.MethodPost, base+serve.QueryPath, strings.NewReader(body))
	if err != nil {
		return sample{class: classError}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	t0 := time.Now()
	resp, err := client.Do(req)
	lat := time.Since(t0)
	if err != nil {
		return sample{class: classError, latency: lat}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	lat = time.Since(t0)
	if err != nil {
		return sample{class: classError, latency: lat, status: resp.StatusCode}
	}
	s := sample{latency: lat, status: resp.StatusCode}
	switch resp.StatusCode {
	case http.StatusOK:
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var qr queryResponse
		if err := dec.Decode(&qr); err != nil || qr.Category == "" || qr.Node != node || qr.Tenant != tenant {
			s.class = classDecode
			return s
		}
		s.class = classOK
		s.tokens = qr.InputTokens + qr.OutputTokens
		s.coalesced = qr.Coalesced
		s.fallback = qr.Fallback
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		// The backpressure contract requires a Retry-After hint; a 429
		// without one is a contract violation, not a rejection.
		if resp.Header.Get("Retry-After") == "" {
			s.class = classDecode
			return s
		}
		s.class = classRejected
	default:
		s.class = classError
	}
	return s
}
