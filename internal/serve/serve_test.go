package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/predictors"
	"repro/internal/tag"
	"repro/internal/xrand"
)

// fixture bundles a generated dataset with a context and simulated LLM.
type fixture struct {
	g     *tag.Graph
	split tag.Split
	seed  uint64
}

func newFixture(t testing.TB, nodes, queries int, seed uint64) *fixture {
	t.Helper()
	spec, err := tag.SmallSpec("cora", nodes)
	if err != nil {
		t.Fatal(err)
	}
	g := tag.Generate(spec, seed, tag.Options{})
	split := g.SplitPerClass(xrand.New(seed+1), 20, queries)
	return &fixture{g: g, split: split, seed: seed}
}

// freshCtx returns an independent context so serve-tier and batch-shaped
// executions cannot observe each other's state.
func (f *fixture) freshCtx() *predictors.Context {
	return &predictors.Context{
		Graph: f.g,
		Known: predictors.KnownFromSplit(f.g, f.split),
		M:     4,
		Seed:  f.seed,
	}
}

func (f *fixture) freshSim() *llm.Sim {
	return llm.NewSim(llm.GPT35(), f.g.Vocab, f.g.Classes, f.seed+2)
}

// countingPredictor counts calls reaching the inner predictor — the
// spend the serve tier's coalescing failed to absorb.
type countingPredictor struct {
	inner llm.Predictor
	calls atomic.Int64
}

func (c *countingPredictor) Name() string { return c.inner.Name() }

func (c *countingPredictor) Query(prompt string) (llm.Response, error) {
	c.calls.Add(1)
	return c.inner.Query(prompt)
}

// gatedPredictor records every prompt it is asked, in call order, and
// parks each call until open, so tests can hold nodes in execution
// while admissions build behind them.
type gatedPredictor struct {
	inner llm.Predictor
	gate  chan struct{}
	once  sync.Once

	mu    sync.Mutex
	asked []string
}

func newGated(inner llm.Predictor) *gatedPredictor {
	return &gatedPredictor{inner: inner, gate: make(chan struct{})}
}

func (g *gatedPredictor) Name() string { return g.inner.Name() }

func (g *gatedPredictor) Query(prompt string) (llm.Response, error) {
	g.mu.Lock()
	g.asked = append(g.asked, prompt)
	g.mu.Unlock()
	<-g.gate
	return g.inner.Query(prompt)
}

// open releases every parked and later call; calling it again is a
// no-op.
func (g *gatedPredictor) open() { g.once.Do(func() { close(g.gate) }) }

// prompts returns the prompts asked so far, in call order.
func (g *gatedPredictor) prompts() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.asked...)
}

// calls counts the calls made so far, parked or answered.
func (g *gatedPredictor) calls() int { return len(g.prompts()) }

// unavailablePredictor fails every call with a transient 503.
type unavailablePredictor struct{}

func (unavailablePredictor) Name() string { return "unavailable" }

func (unavailablePredictor) Query(string) (llm.Response, error) {
	return llm.Response{}, &llm.APIError{StatusCode: http.StatusServiceUnavailable, Message: "backend down"}
}

func newServer(t testing.TB, f *fixture, p llm.Predictor, cfg Config) *Server {
	t.Helper()
	if cfg.Exec.Workers == 0 {
		cfg.Exec.Workers = 4
	}
	s, err := New(f.freshCtx(), predictors.KHopRandom{K: 1}, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestCoalescingSingleFlight is the tentpole's coalescing proof: K
// concurrent identical requests from distinct tenants pay exactly one
// predictor call, every tenant gets the same answer, and that answer is
// bit-identical to batch-shaped execution of the same query.
func TestCoalescingSingleFlight(t *testing.T) {
	f := newFixture(t, 300, 40, 7)
	node := f.split.Query[0]
	reg := obs.NewRegistry()
	counter := &countingPredictor{inner: f.freshSim()}
	s := newServer(t, f, counter, Config{Obs: reg})

	const K = 8
	results := make([]Result, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := s.Submit(context.Background(), fmt.Sprintf("tenant-%d", i), node)
			if err != nil {
				t.Errorf("tenant %d: %v", i, err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()

	if got := counter.calls.Load(); got != 1 {
		t.Fatalf("predictor calls = %d, want exactly 1 for %d coalesced tenants", got, K)
	}
	batchRes, err := core.ExecuteWith(f.freshCtx(), predictors.KHopRandom{K: 1},
		f.freshSim(), core.Plan{Queries: []tag.NodeID{node}}, core.ExecConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := batchRes.Pred[node]
	coalesced := 0
	for i, r := range results {
		if r.Category != want {
			t.Fatalf("tenant %d answer %q differs from batch-shaped %q", i, r.Category, want)
		}
		if r.Response != results[0].Response {
			t.Fatalf("tenant %d response differs: %+v vs %+v", i, r.Response, results[0].Response)
		}
		if r.Coalesced {
			coalesced++
		}
	}
	if coalesced != K-1 {
		t.Fatalf("coalesced results = %d, want %d (one owner)", coalesced, K-1)
	}
	total := 0.0
	for _, tier := range []string{"memory", "inflight"} {
		total += reg.CounterValue(metricCoalesced, "tier", tier)
	}
	if total != K-1 {
		t.Fatalf("mqo_serve_coalesced_total across tiers = %v, want %d", total, K-1)
	}
	if got := reg.CounterValue(metricQueries, "outcome", "ok"); got != K {
		t.Fatalf("mqo_serve_queries_total{outcome=ok} = %v, want %d", got, K)
	}
}

// TestAnswersMatchBatchExecution drives a disjoint query set through
// serve concurrently and checks every answer against batch-shaped
// execution of the identical plan.
func TestAnswersMatchBatchExecution(t *testing.T) {
	f := newFixture(t, 300, 40, 11)
	nodes := f.split.Query[:20]
	s := newServer(t, f, f.freshSim(), Config{})

	got := make([]Result, len(nodes))
	var wg sync.WaitGroup
	for i, v := range nodes {
		wg.Add(1)
		go func(i int, v tag.NodeID) {
			defer wg.Done()
			r, err := s.Submit(context.Background(), fmt.Sprintf("t%d", i%3), v)
			if err != nil {
				t.Errorf("node %d: %v", v, err)
				return
			}
			got[i] = r
		}(i, v)
	}
	wg.Wait()

	batchRes, err := core.ExecuteWith(f.freshCtx(), predictors.KHopRandom{K: 1},
		f.freshSim(), core.Plan{Queries: nodes}, core.ExecConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range nodes {
		if got[i].Category != batchRes.Pred[v] {
			t.Fatalf("node %d: serve %q vs batch %q", v, got[i].Category, batchRes.Pred[v])
		}
	}
}

// TestWarmRerunZeroPredictorCalls re-runs a query set through the serve
// memory and expects zero additional predictor calls.
func TestWarmRerunZeroPredictorCalls(t *testing.T) {
	f := newFixture(t, 300, 40, 13)
	nodes := f.split.Query[:10]
	reg := obs.NewRegistry()
	counter := &countingPredictor{inner: f.freshSim()}
	s := newServer(t, f, counter, Config{Obs: reg})

	for _, v := range nodes {
		if _, err := s.Submit(context.Background(), "alice", v); err != nil {
			t.Fatal(err)
		}
	}
	cold := counter.calls.Load()
	if cold == 0 {
		t.Fatal("cold run made no predictor calls")
	}
	for _, v := range nodes {
		r, err := s.Submit(context.Background(), "bob", v)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Coalesced {
			t.Fatalf("warm answer for node %d not marked coalesced", v)
		}
	}
	if got := counter.calls.Load(); got != cold {
		t.Fatalf("warm re-run made %d extra predictor calls", got-cold)
	}
	if got := reg.CounterValue(metricCoalesced, "tier", "memory"); got != float64(len(nodes)) {
		t.Fatalf("memory-tier coalesced = %v, want %d", got, len(nodes))
	}
}

// TestQueueFullRejects bounds the admitted nodes that have no answer
// yet, queued or executing: with the one slot parked on a gated call
// and the rest queued behind it, a request for a further node is
// rejected with ErrQueueFull, while requests for admitted nodes still
// attach and pay nothing.
func TestQueueFullRejects(t *testing.T) {
	f := newFixture(t, 300, 40, 17)
	reg := obs.NewRegistry()
	gate := newGated(f.freshSim())
	const maxQueue = 4
	s := newServer(t, f, gate, Config{
		MaxQueue: maxQueue, RetryAfter: 2 * time.Second, Obs: reg,
		Exec: core.ExecConfig{Workers: 1},
	})

	var wg sync.WaitGroup
	submit := func(v tag.NodeID) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), "flood", v); err != nil {
				t.Errorf("admitted request failed: %v", err)
			}
		}()
	}
	// The first node executes and parks on the gate; the next
	// maxQueue-1 distinct nodes queue behind it.
	submit(f.split.Query[0])
	waitFor(t, func() bool { return gate.calls() == 1 })
	for i := 1; i < maxQueue; i++ {
		submit(f.split.Query[i])
	}
	waitFor(t, func() bool { return s.QueueDepth() == maxQueue })

	if _, err := s.Submit(context.Background(), "flood", f.split.Query[maxQueue]); err != ErrQueueFull {
		t.Fatalf("past high-water mark: err = %v, want ErrQueueFull", err)
	}
	// Duplicates of the executing node and of a queued one attach.
	submit(f.split.Query[0])
	submit(f.split.Query[1])
	waitFor(t, func() bool { return reg.CounterValue(metricCoalesced, "tier", "inflight") == 2 })
	if d := s.QueueDepth(); d != maxQueue {
		t.Fatalf("queue depth %d, want the bound %d", d, maxQueue)
	}
	if got := reg.CounterValue(metricRejected, "reason", "queue_full"); got != 1 {
		t.Fatalf("mqo_serve_rejected_total{reason=queue_full} = %v, want 1", got)
	}
	gate.open()
	wg.Wait()
	if got := gate.calls(); got != maxQueue {
		t.Fatalf("predictor calls = %d, want one per admitted node (%d)", got, maxQueue)
	}
}

// TestQueueDepthPeakGauge holds gated nodes in execution while more are
// admitted, and asserts the depth gauge tracks admissions live and its
// high-water mark survives the drain back to zero — the load harness
// reads the peak after an open-loop flood that may have drained before
// any scrape.
func TestQueueDepthPeakGauge(t *testing.T) {
	f := newFixture(t, 300, 40, 37)
	reg := obs.NewRegistry()
	gate := newGated(f.freshSim())
	const maxQueue = 5
	s := newServer(t, f, gate, Config{MaxQueue: maxQueue, Obs: reg})

	var wg sync.WaitGroup
	for _, v := range f.split.Query[:maxQueue] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), "flood", v); err != nil {
				t.Errorf("admitted request failed: %v", err)
			}
		}()
	}
	waitFor(t, func() bool { return s.QueueDepth() == maxQueue })
	if got := reg.GaugeValue(metricQueueDepth); got != maxQueue {
		t.Fatalf("mqo_serve_queue_depth during flood = %v, want %d", got, maxQueue)
	}
	gate.open()
	wg.Wait()
	if d := s.QueueDepth(); d != 0 {
		t.Fatalf("QueueDepth() = %d after every answer, want 0", d)
	}
	if got := reg.GaugeValue(metricQueueDepth); got != 0 {
		t.Fatalf("mqo_serve_queue_depth after drain = %v, want 0", got)
	}
	if got := s.QueuePeak(); got != maxQueue {
		t.Fatalf("QueuePeak() = %d, want %d", got, maxQueue)
	}
	if got := reg.GaugeValue(metricQueueDepthPeak); got != maxQueue {
		t.Fatalf("mqo_serve_queue_depth_peak = %v, want %d (peak lost after drain)", got, maxQueue)
	}
}

// TestTenantQuota exhausts one tenant's token budget and asserts the
// next request is rejected while other tenants keep flowing.
func TestTenantQuota(t *testing.T) {
	f := newFixture(t, 300, 40, 19)
	reg := obs.NewRegistry()
	s := newServer(t, f, f.freshSim(), Config{TenantBudget: 1, Obs: reg})

	if _, err := s.Submit(context.Background(), "alice", f.split.Query[0]); err != nil {
		t.Fatal(err)
	}
	if s.TenantSpend("alice") < 1 {
		t.Fatal("delivered answer did not debit the tenant")
	}
	if _, err := s.Submit(context.Background(), "alice", f.split.Query[1]); err == nil ||
		!strings.Contains(err.Error(), "quota") {
		t.Fatalf("over-budget tenant: err = %v, want ErrQuotaExhausted", err)
	}
	if _, err := s.Submit(context.Background(), "bob", f.split.Query[1]); err != nil {
		t.Fatalf("unrelated tenant rejected: %v", err)
	}
	if got := reg.CounterValue(metricRejected, "reason", "quota"); got != 1 {
		t.Fatalf("mqo_serve_rejected_total{reason=quota} = %v, want 1", got)
	}
}

// TestInterleaveFairRoundRobin pins the round order: one entry per
// tenant per cycle, tenants sorted, arrival order kept per tenant.
func TestInterleaveFairRoundRobin(t *testing.T) {
	mk := func(tenant string, node int) *entry {
		return &entry{tenant: tenant, node: tag.NodeID(node)}
	}
	in := []*entry{
		mk("b", 1), mk("b", 2), mk("b", 3), mk("a", 4), mk("c", 5), mk("b", 6),
	}
	var got []int
	for _, e := range interleave(in) {
		got = append(got, int(e.node))
	}
	want := []int{4, 1, 5, 2, 3, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interleave order = %v, want %v", got, want)
		}
	}
}

// TestRoundsInterleaveTenants runs the same case end to end on one
// slot: b1 executes while b2 b3 a4 c5 b6 queue behind it, and those
// then run as one round in tenant round-robin order.
func TestRoundsInterleaveTenants(t *testing.T) {
	f := newFixture(t, 300, 40, 41)
	gate := newGated(f.freshSim())
	s := newServer(t, f, gate, Config{Exec: core.ExecConfig{Workers: 1}})
	nodes := f.split.Query[:7] // request "b1" asks nodes[1], and so on

	var wg sync.WaitGroup
	submit := func(tenant string, i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), tenant, nodes[i]); err != nil {
				t.Errorf("%s%d: %v", tenant, i, err)
			}
		}()
	}
	submit("b", 1)
	waitFor(t, func() bool { return gate.calls() == 1 })
	for k, r := range []struct {
		tenant string
		i      int
	}{{"b", 2}, {"b", 3}, {"a", 4}, {"c", 5}, {"b", 6}} {
		submit(r.tenant, r.i)
		waitFor(t, func() bool { return s.QueueDepth() == k+2 })
	}
	gate.open()
	wg.Wait()

	ctx, m := f.freshCtx(), predictors.KHopRandom{K: 1}
	byPrompt := make(map[string]int)
	for i := 1; i < len(nodes); i++ {
		sel := m.Select(ctx, nodes[i])
		byPrompt[predictors.BuildPrompt(ctx, nodes[i], sel, m.Ranked() && len(sel) > 0)] = i
	}
	var got []int
	for _, p := range gate.prompts() {
		got = append(got, byPrompt[p])
	}
	if want := []int{1, 4, 2, 5, 3, 6}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("execution order = %v, want %v", got, want)
	}
}

// TestDrainRejectsNewAnswersAdmitted starts a drain while admitted
// requests are parked or queued: new submissions are rejected with
// ErrDraining at once, and Close returns only after every admitted
// request has been answered.
func TestDrainRejectsNewAnswersAdmitted(t *testing.T) {
	f := newFixture(t, 300, 40, 23)
	gate := newGated(f.freshSim())
	s := newServer(t, f, gate, Config{})

	const K = 6
	errs := make([]error, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Submit(context.Background(), "t", f.split.Query[i])
		}(i)
	}
	waitFor(t, func() bool { return s.QueueDepth() == K })
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	waitFor(t, s.isDraining)
	if _, err := s.Submit(context.Background(), "t", f.split.Query[K]); err != ErrDraining {
		t.Fatalf("submit during drain: err = %v, want ErrDraining", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned before the admitted requests were answered")
	default:
	}
	gate.open()
	<-closed
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("admitted request %d dropped during drain: %v", i, err)
		}
	}
	s.Close() // idempotent
}

// TestBreakerSpansQueries sends 20 requests, one after another, to a
// backend that always fails. The breaker outlives each query, so it
// opens after Threshold failures and the rest fail fast: 3 predictor
// calls unpooled, and 3 per replica over three pooled slots, each with
// its own breaker.
func TestBreakerSpansQueries(t *testing.T) {
	for _, c := range []struct {
		replicas int
		want     int64
	}{{0, 3}, {3, 9}} {
		f := newFixture(t, 300, 40, 43)
		down := &countingPredictor{inner: unavailablePredictor{}}
		s := newServer(t, f, down, Config{Exec: core.ExecConfig{
			Workers:      4,
			ReplicaCount: c.replicas,
			Breaker:      batch.BreakerConfig{Threshold: 3, Cooldown: time.Minute},
		}})
		for _, v := range f.split.Query[:20] {
			if _, err := s.Submit(context.Background(), "t", v); err == nil {
				t.Fatalf("replicas %d: node %d answered by a dead backend", c.replicas, v)
			}
		}
		if got := down.calls.Load(); got != c.want {
			t.Fatalf("replicas %d: %d predictor calls for 20 requests, want %d", c.replicas, got, c.want)
		}
	}
}

// TestBudgetSpansQueries caps the whole server at one token: the first
// node's answer spends it, so the second distinct node fails with
// batch.ErrBudgetExhausted without a predictor call.
func TestBudgetSpansQueries(t *testing.T) {
	f := newFixture(t, 300, 40, 47)
	counter := &countingPredictor{inner: f.freshSim()}
	s := newServer(t, f, counter, Config{Exec: core.ExecConfig{Workers: 4, BudgetTokens: 1}})
	if _, err := s.Submit(context.Background(), "t", f.split.Query[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), "t", f.split.Query[1]); !errors.Is(err, batch.ErrBudgetExhausted) {
		t.Fatalf("second node: err = %v, want batch.ErrBudgetExhausted", err)
	}
	if got := counter.calls.Load(); got != 1 {
		t.Fatalf("predictor calls = %d, want 1", got)
	}
}

// TestQPSSpansQueries paces the whole server: 20 concurrent distinct
// nodes at QPS 100 are dispatched 10 ms apart, so the last one starts
// no sooner than 19 intervals after the first.
func TestQPSSpansQueries(t *testing.T) {
	f := newFixture(t, 300, 40, 53)
	s := newServer(t, f, f.freshSim(), Config{Exec: core.ExecConfig{Workers: 4, QPS: 100}})
	start := time.Now()
	var wg sync.WaitGroup
	for _, v := range f.split.Query[:20] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), "t", v); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 190*time.Millisecond {
		t.Fatalf("20 nodes at QPS 100 answered in %v, want at least 190ms", elapsed)
	}
}

// TestCoalescedLedgerTilesSpan attaches a request to a node that has
// been executing for 30 ms. Its serve ledger must bill exactly its own
// span — execution from its arrival, not from the node's start.
func TestCoalescedLedgerTilesSpan(t *testing.T) {
	f := newFixture(t, 300, 40, 59)
	reg := obs.NewRegistry()
	gate := newGated(f.freshSim())
	s := newServer(t, f, gate, Config{Obs: reg})
	node := f.split.Query[0]

	owner := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), "a", node)
		owner <- err
	}()
	waitFor(t, func() bool { return gate.calls() == 1 })
	time.Sleep(30 * time.Millisecond)
	late := make(chan Result, 1)
	go func() {
		r, err := s.Submit(context.Background(), "b", node)
		if err != nil {
			t.Error(err)
		}
		late <- r
	}()
	waitFor(t, func() bool { return reg.CounterValue(metricCoalesced, "tier", "inflight") == 1 })
	gate.open()
	if err := <-owner; err != nil {
		t.Fatal(err)
	}
	r := <-late
	led, ok := reg.LedgerByTrace(r.TraceID)
	if !r.Coalesced || !ok {
		t.Fatalf("late request: coalesced %v, ledger found %v", r.Coalesced, ok)
	}
	if led.BilledWall != led.Total {
		t.Fatalf("late request billed %v over its %v span", led.BilledWall, led.Total)
	}
}

// TestSLOSampleEveryAnsweredRequest: the SLO engine takes one sample
// per answered request, dispatched or a memory hit, traced or not. The
// core.query under a dispatched request adds none, though the
// executor records into the same registry.
func TestSLOSampleEveryAnsweredRequest(t *testing.T) {
	f := newFixture(t, 300, 40, 61)
	nodes := f.split.Query[:20]
	for _, rate := range []float64{1, 0} {
		reg := obs.NewRegistry()
		reg.SetTraceSample(rate)
		reg.SetSLO(obs.SLO{Objective: time.Hour})
		ctx := f.freshCtx()
		ctx.Obs = reg
		s, err := New(ctx, predictors.KHopRandom{K: 1}, f.freshSim(), Config{Obs: reg, Exec: core.ExecConfig{Workers: 4}})
		if err != nil {
			t.Fatal(err)
		}
		for round, tenant := range []string{"alice", "bob"} {
			for _, v := range nodes {
				r, err := s.Submit(context.Background(), tenant, v)
				if err != nil {
					t.Fatal(err)
				}
				if r.Coalesced != (round == 1) {
					t.Fatalf("trace sample %v, %s: node %d coalesced = %v", rate, tenant, v, r.Coalesced)
				}
			}
			if got, want := reg.SLOReport().Samples, (round+1)*len(nodes); got != want {
				t.Fatalf("trace sample %v: %d SLO samples after %s's requests, want %d", rate, got, tenant, want)
			}
		}
		s.Close()
	}
}

// TestUnknownNodeRejected bounds-checks node IDs at admission.
func TestUnknownNodeRejected(t *testing.T) {
	f := newFixture(t, 300, 40, 29)
	s := newServer(t, f, f.freshSim(), Config{})
	for _, v := range []int{-1, f.g.NumNodes()} {
		if _, err := s.Submit(context.Background(), "t", tag.NodeID(v)); err == nil ||
			!strings.Contains(err.Error(), "unknown node") {
			t.Fatalf("node %d: err = %v, want ErrUnknownNode", v, err)
		}
	}
}

// slowCountRecorder sleeps inside every mqo_serve_queries_total
// increment, widening any gap between counting an answer and
// delivering it.
type slowCountRecorder struct{ *obs.Registry }

func (r slowCountRecorder) Add(name string, delta float64, labels ...string) {
	if name == metricQueries {
		time.Sleep(20 * time.Millisecond)
	}
	r.Registry.Add(name, delta, labels...)
}

// TestAnswerCountedBeforeDelivery is the regression for a flaky count:
// the tier used to hand a request its answer before counting it, so a
// caller returning from Submit could read a count that missed its own
// answer.
func TestAnswerCountedBeforeDelivery(t *testing.T) {
	f := newFixture(t, 300, 40, 31)
	reg := obs.NewRegistry()
	s := newServer(t, f, f.freshSim(), Config{Obs: slowCountRecorder{reg}})
	for i, v := range f.split.Query[:3] {
		if _, err := s.Submit(context.Background(), "alice", v); err != nil {
			t.Fatal(err)
		}
		if got := reg.CounterValue(metricQueries, "outcome", "ok"); got != float64(i+1) {
			t.Fatalf("after answer %d returned, mqo_serve_queries_total{outcome=ok} = %v", i+1, got)
		}
	}
}

// --- HTTP handler ---

func TestTenantResolution(t *testing.T) {
	cases := []struct {
		name, xTenant, auth, want string
	}{
		{"x-tenant wins", "team-a", "Bearer k-123", "team-a"},
		{"bearer key", "", "Bearer k-123", "k-123"},
		{"anonymous", "", "", "anonymous"},
		{"malformed auth", "", "Basic zzz", "anonymous"},
	}
	for _, c := range cases {
		r := httptest.NewRequest(http.MethodPost, QueryPath, nil)
		if c.xTenant != "" {
			r.Header.Set("X-Tenant", c.xTenant)
		}
		if c.auth != "" {
			r.Header.Set("Authorization", c.auth)
		}
		if got := Tenant(r); got != c.want {
			t.Fatalf("%s: tenant = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestHandlerQueryAndErrors(t *testing.T) {
	f := newFixture(t, 300, 40, 31)
	s := newServer(t, f, f.freshSim(), Config{TenantBudget: 1})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	post := func(tenant string, body string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, ts.URL+QueryPath, strings.NewReader(body))
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	node := int(f.split.Query[0])
	resp := post("alice", fmt.Sprintf(`{"node": %d}`, node))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d", resp.StatusCode)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if qr.Node != node || qr.Category == "" || qr.Tenant != "alice" || qr.OutputTokens == 0 {
		t.Fatalf("bad response body: %+v", qr)
	}

	// Same tenant again: budget of 1 token is exhausted → 429 + Retry-After.
	resp = post("alice", fmt.Sprintf(`{"node": %d}`, node))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After header")
	}
	resp.Body.Close()

	resp = post("bob", `{"node": -5}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown node status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	resp = post("bob", `{not json`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// A body without "node" must not be read as node 0.
	resp = post("bob", `{}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing node status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// A valid request padded past the body cap is refused unread.
	resp = post("bob", fmt.Sprintf(`{"node": %d}`, node)+strings.Repeat(" ", 8<<20))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d, want 413", resp.StatusCode)
	}
	resp.Body.Close()

	getResp, err := http.Get(ts.URL + QueryPath)
	if err != nil {
		t.Fatal(err)
	}
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d, want 405", getResp.StatusCode)
	}
	getResp.Body.Close()

	s.Close()
	resp = post("carol", fmt.Sprintf(`{"node": %d}`, node))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After header")
	}
	resp.Body.Close()
}

// waitFor polls cond for up to 2s.
func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}

// isDraining reports whether Close has begun (test hook).
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}
