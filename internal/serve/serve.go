// Package serve is the online, multi-tenant query tier in front of the
// batch-shaped execution pipeline. Every other entry point in this
// repository optimizes a *batch* it was handed up front; serve turns
// the same machinery toward interleaved single-node queries from many
// users, which is exactly where the paper's multi-query optimization
// pays off at scale: concurrent requests touching the same graph are
// coalesced inside a short micro-batching window into one shared plan,
// identical prompts are deduplicated across tenants (single-flight at
// the serve layer, not just within one plan), and each request's
// response completes the moment its own plan entry settles rather than
// when the whole coalesced batch does.
//
// The tier also provides the operational contract an online service
// needs and a batch runner does not: admission control with a bounded
// queue and 429-style backpressure past the high-water mark, per-tenant
// token quotas with fair round-robin scheduling between tenants inside
// a window, and a drain path that answers everything already admitted
// before shutting down.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/predictors"
	"repro/internal/tag"
)

// Metric names emitted by the serve tier; the full catalog lives in
// README.md ("Observability").
const (
	metricQueries        = "mqo_serve_queries_total"
	metricCoalesced      = "mqo_serve_coalesced_total"
	metricRejected       = "mqo_serve_rejected_total"
	metricQueueDepth     = "mqo_serve_queue_depth"
	metricQueueDepthPeak = "mqo_serve_queue_depth_peak"
	metricFlushes        = "mqo_serve_window_flushes_total"
)

// Admission-control rejections. Handlers map them to HTTP 429/503 with
// a Retry-After hint; they are never returned once a request has been
// admitted.
var (
	// ErrQueueFull rejects a request arriving past the queue's
	// high-water mark (Config.MaxQueue).
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrQuotaExhausted rejects a tenant whose delivered-token spend
	// reached Config.TenantBudget.
	ErrQuotaExhausted = errors.New("serve: tenant token quota exhausted")
	// ErrDraining rejects every request once Close began.
	ErrDraining = errors.New("serve: draining")
	// ErrUnknownNode rejects a node ID outside the served graph.
	ErrUnknownNode = errors.New("serve: unknown node")
)

// Defaults for the zero Config fields.
const (
	// DefaultWindow is the micro-batching window: how long the batcher
	// lets concurrent requests pile up before coalescing them into one
	// shared plan. A few milliseconds buys most of the deduplication at
	// a latency cost no interactive client notices.
	DefaultWindow = 5 * time.Millisecond
	// DefaultMaxQueue is the admission queue's high-water mark.
	DefaultMaxQueue = 256
	// DefaultRetryAfter is the Retry-After hint attached to
	// backpressure rejections.
	DefaultRetryAfter = time.Second
)

// Config tunes a Server.
type Config struct {
	// Window is the micro-batching window (default DefaultWindow).
	// Requests arriving while a window is open join its plan; a longer
	// window coalesces more at the cost of first-byte latency.
	Window time.Duration
	// MaxQueue is the admission queue's high-water mark (default
	// DefaultMaxQueue): requests arriving while MaxQueue are already
	// waiting for a window are rejected with ErrQueueFull.
	MaxQueue int
	// RetryAfter is the backoff hint handed to rejected clients
	// (default DefaultRetryAfter). Honoring it is the client's half of
	// the backpressure contract (llm.HTTPPredictor does).
	RetryAfter time.Duration
	// TenantBudget, when > 0, caps each tenant's delivered tokens: once
	// a tenant has been served that many tokens, further requests are
	// rejected with ErrQuotaExhausted. The quota counts tokens
	// *delivered*, not tokens bought — a coalesced answer still debits
	// every tenant that received it; the provider-side saving shows up
	// in mqo_serve_coalesced_total instead.
	TenantBudget int
	// Exec configures how each coalesced plan executes (workers,
	// retries, cache tiers, replica pool, fallback…). Exec.OnResult is
	// owned by the serve tier and must be nil.
	Exec core.ExecConfig
	// Obs receives serve metrics and spans; nil routes to the
	// process-default recorder.
	Obs obs.Recorder
	// Now and Sleep are the tier's clock seam: Now stamps request
	// arrival and completion, Sleep holds the micro-batching window
	// open. They default to time.Now and time.Sleep; the load harness
	// and tests inject instrumented clocks to observe or compress
	// window timing without changing scheduling behavior.
	Now   func() time.Time
	Sleep func(time.Duration)
}

// Result is one answered query.
type Result struct {
	Node     tag.NodeID
	Category string
	Response llm.Response
	// Coalesced reports the request was answered without a plan entry
	// of its own: it attached to another tenant's identical in-flight
	// query, merged with a duplicate inside its window, or was served
	// from the serve tier's answer memory.
	Coalesced bool
	// Cached reports the underlying plan entry was served by a cache
	// tier instead of a fresh predictor call.
	Cached bool
	// Fallback reports the surrogate answered after the LLM path failed
	// permanently (Exec.Fallback).
	Fallback bool
	// TraceID identifies the request's serve.query trace when tracing
	// sampled it ("" otherwise); handlers echo it as X-Trace-Id so a
	// client can join its latency to /debug/querytrace.
	TraceID string
}

// pending is one admitted request waiting for its answer.
type pending struct {
	tenant string
	node   tag.NodeID
	ch     chan delivery
	span   *obs.Span
	led    *obs.Ledger
	enq    time.Time
	// tier is empty for the request that owns its plan entry, otherwise
	// the coalescing tier that absorbed it (window | inflight | memory).
	tier string
}

// delivery carries a settled outcome to a waiting Submit.
type delivery struct {
	res Result
	err error
}

// traceID returns the request's sampled trace ID ("" when tracing
// skipped it).
func (p *pending) traceID() string {
	if p.span != nil && p.span.Sampled() {
		return p.span.TraceID()
	}
	return ""
}

// entry is one unique node inside the executing window; every request
// asking for that node waits on it.
type entry struct {
	node    tag.NodeID
	waiters []*pending
}

// Server is the online query tier. One Server fronts one graph context,
// method and predictor; build it with New and shut it down with Close.
type Server struct {
	pctx   *predictors.Context
	method predictors.Method
	pred   llm.Predictor
	cfg    Config
	rec    obs.Recorder

	now   func() time.Time
	sleep func(time.Duration)

	mu       sync.Mutex
	queue    []*pending
	inflight map[tag.NodeID]*entry
	// answers is the serve tier's answer memory, keyed by node. It
	// holds at most Graph.NumNodes() entries, because Submit rejects
	// unknown nodes, so it needs no eviction.
	answers  map[tag.NodeID]Result
	spent    map[string]int
	peak     int
	draining bool

	wake chan struct{}
	stop chan struct{}
	done chan struct{}
}

// New validates the configuration and starts the batcher. The
// predictor must tolerate Exec.Workers concurrent calls (wrap
// single-threaded predictors with batch.Serialize).
func New(pctx *predictors.Context, m predictors.Method, p llm.Predictor, cfg Config) (*Server, error) {
	if pctx == nil || pctx.Graph == nil {
		return nil, errors.New("serve: nil context or graph")
	}
	if m == nil {
		return nil, errors.New("serve: nil method")
	}
	if p == nil {
		return nil, errors.New("serve: nil predictor")
	}
	if cfg.Exec.OnResult != nil {
		return nil, errors.New("serve: Exec.OnResult is owned by the serve tier")
	}
	if cfg.Window < 0 || cfg.MaxQueue < 0 || cfg.RetryAfter < 0 || cfg.TenantBudget < 0 {
		return nil, fmt.Errorf("serve: negative config value: %+v", cfg)
	}
	if cfg.Window == 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = DefaultMaxQueue
	}
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	s := &Server{
		pctx:     pctx,
		method:   m,
		pred:     p,
		cfg:      cfg,
		rec:      obs.Active(cfg.Obs),
		now:      cfg.Now,
		sleep:    cfg.Sleep,
		inflight: make(map[tag.NodeID]*entry),
		answers:  make(map[tag.NodeID]Result),
		spent:    make(map[string]int),
		wake:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if s.now == nil {
		s.now = time.Now
	}
	if s.sleep == nil {
		s.sleep = time.Sleep
	}
	go s.batcher()
	return s, nil
}

// RetryAfter returns the backoff hint for rejected requests.
func (s *Server) RetryAfter() time.Duration { return s.cfg.RetryAfter }

// QueueDepth returns the number of admitted requests waiting for a
// window. It never exceeds Config.MaxQueue.
func (s *Server) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// QueuePeak returns the admission queue's high-water mark since the
// server started: the deepest the queue ever got, even if every window
// since has flushed it back to zero. An open-loop flood that is over
// before anyone scrapes /metrics still leaves its true peak here.
func (s *Server) QueuePeak() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak
}

// noteQueueDepthLocked publishes the queue depth after every enqueue
// and dequeue, keeping the gauge and the peak gauge truthful between
// scrapes. The gauge used to be written outside the lock from racing
// call sites, so a flush's zero could land after a newer enqueue's
// depth; writing under s.mu serializes the samples in queue order.
func (s *Server) noteQueueDepthLocked() {
	d := len(s.queue)
	if d > s.peak {
		s.peak = d
		s.rec.Set(metricQueueDepthPeak, float64(d))
	}
	s.rec.Set(metricQueueDepth, float64(d))
}

// TenantSpend returns the tokens delivered to one tenant so far.
func (s *Server) TenantSpend(tenant string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spent[tenant]
}

// Submit asks one node query on behalf of tenant and blocks until its
// answer is delivered, the request is rejected at admission
// (ErrQueueFull, ErrQuotaExhausted, ErrDraining, ErrUnknownNode), or
// ctx ends. Cancellation abandons only the wait: the coalesced plan
// entry still completes and still warms the answer memory.
func (s *Server) Submit(ctx context.Context, tenant string, node tag.NodeID) (Result, error) {
	if int(node) < 0 || int(node) >= s.pctx.Graph.NumNodes() {
		s.rec.Add(metricRejected, 1, "reason", "unknown_node")
		return Result{}, fmt.Errorf("%w: %d", ErrUnknownNode, node)
	}
	enq := s.now()
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.rec.Add(metricRejected, 1, "reason", "draining")
		return Result{}, ErrDraining
	}
	if s.cfg.TenantBudget > 0 && s.spent[tenant] >= s.cfg.TenantBudget {
		s.mu.Unlock()
		s.rec.Add(metricRejected, 1, "reason", "quota")
		return Result{}, fmt.Errorf("%w: tenant %q", ErrQuotaExhausted, tenant)
	}
	// Serve-layer memory: a node any earlier window answered is
	// delivered immediately — the cross-user single-flight's steady
	// state, where N tenants asking about one node paid one call.
	if r, ok := s.answers[node]; ok {
		s.chargeLocked(tenant, r)
		s.mu.Unlock()
		r.Coalesced = true
		s.rec.Add(metricCoalesced, 1, "tier", "memory")
		s.rec.Add(metricQueries, 1, "outcome", "ok")
		return r, nil
	}
	p := &pending{tenant: tenant, node: node, ch: make(chan delivery, 1), enq: enq}
	// Attach to the executing window when it already carries this node:
	// the request pays nothing and completes with that entry.
	if e, ok := s.inflight[node]; ok {
		p.tier = "inflight"
		e.waiters = append(e.waiters, p)
		s.openTrace(p)
		s.mu.Unlock()
		s.rec.Add(metricCoalesced, 1, "tier", "inflight")
		return s.wait(ctx, p)
	}
	if len(s.queue) >= s.cfg.MaxQueue {
		s.mu.Unlock()
		s.rec.Add(metricRejected, 1, "reason", "queue_full")
		return Result{}, ErrQueueFull
	}
	s.queue = append(s.queue, p)
	s.noteQueueDepthLocked()
	s.openTrace(p)
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return s.wait(ctx, p)
}

// openTrace roots the request's serve.query span and ledger; callers
// hold s.mu, but span creation takes no serve locks.
func (s *Server) openTrace(p *pending) {
	p.span = s.rec.StartSpan("serve.query",
		"tenant", p.tenant, "node", strconv.Itoa(int(p.node)))
	if p.span.Sampled() {
		p.led = obs.NewLedger(s.rec, p.span.TraceID(), "serve/node:"+strconv.Itoa(int(p.node)))
	}
}

// chargeLocked debits one delivered answer against the tenant quota.
// Callers hold s.mu.
func (s *Server) chargeLocked(tenant string, r Result) {
	if s.cfg.TenantBudget > 0 {
		s.spent[tenant] += r.Response.InputTokens + r.Response.OutputTokens
	}
}

// wait blocks for the pending's delivery or the caller's context.
func (s *Server) wait(ctx context.Context, p *pending) (Result, error) {
	select {
	case d := <-p.ch:
		return d.res, d.err
	case <-ctx.Done():
		// The plan entry still completes; only this waiter leaves. Its
		// buffered channel absorbs the late delivery, so nothing leaks.
		return Result{}, ctx.Err()
	}
}

// Close drains and stops the tier: new submissions are rejected with
// ErrDraining, every already-admitted request is answered, and the
// batcher exits. Safe to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		<-s.done
		return
	}
	s.draining = true
	s.mu.Unlock()
	close(s.stop)
	<-s.done
}

// batcher is the tier's single scheduling goroutine: it waits for
// work, keeps the window open for Config.Window so concurrent requests
// coalesce, then flushes the queue as one shared plan, whose building
// fans out over Exec.Workers. Windows run sequentially, so while one
// window executes, the next one's requests pile up behind it (that
// queue *is* the backpressure signal MaxQueue bounds).
func (s *Server) batcher() {
	defer close(s.done)
	for {
		s.mu.Lock()
		n, draining := len(s.queue), s.draining
		s.mu.Unlock()
		if n == 0 {
			if draining {
				return
			}
			select {
			case <-s.wake:
			case <-s.stop:
			}
			continue
		}
		if !draining && s.cfg.Window > 0 {
			s.sleep(s.cfg.Window)
		}
		s.flush()
	}
}

// interleave orders one window's requests by fair round-robin between
// tenants: tenants are visited in sorted order, one request each per
// cycle, arrival order preserved within a tenant. A tenant flooding
// the window still gets its flood executed, but cannot push another
// tenant's single query to the back of the shared plan — which is what
// decides who pays first when budgets or breakers trip mid-plan.
func interleave(batch []*pending) []*pending {
	byTenant := make(map[string][]*pending)
	var names []string
	for _, p := range batch {
		if _, ok := byTenant[p.tenant]; !ok {
			names = append(names, p.tenant)
		}
		byTenant[p.tenant] = append(byTenant[p.tenant], p)
	}
	sort.Strings(names)
	out := make([]*pending, 0, len(batch))
	for len(out) < len(batch) {
		for _, t := range names {
			if q := byTenant[t]; len(q) > 0 {
				out = append(out, q[0])
				byTenant[t] = q[1:]
			}
		}
	}
	return out
}

// flush coalesces the queued requests into one plan and executes it,
// delivering each request as its own entry settles.
func (s *Server) flush() {
	flushStart := s.now()
	s.mu.Lock()
	batch := s.queue
	s.queue = nil
	if len(batch) == 0 {
		s.mu.Unlock()
		return
	}
	s.noteQueueDepthLocked()
	var ready []*pending // answered while queued: deliver from memory
	var readyRes []Result
	var entries []*entry
	for _, p := range interleave(batch) {
		if r, ok := s.answers[p.node]; ok {
			p.tier = "memory"
			s.chargeLocked(p.tenant, r)
			r.Coalesced = true
			r.TraceID = p.traceID()
			ready, readyRes = append(ready, p), append(readyRes, r)
			continue
		}
		if e, ok := s.inflight[p.node]; ok {
			// Duplicate inside this window: one plan entry, many
			// waiters — the cross-tenant deduplication the tier is for.
			p.tier = "window"
			e.waiters = append(e.waiters, p)
			continue
		}
		e := &entry{node: p.node, waiters: []*pending{p}}
		s.inflight[p.node] = e
		entries = append(entries, e)
	}
	s.mu.Unlock()

	for i, p := range ready {
		s.rec.Add(metricCoalesced, 1, "tier", "memory")
		s.deliver(p, delivery{res: readyRes[i]}, flushStart)
	}
	coalesced := len(batch) - len(ready) - len(entries)
	for i := 0; i < coalesced; i++ {
		s.rec.Add(metricCoalesced, 1, "tier", "window")
	}
	if len(entries) == 0 {
		return
	}

	s.rec.Add(metricFlushes, 1)
	wspan := s.rec.StartSpan("serve.window",
		"entries", strconv.Itoa(len(entries)),
		"requests", strconv.Itoa(len(batch)-len(ready)),
		"coalesced", strconv.Itoa(coalesced))
	plan := core.Plan{Queries: make([]tag.NodeID, len(entries))}
	for i, e := range entries {
		plan.Queries[i] = e.node
	}
	ecfg := s.cfg.Exec
	ecfg.OnResult = func(q core.QueryOutcome) { s.complete(q, flushStart) }
	_, execErr := core.ExecuteWith(s.pctx, s.method, s.pred, plan, ecfg)
	// Every entry normally settles through OnResult; sweep up anything
	// left (a top-level executor error) so no waiter blocks forever.
	err := execErr
	if err == nil {
		err = errors.New("serve: plan entry never settled")
	}
	for _, e := range entries {
		s.mu.Lock()
		still := s.inflight[e.node] == e
		if still {
			delete(s.inflight, e.node)
		}
		waiters := e.waiters
		s.mu.Unlock()
		if still {
			for _, p := range waiters {
				s.deliver(p, delivery{err: fmt.Errorf("serve: query for node %d: %w", e.node, err)}, flushStart)
			}
		}
	}
	wspan.End()
}

// complete settles one plan entry: it publishes the answer to the
// serve memory, debits every waiter's tenant, and delivers. It runs on
// executor worker goroutines, concurrently across entries, which is
// what lets a request finish while the rest of its window is still
// executing.
func (s *Server) complete(q core.QueryOutcome, flushStart time.Time) {
	s.mu.Lock()
	e := s.inflight[q.Node]
	if e == nil {
		s.mu.Unlock()
		return
	}
	delete(s.inflight, q.Node)
	waiters := e.waiters
	e.waiters = nil
	var d delivery
	if q.Err != nil {
		d.err = fmt.Errorf("serve: query for node %d: %w", q.Node, q.Err)
	} else {
		d.res = Result{
			Node: q.Node, Category: q.Category, Response: q.Response,
			Cached: q.Cached, Fallback: q.Fallback,
		}
		s.answers[q.Node] = d.res
		for _, p := range waiters {
			s.chargeLocked(p.tenant, d.res)
		}
	}
	s.mu.Unlock()

	for _, p := range waiters {
		r := d.res
		r.Coalesced = p.tier != ""
		r.TraceID = p.traceID()
		s.deliver(p, delivery{res: r, err: d.err}, flushStart)
	}
}

// deliver settles one admitted request: it closes the request's trace
// and counts its outcome, then hands the waiting Submit its answer. The
// send comes last, so a caller returning from Submit already finds its
// own answer in the metrics.
func (s *Server) deliver(p *pending, d delivery, flushStart time.Time) {
	outcome := "ok"
	if d.err != nil {
		outcome = "error"
	}
	s.finishTrace(p, flushStart, outcome)
	s.rec.Add(metricQueries, 1, "outcome", outcome)
	p.ch <- d
}

// finishTrace closes one request's span and ledger: queue wait until
// its window flushed, execution time after, total feeding the SLO
// engine. Tokens are not billed here — the core.query ledger under
// this request already bills the metered spend, and double-billing
// would break the billed-tokens == meter invariant.
func (s *Server) finishTrace(p *pending, flushStart time.Time, outcome string) {
	if p.span == nil {
		return
	}
	end := s.now()
	p.span.SetAttr("outcome", outcome)
	if p.tier != "" {
		p.span.SetAttr("coalesced", p.tier)
	}
	if wait := flushStart.Sub(p.enq); wait > 0 {
		p.led.Charge(obs.StageQueue, wait, 0, true)
	}
	if run := end.Sub(flushStart); run > 0 {
		p.led.Charge(obs.StageExec, run, 0, true)
	}
	p.span.EndAt(end)
	p.led.Close(end.Sub(p.enq))
}
