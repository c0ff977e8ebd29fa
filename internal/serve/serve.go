// Package serve is the online, multi-tenant query tier in front of the
// execution pipeline. Every other entry point in this repository
// optimizes a *batch* it was handed up front; serve turns the same
// machinery toward interleaved single-node queries from many users,
// which is where the paper's multi-query optimization pays off at
// scale: a node any tenant already asked about is answered from the
// tier's answer memory, a request for a node that is still queued or
// executing attaches to it instead of paying again (single-flight
// across tenants), and every admitted node is dispatched the moment an
// execution slot frees, through one core.Executor whose breakers,
// replica pool, QPS pacing and token budget last as long as the server.
//
// The tier also provides the operational contract an online service
// needs and a batch runner does not: admission control that bounds the
// nodes admitted but not yet answered and rejects past it with
// 429-style backpressure, per-tenant token quotas with fair
// round-robin scheduling between tenants, and a drain path that
// answers everything already admitted before shutting down.
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
)

// Admission-control rejections. Handlers map them to HTTP 429/503 with
// a Retry-After hint; they are never returned once a request has been
// admitted.
var (
	// ErrQueueFull rejects a request for a new node arriving while
	// Config.MaxQueue admitted nodes still await their answer.
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
	// DefaultMaxQueue bounds the admitted nodes awaiting an answer.
	DefaultMaxQueue = 256
	// DefaultRetryAfter is the Retry-After hint attached to
	// backpressure rejections.
	DefaultRetryAfter = time.Second
)

// Config tunes a Server.
type Config struct {
	// Window is ignored.
	//
	// Deprecated: the tier dispatches each admitted node as soon as an
	// execution slot frees, so there is no batching window to size.
	// New still rejects a negative value.
	Window time.Duration
	// MaxQueue bounds the admitted nodes that have no answer yet,
	// queued or executing (default DefaultMaxQueue): a request for a
	// further node is rejected with ErrQueueFull, while a request for
	// an admitted node attaches to it.
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
	// Exec configures the one core.Executor every admitted node runs
	// through: Workers execution slots, and the disk cache, replica
	// pool, fallback, QPS pacing, breakers and BudgetTokens
	// shared by every query for the server's lifetime. Exec.OnResult
	// must be nil: Submit returns each answer.
	Exec core.ExecConfig
	// Obs receives serve metrics and spans; nil routes to the
	// process-default recorder.
	Obs obs.Recorder
}

// Result is one answered query.
type Result struct {
	Node     tag.NodeID
	Category string
	Response llm.Response
	// Coalesced reports the request was answered without dispatching
	// its node itself: it attached to another request's queued or
	// executing node, or was served from the answer memory.
	Coalesced bool
	// Cached reports the dispatch was answered by the disk cache
	// instead of a fresh predictor call.
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
	// attached marks a request that found its node already admitted
	// and waits on it instead of dispatching it (the inflight tier).
	attached bool
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

// entry is one admitted node without an answer yet, queued or
// executing; every request asking for that node meanwhile waits on it.
type entry struct {
	node tag.NodeID
	// tenant is whose request admitted the node; rounds interleave by
	// it.
	tenant  string
	waiters []*pending
	// start is when a slot began executing the node.
	start time.Time
}

// Server is the online query tier. One Server fronts one graph context,
// method and predictor; build it with New and shut it down with Close.
type Server struct {
	pctx   *predictors.Context
	method predictors.Method
	exec   *core.Executor
	cfg    Config
	rec    obs.Recorder

	mu sync.Mutex
	// wake, on mu, tells waiting slots a node was queued or drain began.
	wake *sync.Cond
	// inflight holds every admitted node without an answer, queued or
	// executing; MaxQueue bounds it.
	inflight map[tag.NodeID]*entry
	// queue holds the entries admitted since the current round was cut,
	// in arrival order; round holds what is left of the current round,
	// in interleave order.
	queue, round []*entry
	// answers is the serve tier's answer memory, keyed by node. It
	// holds at most Graph.NumNodes() entries, because Submit rejects
	// unknown nodes, so it needs no eviction.
	answers  map[tag.NodeID]Result
	spent    map[string]int
	peak     int
	draining bool

	slots sync.WaitGroup
}

// New validates the configuration, builds the server's one
// core.Executor and starts Exec.Workers execution slots (at least
// one), which call the predictor concurrently, as the llm.Predictor
// contract allows.
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
		return nil, errors.New("serve: Exec.OnResult must be nil: Submit returns each answer")
	}
	if cfg.Window < 0 || cfg.MaxQueue < 0 || cfg.RetryAfter < 0 || cfg.TenantBudget < 0 {
		return nil, fmt.Errorf("serve: negative config value: %+v", cfg)
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = DefaultMaxQueue
	}
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	exec, err := core.NewExecutor(p, cfg.Exec, obs.Active(pctx.Obs))
	if err != nil {
		return nil, err
	}
	s := &Server{
		pctx:     pctx,
		method:   m,
		exec:     exec,
		cfg:      cfg,
		rec:      obs.Active(cfg.Obs),
		inflight: make(map[tag.NodeID]*entry),
		answers:  make(map[tag.NodeID]Result),
		spent:    make(map[string]int),
	}
	s.wake = sync.NewCond(&s.mu)
	slots := max(1, cfg.Exec.Workers)
	s.slots.Add(slots)
	for i := 0; i < slots; i++ {
		go s.slot()
	}
	return s, nil
}

// RetryAfter returns the backoff hint for rejected requests.
func (s *Server) RetryAfter() time.Duration { return s.cfg.RetryAfter }

// QueueDepth returns the number of admitted nodes that have no answer
// yet, queued or executing. It never exceeds Config.MaxQueue.
func (s *Server) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.inflight)
}

// QueuePeak returns QueueDepth's high-water mark since the server
// started, even if every node since has been answered. An open-loop
// flood that is over before anyone scrapes /metrics still leaves its
// true peak here.
func (s *Server) QueuePeak() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak
}

// noteQueueDepthLocked publishes the depth after every admission and
// answer. Writing under s.mu serializes the samples, so the gauge's
// last write is the current depth.
func (s *Server) noteQueueDepthLocked() {
	d := len(s.inflight)
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
// ctx ends. Cancellation abandons only the wait: the node still
// executes and still warms the answer memory.
func (s *Server) Submit(ctx context.Context, tenant string, node tag.NodeID) (Result, error) {
	if int(node) < 0 || int(node) >= s.pctx.Graph.NumNodes() {
		s.rec.Add(metricRejected, 1, "reason", "unknown_node")
		return Result{}, fmt.Errorf("%w: %d", ErrUnknownNode, node)
	}
	enq := time.Now()
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
	// Serve-layer memory: a node answered earlier is delivered
	// immediately — the cross-user single-flight's steady state, where
	// N tenants asking about one node paid one call.
	if r, ok := s.answers[node]; ok {
		s.chargeLocked(tenant, r)
		s.mu.Unlock()
		r.Coalesced = true
		s.rec.Add(metricCoalesced, 1, "tier", "memory")
		s.rec.Add(metricQueries, 1, "outcome", "ok")
		return r, nil
	}
	p := &pending{tenant: tenant, node: node, ch: make(chan delivery, 1), enq: enq}
	// Attach to the node when it is already admitted: the request pays
	// nothing and completes with it.
	if e, ok := s.inflight[node]; ok {
		p.attached = true
		e.waiters = append(e.waiters, p)
		s.openTrace(p)
		s.mu.Unlock()
		s.rec.Add(metricCoalesced, 1, "tier", "inflight")
		return s.wait(ctx, p)
	}
	if len(s.inflight) >= s.cfg.MaxQueue {
		s.mu.Unlock()
		s.rec.Add(metricRejected, 1, "reason", "queue_full")
		return Result{}, ErrQueueFull
	}
	e := &entry{node: node, tenant: tenant, waiters: []*pending{p}}
	s.inflight[node] = e
	s.queue = append(s.queue, e)
	s.noteQueueDepthLocked()
	s.openTrace(p)
	s.mu.Unlock()
	s.wake.Signal()
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
		// The node still executes; only this waiter leaves. Its
		// buffered channel absorbs the late delivery, so nothing leaks.
		return Result{}, ctx.Err()
	}
}

// Close drains and stops the tier: new submissions are rejected with
// ErrDraining, every already-admitted request is answered, and the
// slots exit. Safe to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.wake.Broadcast()
	s.slots.Wait()
}

// slot is one execution slot: it takes the next admitted node, runs
// it through the server's executor and delivers the answer to every
// request waiting on it, until drain leaves nothing to take.
func (s *Server) slot() {
	defer s.slots.Done()
	for {
		e := s.next()
		if e == nil {
			return
		}
		s.complete(e, s.exec.Query(s.pctx, s.method, e.node))
	}
}

// next takes the current round's next entry and stamps its start.
// When the round is used up it cuts everything queued since into a new
// round, in interleave order, and when nothing is queued it waits. It
// returns nil once the server is draining with nothing left to take.
func (s *Server) next() *entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.round) == 0 {
		switch {
		case len(s.queue) > 0:
			s.round, s.queue = interleave(s.queue), nil
		case s.draining:
			return nil
		default:
			s.wake.Wait()
		}
	}
	e := s.round[0]
	s.round = s.round[1:]
	e.start = time.Now()
	return e
}

// interleave orders one round's entries by fair round-robin between
// tenants: tenants are visited in sorted order, one entry each per
// cycle, arrival order preserved within a tenant. A tenant flooding
// the tier still gets its flood executed, but cannot push another
// tenant's single query behind its own — which is what decides who
// waits longest, and who pays first when budgets or breakers trip.
func interleave(queued []*entry) []*entry {
	byTenant := make(map[string][]*entry)
	var names []string
	for _, e := range queued {
		if _, ok := byTenant[e.tenant]; !ok {
			names = append(names, e.tenant)
		}
		byTenant[e.tenant] = append(byTenant[e.tenant], e)
	}
	sort.Strings(names)
	out := make([]*entry, 0, len(queued))
	for len(out) < len(queued) {
		for _, t := range names {
			if q := byTenant[t]; len(q) > 0 {
				out = append(out, q[0])
				byTenant[t] = q[1:]
			}
		}
	}
	return out
}

// complete settles one executed node: it publishes a successful answer
// to the serve memory, debits every waiter's tenant, and delivers. It
// runs on the slot that executed the node, so each request finishes
// the moment its own node does.
func (s *Server) complete(e *entry, q core.QueryOutcome) {
	var d delivery
	if q.Err != nil {
		d.err = fmt.Errorf("serve: query for node %d: %w", e.node, q.Err)
	} else {
		d.res = Result{
			Node: e.node, Category: q.Category, Response: q.Response,
			Cached: q.Cached, Fallback: q.Fallback,
		}
	}
	s.mu.Lock()
	delete(s.inflight, e.node)
	s.noteQueueDepthLocked()
	waiters := e.waiters
	e.waiters = nil
	if d.err == nil {
		s.answers[e.node] = d.res
		for _, p := range waiters {
			s.chargeLocked(p.tenant, d.res)
		}
	}
	s.mu.Unlock()

	for _, p := range waiters {
		r := d.res
		r.Coalesced = p.attached
		r.TraceID = p.traceID()
		s.deliver(p, e.start, delivery{res: r, err: d.err})
	}
}

// deliver settles one admitted request: it closes the request's trace
// and counts its outcome, then hands the waiting Submit its answer. The
// send comes last, so a caller returning from Submit already finds its
// own answer in the metrics.
func (s *Server) deliver(p *pending, start time.Time, d delivery) {
	outcome := "ok"
	if d.err != nil {
		outcome = "error"
	}
	s.finishTrace(p, start, outcome)
	s.rec.Add(metricQueries, 1, "outcome", outcome)
	p.ch <- d
}

// finishTrace closes one request's span and ledger: queue wait until
// its node started executing, execution after, total feeding the SLO
// engine. A request that attached after its node started was never
// queued, so its execution time runs from its own arrival, and the two
// stages tile its span exactly. Tokens are not billed here — the
// core.query ledger under this request already bills the metered
// spend, and double-billing would break the billed-tokens == meter
// invariant.
func (s *Server) finishTrace(p *pending, start time.Time, outcome string) {
	if p.span == nil {
		return
	}
	end := time.Now()
	p.span.SetAttr("outcome", outcome)
	if p.attached {
		p.span.SetAttr("coalesced", "inflight")
	}
	if start.Before(p.enq) {
		start = p.enq
	}
	if wait := start.Sub(p.enq); wait > 0 {
		p.led.Charge(obs.StageQueue, wait, 0, true)
	}
	if run := end.Sub(start); run > 0 {
		p.led.Charge(obs.StageExec, run, 0, true)
	}
	p.span.EndAt(end)
	p.led.Close(end.Sub(p.enq))
}
