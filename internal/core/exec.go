// Package core implements the paper's two multi-query optimization
// strategies — token pruning (Section V-A, Algorithm 1) and query
// boosting (Section V-B, Algorithm 2) — together with the execution
// plans, budget arithmetic and pseudo-label scheduling that tie them to
// the benchmark methods.
//
// Both strategies operate strictly on query prompts: pruning decides
// which queries omit neighbor text, boosting decides execution order
// and enriches prompts with pseudo-labels from earlier rounds. Neither
// touches the predictor itself, so they compose with any Method and any
// black-box Predictor ("plug-and-play integration", Section V-C).
package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/batch"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/predictors"
	"repro/internal/prompt"
	"repro/internal/promptcache"
	"repro/internal/tag"
	"repro/internal/token"
	"repro/internal/xrand"
)

// Metric names emitted by plan execution; the full catalog lives in
// README.md ("Observability").
const (
	metricQueries          = "mqo_queries_total"
	metricQueryErrors      = "mqo_query_errors_total"
	metricPruned           = "mqo_queries_pruned_total"
	metricEquipped         = "mqo_queries_equipped_total"
	metricInputTokens      = "mqo_input_tokens_total"
	metricOutputTokens     = "mqo_output_tokens_total"
	metricQuerySeconds     = "mqo_query_duration_seconds"
	metricPseudoUses       = "mqo_pseudo_label_uses_total"
	metricBoostRounds      = "mqo_boost_rounds_total"
	metricBoostRound       = "mqo_boost_round"
	metricBoostPending     = "mqo_boost_pending_queries"
	metricFallback         = "mqo_fallback_predictions_total"
	metricCompressedTokens = "mqo_prompt_compressed_tokens_total"
	metricCompressionRatio = "mqo_prompt_compression_ratio"
)

// recordQuery emits the per-query metrics shared by Execute and Boost.
func recordQuery(rec obs.Recorder, mode string, resp llm.Response, pruned, equipped bool) {
	rec.Add(metricQueries, 1, "mode", mode)
	if pruned {
		rec.Add(metricPruned, 1, "mode", mode)
	}
	if equipped {
		rec.Add(metricEquipped, 1, "mode", mode)
	}
	rec.Add(metricInputTokens, float64(resp.InputTokens), "mode", mode)
	rec.Add(metricOutputTokens, float64(resp.OutputTokens), "mode", mode)
}

// Plan is an executable multi-query plan: which queries run, and which
// of them omit neighbor text.
type Plan struct {
	Queries []tag.NodeID
	// Prune marks queries whose prompt omits neighbor text entirely.
	Prune map[tag.NodeID]bool
}

// Results collects the outcome of executing a plan.
type Results struct {
	// Pred maps each executed query to the predicted category name.
	// Queries answered by the fallback surrogate appear here too; the
	// Fallback set distinguishes them.
	Pred map[tag.NodeID]string
	// Meter totals the token usage of the executed queries.
	Meter token.Meter
	// Equipped counts queries whose prompt carried neighbor text (the
	// "# Queries Equip N_i" column of Table VIII).
	Equipped int
	// Rounds reports boosting rounds (1 for plain execution).
	Rounds int
	// PseudoLabelUses counts selected neighbors whose label was a
	// pseudo-label from an earlier query (boosting only).
	PseudoLabelUses int
	// Fallback marks queries answered by the surrogate classifier
	// because the LLM path failed permanently (timeout, open circuit
	// breaker, exhausted budget or retries). Nil when no query fell
	// back.
	Fallback map[tag.NodeID]bool
}

// markFallback records one surrogate-answered query.
func (r *Results) markFallback(v tag.NodeID) {
	if r.Fallback == nil {
		r.Fallback = make(map[tag.NodeID]bool)
	}
	r.Fallback[v] = true
}

// LLMAnswered counts queries answered by the LLM itself.
func (r *Results) LLMAnswered() int { return len(r.Pred) - len(r.Fallback) }

// SurrogateAnswered counts queries answered by the fallback surrogate.
func (r *Results) SurrogateAnswered() int { return len(r.Fallback) }

// Accuracy returns the fraction of predictions matching ground truth
// — over the *answered* queries only. After a degraded run this
// overstates quality; pair it with PlanAccuracy, which also reports
// coverage.
func Accuracy(g *tag.Graph, pred map[tag.NodeID]string) float64 {
	if len(pred) == 0 {
		return 0
	}
	correct := 0
	for v, c := range pred {
		if c == g.Classes[g.Nodes[v].Label] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred))
}

// PlanAccuracy scores predictions against the *full* plan: accuracy
// counts an unanswered query as wrong, and coverage reports the
// answered fraction. This is the honest pair of numbers after a
// degraded run — Accuracy over the survivors alone silently inflates
// when failed queries drop out of pred.
func PlanAccuracy(g *tag.Graph, queries []tag.NodeID, pred map[tag.NodeID]string) (acc, coverage float64) {
	if len(queries) == 0 {
		return 0, 0
	}
	correct, answered := 0, 0
	for _, v := range queries {
		c, ok := pred[v]
		if !ok {
			continue
		}
		answered++
		if c == g.Classes[g.Nodes[v].Label] {
			correct++
		}
	}
	n := float64(len(queries))
	return float64(correct) / n, float64(answered) / n
}

// ExecuteQuery runs one node query: neighbor selection (skipped when
// pruned), prompt construction and the LLM call.
func ExecuteQuery(ctx *predictors.Context, m predictors.Method, p llm.Predictor, v tag.NodeID, pruned bool) (llm.Response, []predictors.Selected, error) {
	var sel []predictors.Selected
	if !pruned {
		sel = m.Select(ctx, v)
	}
	promptText := predictors.BuildPrompt(ctx, v, sel, m.Ranked() && len(sel) > 0)
	resp, err := p.Query(promptText)
	if err != nil {
		return llm.Response{}, nil, fmt.Errorf("core: query for node %d: %w", v, err)
	}
	return resp, sel, nil
}

// ExecuteQueryVanilla issues a vanilla zero-shot query (no neighbor
// text) for node v.
func ExecuteQueryVanilla(ctx *predictors.Context, p llm.Predictor, v tag.NodeID) (llm.Response, error) {
	resp, err := p.Query(predictors.BuildPrompt(ctx, v, nil, false))
	if err != nil {
		return llm.Response{}, fmt.Errorf("core: vanilla query for node %d: %w", v, err)
	}
	return resp, nil
}

// ExecConfig tunes how a plan's queries are dispatched to the
// predictor. The zero value reproduces the historical serial behaviour:
// one in-flight query, no retries, no rate limit, no budget cap.
//
// With Workers > 1 the queries of a plan (or of one boosting round,
// whose prompts are fixed before the round executes) run concurrently
// through the batch executor. Neighbor selection and prompt
// construction stay on the calling goroutine and results are applied in
// stable plan order, so — given an order-independent predictor such as
// *llm.Sim or an HTTP endpoint at temperature 0 — predictions, token
// totals and accuracy are bit-identical for any worker count. The one
// exception is BudgetTokens: which queries are refused once a hard
// token cap trips depends on completion order.
type ExecConfig struct {
	// Workers is the number of concurrent in-flight queries; values
	// below 1 mean serial execution.
	Workers int
	// QPS caps the dispatch rate across workers; 0 means unlimited.
	QPS float64
	// MaxRetries bounds per-query retries on transient failures; 0
	// keeps the serial path's fail-without-retry semantics.
	MaxRetries int
	// RetryDelay is the initial backoff between retries (default 100ms).
	RetryDelay time.Duration
	// MaxRetryDelay caps the exponential backoff (default 30s).
	MaxRetryDelay time.Duration
	// BudgetTokens, when > 0, hard-caps total tokens spent by this
	// execution; queries starting past the cap fail with
	// batch.ErrBudgetExhausted.
	BudgetTokens int
	// Cache serves repeated prompts from memory and single-flights
	// concurrent duplicates.
	Cache bool
	// Disk adds a persistent cache tier behind the memory cache:
	// answers survive the process, so a repeated plan (or a boosting
	// round re-asking round-N prompts) pays zero predictor calls for
	// prompts any earlier run already bought. Implies Cache.
	Disk *promptcache.Cache
	// CacheNamespace partitions the disk cache by answer function;
	// empty derives it from the predictor identity and prompt-template
	// version (promptcache.Namespace — versioned by Compress when
	// compression is enabled).
	CacheNamespace string
	// Compress, when enabled, runs every planned prompt through the
	// deterministic compression stage (prompt.Compressor) after
	// construction and before dispatch: abstract spans are ranked by
	// signal density and the sparsest dropped to meet the level caps
	// and TargetTokens budget. Compression changes prompt bytes, so it
	// feeds the default cache namespace via its TemplateVersion — a
	// cached answer never crosses compression configurations.
	Compress prompt.Compressor
	// QueryTimeout bounds each predictor call (per attempt); 0 means no
	// deadline. A hung call is abandoned with batch.ErrQueryTimeout, so
	// one stuck prompt cannot stall the whole plan.
	QueryTimeout time.Duration
	// Breaker configures a circuit breaker in front of the predictor;
	// the zero value disables it. Like BudgetTokens, a tripped breaker
	// makes results depend on completion order under concurrency.
	Breaker batch.BreakerConfig
	// Fallback, when non-nil, answers queries whose LLM path failed
	// permanently with the surrogate classifier instead of reporting
	// them in QueryErrors. Fallback answers are marked in
	// Results.Fallback.
	Fallback *Surrogate
	// Replicas, when non-empty, fans the plan's queries across these
	// backends through the replica pool (health-aware routing,
	// per-replica breakers) instead of querying the primary predictor
	// directly. Breaker then configures the per-replica breakers; no
	// global breaker runs.
	Replicas []llm.Predictor
	// ReplicaCount, when > 1 and Replicas is empty, pools the primary
	// predictor itself as that many replica slots — useful for
	// concurrency-safe predictors like *llm.Sim, where N slots model N
	// interchangeable endpoints with independent health state.
	ReplicaCount int
	// Hedge enables hedged requests on the pool: a second replica is
	// tried when the first has not answered within HedgeAfter, first
	// answer wins. Requires pooling (Replicas or ReplicaCount).
	Hedge bool
	// HedgeAfter is the hedge trigger delay (default pool.DefaultHedgeAfter).
	HedgeAfter time.Duration
	// Affinity routes each prompt to its cache-affine replica
	// (rendezvous hashing of the prompt-cache key over the replica
	// set) instead of pure latency×load P2C, falling back to P2C when
	// the affine replica is ejected or overloaded. With per-replica
	// disk caches (e.g. distinct llmserve upstreams) a warm prompt
	// then never pays cold-replica tokens. Requires pooling (Replicas
	// or ReplicaCount).
	Affinity bool
	// OnResult, when non-nil, receives each plan entry's final outcome
	// the moment the executor settles it — from worker goroutines,
	// concurrently and in completion order — instead of only after the
	// whole plan (or boosting round) returns. When Fallback is
	// configured, a permanently failed entry is streamed with the
	// surrogate's answer and Fallback set, exactly matching what the
	// returned Results will record. The hook exists for online callers
	// (the serve tier) that must answer each query's client without
	// waiting for the rest of the coalesced batch; it runs on the
	// worker's critical path and must not block for long.
	OnResult func(QueryOutcome)

	// onOutcome is the batch-level adapter derived from OnResult; set
	// internally by ExecuteWith/BoostWith, never by callers.
	onOutcome func(batch.Request, batch.Outcome)
}

// QueryOutcome is one settled plan entry as streamed to
// ExecConfig.OnResult. Category is the answer recorded in
// Results.Pred: the LLM's parsed category, or the surrogate's
// prediction when Fallback answered (Err is then nil, mirroring how
// ExecuteWith keeps fallback-answered queries out of QueryErrors).
type QueryOutcome struct {
	Node     tag.NodeID
	Category string
	Response llm.Response
	// Pruned/Equipped mirror the plan entry's prompt shape.
	Pruned   bool
	Equipped bool
	// Cached reports the answer came from a cache tier (memory,
	// single-flight coalescing, or disk) instead of a fresh call.
	Cached bool
	// Fallback reports the surrogate answered after the LLM path failed
	// permanently.
	Fallback bool
	// Err is the permanent failure when no fallback is configured.
	Err error
}

// resultStream adapts batch outcomes into OnResult callbacks. The
// planned-query index is rebound per dispatch (boosting rounds reuse
// one executor across rounds); dispatch boundaries are barriers —
// Execute returns only after every worker finished — so rebinding
// needs no lock.
type resultStream struct {
	g    *tag.Graph
	fb   *Surrogate
	hook func(QueryOutcome)
	byID map[string]plannedQuery
}

// bind indexes the next dispatch's planned queries by request ID.
func (rs *resultStream) bind(planned []plannedQuery) {
	m := make(map[string]plannedQuery, len(planned))
	for _, q := range planned {
		m[strconv.Itoa(int(q.v))] = q
	}
	rs.byID = m
}

// onOutcome implements batch.Config.OnOutcome.
func (rs *resultStream) onOutcome(r batch.Request, o batch.Outcome) {
	q, ok := rs.byID[r.ID]
	if !ok {
		return
	}
	out := QueryOutcome{
		Node: q.v, Pruned: q.pruned, Equipped: q.equipped,
		Response: o.Response, Cached: o.Cached, Err: o.Err,
	}
	switch {
	case o.Err == nil:
		out.Category = o.Response.Category
	case rs.fb != nil:
		out.Category = rs.fb.PredictNode(rs.g, q.v)
		out.Fallback = true
		out.Err = nil
	}
	rs.hook(out)
}

// replicaSet resolves the pool's backend list: the explicit Replicas
// when given, ReplicaCount copies of the primary otherwise, nil when
// pooling is off.
func (cfg ExecConfig) replicaSet(p llm.Predictor) []llm.Predictor {
	if len(cfg.Replicas) > 0 {
		return cfg.Replicas
	}
	if cfg.ReplicaCount > 1 {
		reps := make([]llm.Predictor, cfg.ReplicaCount)
		for i := range reps {
			reps[i] = p
		}
		return reps
	}
	return nil
}

// batchConfig translates an ExecConfig into the executor's config.
func (cfg ExecConfig) batchConfig(rec obs.Recorder) batch.Config {
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	retries := cfg.MaxRetries
	if retries == 0 {
		retries = -1 // core's default is no retries; -1 expresses that to batch
	}
	return batch.Config{
		Workers:        workers,
		QPS:            cfg.QPS,
		MaxRetries:     retries,
		RetryDelay:     cfg.RetryDelay,
		MaxRetryDelay:  cfg.MaxRetryDelay,
		BudgetTokens:   cfg.BudgetTokens,
		Cache:          cfg.Cache,
		Disk:           cfg.Disk,
		CacheNamespace: cfg.CacheNamespace,
		QueryTimeout:   cfg.QueryTimeout,
		Breaker:        cfg.Breaker,
		OnOutcome:      cfg.onOutcome,
		Obs:            rec,
	}
}

// QueryErrors aggregates per-query failures from a plan execution.
// Execution no longer aborts on the first failing query: the successful
// queries' predictions are returned alongside this error, so one bad
// query cannot void a large batch.
type QueryErrors struct {
	Errs map[tag.NodeID]error
}

// add records one failure, allocating lazily.
func (e *QueryErrors) add(v tag.NodeID, err error) {
	if e.Errs == nil {
		e.Errs = make(map[tag.NodeID]error)
	}
	e.Errs[v] = err
}

// Error implements error with a deterministic summary (lowest node ID
// first).
func (e *QueryErrors) Error() string {
	ids := make([]tag.NodeID, 0, len(e.Errs))
	for v := range e.Errs {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) == 0 {
		return "core: no query errors"
	}
	return fmt.Sprintf("core: %d queries failed; first: %v", len(ids), e.Errs[ids[0]])
}

// timedPredictor decorates predictor calls issued by the batch executor
// with the per-query latency histogram the serial path used to emit
// inline, so observability is identical on both paths. (The per-query
// "core.query" span is no longer opened here: since tracing went
// hierarchical it is the query's root span, opened by dispatch before
// the request enters the executor — this layer sits *inside* the
// executor's attempt span and only times the winning call.)
type timedPredictor struct {
	inner llm.Predictor
	rec   obs.Recorder
	mode  string
}

// Name implements llm.Predictor.
func (t *timedPredictor) Name() string { return t.inner.Name() }

// Identity forwards the inner identity so the batch executor's default
// disk-cache namespace is unchanged by instrumentation.
func (t *timedPredictor) Identity() string { return llm.IdentityOf(t.inner) }

// Query implements llm.Predictor with histogram instrumentation.
func (t *timedPredictor) Query(promptText string) (llm.Response, error) {
	start := time.Now()
	resp, err := t.inner.Query(promptText)
	t.rec.Observe(metricQuerySeconds, time.Since(start).Seconds(), "mode", t.mode)
	return resp, err
}

// timedCtxPredictor additionally forwards QueryContext, so wrapping a
// cancelable predictor does not demote it to the executor's watchdog
// path. instrument picks between the two.
type timedCtxPredictor struct {
	*timedPredictor
	cp llm.ContextPredictor
}

// QueryContext implements llm.ContextPredictor with the same
// instrumentation as Query.
func (t *timedCtxPredictor) QueryContext(ctx context.Context, promptText string) (llm.Response, error) {
	start := time.Now()
	resp, err := t.cp.QueryContext(ctx, promptText)
	t.rec.Observe(metricQuerySeconds, time.Since(start).Seconds(), "mode", t.mode)
	return resp, err
}

// plannedQuery is one query with its prompt fixed ahead of dispatch.
type plannedQuery struct {
	v        tag.NodeID
	pruned   bool
	equipped bool
	prompt   string
	// compressWall/compressSaved record the compression stage's cost
	// and payoff for this prompt; zero when compression is disabled or
	// saved nothing. dispatch charges them into the query's ledger.
	compressWall  time.Duration
	compressSaved int
}

// compressQuery runs one planned prompt through the compression stage,
// recording wall time, token savings and the per-mode metrics.
func (q *plannedQuery) compress(comp prompt.Compressor, rec obs.Recorder, mode string) {
	start := time.Now()
	out, st := comp.CompressStats(q.prompt)
	q.prompt = out
	q.compressWall = time.Since(start)
	q.compressSaved = st.Saved()
	rec.Add(metricCompressedTokens, float64(st.Saved()), "mode", mode)
	rec.Observe(metricCompressionRatio, st.Ratio(), "mode", mode)
}

// buildQueries materializes selections and prompts for the given nodes
// on the calling goroutine, keeping Method and Context single-threaded.
// With compression enabled each prompt is compressed in place, so
// everything downstream — dispatch, caching, token metering — sees only
// the compressed bytes.
func buildQueries(ctx *predictors.Context, m predictors.Method, queries []tag.NodeID, prune map[tag.NodeID]bool, comp prompt.Compressor, rec obs.Recorder, mode string) []plannedQuery {
	out := make([]plannedQuery, 0, len(queries))
	for _, v := range queries {
		var sel []predictors.Selected
		if !prune[v] {
			sel = m.Select(ctx, v)
		}
		out = append(out, plannedQuery{
			v:        v,
			pruned:   prune[v],
			equipped: len(sel) > 0,
			prompt:   predictors.BuildPrompt(ctx, v, sel, m.Ranked() && len(sel) > 0),
		})
		if comp.Enabled() {
			out[len(out)-1].compress(comp, rec, mode)
		}
	}
	return out
}

// newPlanExecutor wraps p for one plan execution: instrumented when a
// recorder is live, and fronted by a bounded-concurrency batch
// executor.
func newPlanExecutor(p llm.Predictor, cfg ExecConfig, rec obs.Recorder, mode string) (*batch.Executor, error) {
	if reps := cfg.replicaSet(p); reps != nil {
		pl, err := pool.New(reps, cfg.PoolConfig(rec))
		if err != nil {
			return nil, fmt.Errorf("core: building replica pool: %w", err)
		}
		p = pl
		// The per-replica breakers replace the executor's global one: a
		// single dead replica must be ejected from rotation, not allowed
		// to trip a breaker spanning the healthy ones.
		cfg.Breaker = batch.BreakerConfig{}
	}
	// Compression rewrites prompt bytes, so a compressed run must not
	// share the executor's default disk-cache namespace with the
	// uncompressed template. Derive the versioned namespace here (after
	// pool wrapping, so the identity folds replicas exactly like the
	// executor's own default would).
	if cfg.Disk != nil && cfg.CacheNamespace == "" && cfg.Compress.Enabled() {
		cfg.CacheNamespace = promptcache.NamespaceVersion(p, cfg.Compress.TemplateVersion())
	}
	qp := p
	if obs.Enabled(rec) {
		tp := &timedPredictor{inner: p, rec: rec, mode: mode}
		if cp, ok := p.(llm.ContextPredictor); ok {
			qp = &timedCtxPredictor{timedPredictor: tp, cp: cp}
		} else {
			qp = tp
		}
	}
	return batch.New(qp, cfg.batchConfig(rec))
}

// queryTrace pairs one query's root span with its ledger, both closed
// by dispatch when the outcome is in.
type queryTrace struct {
	root *obs.Span
	led  *obs.Ledger
}

// close settles one query's books: the root span ends at the instant
// the worker finished the request (falling back to now for requests the
// executor never picked up) and the ledger closes with the span's exact
// duration. Core charges no stages of its own — the executor tiles the
// span with queue/cache/predict/… charges — so billed tokens stay
// exactly the metered spend.
func (qt queryTrace) close(o batch.Outcome) {
	if qt.root == nil {
		return
	}
	end := o.Finished
	if end.IsZero() {
		end = time.Now()
	}
	if o.Err != nil {
		qt.root.SetAttr("outcome", "error")
	} else if o.Cached {
		qt.root.SetAttr("outcome", "cached")
	}
	qt.root.EndAt(end)
	qt.led.Close(end.Sub(qt.root.StartTime()))
}

// planLink renders a plan-level (or round-level) span's trace identity
// as labels for the query roots under it. Query traces are separate
// traces — each ledger is keyed by its trace ID — so the linkage is by
// attribute, not by parentage. Empty when the plan span is untraced.
func planLink(sp *obs.Span) []string {
	if !sp.Sampled() {
		return nil
	}
	return []string{"plan_trace", sp.TraceID()}
}

// dispatch runs the planned queries through the executor and returns
// outcomes keyed by node. Prompts are already fixed, so concurrent
// dispatch cannot change what is asked — only how fast.
//
// When tracing is live each query gets its own trace: a "core.query"
// root span plus a ledger, both carried into the executor via
// Request.Ctx so every layer underneath (queue, cache, pool, predictor
// — and llmserve across the HTTP hop) nests spans and charges stages
// into them. extra labels (plan/round linkage) are attached to each
// root.
func dispatch(ex *batch.Executor, planned []plannedQuery, rec obs.Recorder, mode string, extra ...string) (map[tag.NodeID]batch.Outcome, error) {
	reqs := make([]batch.Request, len(planned))
	traces := make([]queryTrace, len(planned))
	for i, q := range planned {
		reqs[i] = batch.Request{ID: strconv.Itoa(int(q.v)), Prompt: q.prompt}
		labels := append([]string{"mode", mode, "node", reqs[i].ID}, extra...)
		qctx, root := obs.StartSpanCtx(context.Background(), rec, "core.query", labels...)
		if root.Sampled() {
			led := obs.NewLedger(rec, root.TraceID(), mode+"/node:"+reqs[i].ID)
			if q.compressWall > 0 || q.compressSaved > 0 {
				// Unbilled: compression ran during planning, before this
				// query's span opened, so its wall must not count against
				// the billed tiling and its tokens were never metered.
				led.Charge(obs.StageCompress, q.compressWall, q.compressSaved, false)
			}
			qctx = obs.ContextWithLedger(qctx, led)
			traces[i] = queryTrace{root: root, led: led}
		}
		reqs[i].Ctx = qctx
	}
	res, err := ex.Execute(context.Background(), reqs)
	if err != nil {
		for i := range traces {
			traces[i].close(batch.Outcome{Err: err})
		}
		return nil, err
	}
	out := make(map[tag.NodeID]batch.Outcome, len(planned))
	for i, q := range planned {
		o := res.Outcomes[reqs[i].ID]
		out[q.v] = o
		traces[i].close(o)
	}
	return out, nil
}

// Execute runs a plan with no boosting: every query sees only the
// labels present in ctx.Known at the start (the paper's baseline
// execution mode). It is ExecuteWith at the zero (serial) ExecConfig.
func Execute(ctx *predictors.Context, m predictors.Method, p llm.Predictor, plan Plan) (*Results, error) {
	return ExecuteWith(ctx, m, p, plan, ExecConfig{})
}

// ExecuteWith is Execute with bounded concurrency: prompts for the
// whole plan are constructed up front, dispatched through the batch
// executor under cfg, and the results applied in stable plan order.
// Per-query failures are aggregated into a *QueryErrors returned
// alongside the successful queries' Results.
func ExecuteWith(ctx *predictors.Context, m predictors.Method, p llm.Predictor, plan Plan, cfg ExecConfig) (*Results, error) {
	rec := obs.Active(ctx.Obs)
	res := &Results{Pred: make(map[tag.NodeID]string, len(plan.Queries)), Rounds: 1}
	var rs *resultStream
	if cfg.OnResult != nil {
		rs = &resultStream{g: ctx.Graph, fb: cfg.Fallback, hook: cfg.OnResult}
		cfg.onOutcome = rs.onOutcome
	}
	ex, err := newPlanExecutor(p, cfg, rec, "plain")
	if err != nil {
		return nil, err
	}
	planned := buildQueries(ctx, m, plan.Queries, plan.Prune, cfg.Compress, rec, "plain")
	if rs != nil {
		rs.bind(planned)
	}
	// The plan span is its own trace; each query roots a separate trace
	// (its ledger is keyed by trace ID) and links back via the
	// plan_trace attribute.
	planSpan := rec.StartSpan("core.plan", "mode", "plain", "queries", strconv.Itoa(len(planned)))
	defer planSpan.End()
	outcomes, err := dispatch(ex, planned, rec, "plain", planLink(planSpan)...)
	if err != nil {
		return nil, err
	}
	var qerrs QueryErrors
	for _, q := range planned {
		o := outcomes[q.v]
		if o.Err != nil {
			rec.Add(metricQueryErrors, 1, "mode", "plain")
			if cfg.Fallback != nil {
				res.Pred[q.v] = cfg.Fallback.PredictNode(ctx.Graph, q.v)
				res.markFallback(q.v)
				rec.Add(metricFallback, 1, "mode", "plain")
				continue
			}
			qerrs.add(q.v, fmt.Errorf("core: query for node %d: %w", q.v, o.Err))
			continue
		}
		if q.equipped {
			res.Equipped++
		}
		recordQuery(rec, "plain", o.Response, q.pruned, q.equipped)
		res.Pred[q.v] = o.Response.Category
		res.Meter.AddQuery(o.Response.InputTokens, o.Response.OutputTokens)
	}
	if len(qerrs.Errs) > 0 {
		return res, &qerrs
	}
	return res, nil
}

// TauForBudget computes the pruning fraction τ ∈ [0, 1] implied by a
// token budget B (Section V-C1): B = τ·|V_Q|·(T_v − T_N) + (1−τ)·|V_Q|·T_v,
// where T_v is the mean tokens of a full query and T_N the mean tokens
// of its neighbor text. The result is clamped to [0, 1].
//
// ok reports whether the budget is actually attainable at the returned
// τ: budgets below the all-pruned cost n·(T_v − T_N) still return τ = 1
// but ok = false, and a non-positive T_N (pruning saves nothing) yields
// ok only when the budget covers n·T_v outright. Earlier versions
// silently returned τ = 0 in that second case, reporting an infeasible
// budget as "no pruning needed".
func TauForBudget(budget float64, numQueries int, tokensPerQuery, tokensNeighbor float64) (tau float64, ok bool) {
	if numQueries <= 0 {
		return 0, true
	}
	n := float64(numQueries)
	if tokensNeighbor <= 0 {
		return 0, budget >= n*tokensPerQuery
	}
	tau = (n*tokensPerQuery - budget) / (n * tokensNeighbor)
	if tau < 0 {
		return 0, true
	}
	if tau > 1 {
		return 1, false
	}
	return tau, true
}

// EstimateQueryTokens estimates the mean total prompt tokens and mean
// neighbor-text tokens per query for the given context/method by
// building (but not executing) the prompts of a sample of queries. It
// implements the paper's footnote that both averages "can be estimated
// through statistical analysis or approximation".
//
// When sample is smaller than the query set, the sampled queries are
// drawn uniformly with a deterministic stream keyed by ctx.Seed —
// sampling the prefix instead would bias τ-for-budget whenever the
// query set arrives ordered (by degree, score, or node ID).
func EstimateQueryTokens(ctx *predictors.Context, m predictors.Method, queries []tag.NodeID, sample int) (perQuery, perNeighborText float64) {
	return EstimateQueryTokensCached(ctx, m, queries, sample, nil)
}

// EstimateQueryTokensCached is EstimateQueryTokens made cache-aware:
// queries whose full prompt `cached` reports as already answered
// contribute zero marginal tokens to both averages, because executing
// them re-pays nothing — the answer is served from the persistent
// cache. Budgeting with these averages lets TauForBudget admit more
// un-pruned queries under the same budget on warm runs, which is the
// planner-level payoff of the disk cache: the budget buys *new*
// tokens, not tokens already bought.
//
// The lookup sees the fully-equipped prompt (the one a cache hit would
// serve). nil behaves exactly like EstimateQueryTokens.
func EstimateQueryTokensCached(ctx *predictors.Context, m predictors.Method, queries []tag.NodeID, sample int, cached func(promptText string) bool) (perQuery, perNeighborText float64) {
	return EstimateQueryTokensCompressed(ctx, m, queries, sample, prompt.Compressor{}, cached)
}

// EstimateQueryTokensCompressed is the full-fidelity estimator: it
// sees both the disk cache (cached, may be nil) and the compression
// stage (comp, zero value disables). With compression enabled every
// sampled prompt — equipped and vanilla alike — is compressed before
// counting, so TauForBudget's budget math prices queries at what
// dispatch will actually pay and the two token-saving axes (τ-pruning
// and compression) compose instead of double-counting. The cache
// lookup sees the compressed equipped prompt: those are the bytes a
// compressed run keys its cache with, so a warm entry contributes zero
// marginal tokens exactly once — compression never discounts a prompt
// the cache already discounted.
func EstimateQueryTokensCompressed(ctx *predictors.Context, m predictors.Method, queries []tag.NodeID, sample int, comp prompt.Compressor, cached func(promptText string) bool) (perQuery, perNeighborText float64) {
	if len(queries) == 0 {
		return 0, 0
	}
	if sample <= 0 || sample > len(queries) {
		sample = len(queries)
	}
	sampled := queries
	if sample < len(queries) {
		rng := xrand.New(ctx.Seed).SplitString("core/estimate-tokens")
		idx := rng.Sample(len(queries), sample)
		sort.Ints(idx)
		sampled = make([]tag.NodeID, sample)
		for i, j := range idx {
			sampled[i] = queries[j]
		}
	}
	var full, bare float64
	for _, v := range sampled {
		sel := m.Select(ctx, v)
		withNb := comp.Compress(predictors.BuildPrompt(ctx, v, sel, m.Ranked() && len(sel) > 0))
		if cached != nil && cached(withNb) {
			continue // zero marginal tokens: the answer is already on disk
		}
		vanilla := comp.Compress(predictors.BuildPrompt(ctx, v, nil, false))
		full += float64(token.Count(withNb))
		bare += float64(token.Count(vanilla))
	}
	n := float64(sample)
	return full / n, (full - bare) / n
}
