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
	metricPseudoUses       = "mqo_pseudo_label_uses_total"
	metricBoostRounds      = "mqo_boost_rounds_total"
	metricBoostRound       = "mqo_boost_round"
	metricBoostPending     = "mqo_boost_pending_queries"
	metricFallback         = "mqo_fallback_predictions_total"
	metricCompressedTokens = "mqo_prompt_compressed_tokens_total"
	metricCompressionRatio = "mqo_prompt_compression_ratio"
)

// recordOutcome emits the per-query metrics of one settled query,
// shared by ExecuteWith, BoostWith and Executor.Query.
func recordOutcome(rec obs.Recorder, mode string, out QueryOutcome) {
	if out.Err != nil || out.Fallback {
		rec.Add(metricQueryErrors, 1, "mode", mode)
		if out.Fallback {
			rec.Add(metricFallback, 1, "mode", mode)
		}
		return
	}
	rec.Add(metricQueries, 1, "mode", mode)
	if out.Pruned {
		rec.Add(metricPruned, 1, "mode", mode)
	}
	if out.Equipped {
		rec.Add(metricEquipped, 1, "mode", mode)
	}
	rec.Add(metricInputTokens, float64(out.Response.InputTokens), "mode", mode)
	rec.Add(metricOutputTokens, float64(out.Response.OutputTokens), "mode", mode)
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
	// because the LLM path failed (a failed call, timeout, open circuit
	// breaker or exhausted budget). Nil when no query fell back.
	Fallback map[tag.NodeID]bool
}

// add books one settled query: its answer and, for an LLM answer, its
// tokens and prompt shape. It books nothing and reports false for a
// failed query.
func (r *Results) add(out QueryOutcome) bool {
	switch {
	case out.Fallback:
		if r.Fallback == nil {
			r.Fallback = make(map[tag.NodeID]bool)
		}
		r.Fallback[out.Node] = true
	case out.Err != nil:
		return false
	default:
		if out.Equipped {
			r.Equipped++
		}
		r.Meter.AddQuery(out.Response.InputTokens, out.Response.OutputTokens)
	}
	r.Pred[out.Node] = out.Category
	return true
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

// ExecConfig tunes how a plan's queries are dispatched to the
// predictor. The zero value reproduces the historical serial behaviour:
// one in-flight query, no rate limit, no budget cap. Each query is
// asked once; a failed call is final here (see Fallback).
//
// With Workers > 1 the queries of a plan (or of one boosting round,
// whose selections are fixed before the round executes) run on up to
// Workers goroutines, each of which plans the query it takes —
// neighbor selection, prompt construction and compression — and asks
// it through the batch executor before taking the next. Planning only
// reads the Context, and results are applied in stable plan order, so
// — given an order-independent predictor such as *llm.Sim or an HTTP
// endpoint at temperature 0 — prompts, predictions, token totals and
// accuracy are bit-identical for any worker count. The one exception
// is BudgetTokens: which queries are refused once a hard token cap
// trips depends on completion order.
type ExecConfig struct {
	// Workers is the number of concurrent in-flight queries, and of
	// goroutines planning them; values below 1 mean serial execution.
	Workers int
	// QPS caps the dispatch rate across workers; 0 means unlimited.
	QPS float64
	// BudgetTokens, when > 0, hard-caps total tokens spent by one
	// ExecuteWith or BoostWith call — every boosting round together,
	// not each round; queries starting past the cap fail with
	// batch.ErrBudgetExhausted.
	BudgetTokens int
	// Cache is ignored.
	//
	// Deprecated: every query is asked on its own, and no plan repeats
	// a prompt (each carries its target's title), so there is nothing
	// to group; Disk is the answer store.
	Cache bool
	// Disk adds a persistent answer store: answers survive the
	// process, so a repeated plan pays zero predictor calls for prompts
	// any earlier run already bought.
	Disk *promptcache.Cache
	// Compress, when enabled, runs every planned prompt through the
	// deterministic compression stage (prompt.Compressor) after
	// construction and before dispatch: abstract spans are ranked by
	// signal density and the sparsest dropped to meet the level caps
	// and TargetTokens budget. Compression changes prompt bytes, so it
	// feeds the cache namespace via its TemplateVersion (see
	// CacheNamespace) — a cached answer never crosses compression
	// configurations.
	Compress prompt.Compressor
	// QueryTimeout bounds each query's predictor call, replica
	// failover included; 0 means no deadline. A hung call is abandoned
	// with batch.ErrQueryTimeout, so one stuck prompt cannot stall the
	// whole plan.
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
	// predictors like *llm.Sim, where N slots model N interchangeable
	// endpoints with independent health state.
	ReplicaCount int
	// Hedge enables hedged requests on the pool: a second replica is
	// tried when the first has not answered within HedgeAfter, first
	// answer wins. Requires pooling (Replicas or ReplicaCount).
	Hedge bool
	// HedgeAfter is the hedge trigger delay (default pool.DefaultHedgeAfter).
	HedgeAfter time.Duration
	// Affinity routes each prompt to its cache-affine replica
	// (rendezvous hashing of the prompt-cache key over the replica
	// set) instead of pure latency×load P2C, falling back to P2C only
	// while the affine replica's breaker refuses it. With per-replica
	// disk caches (e.g. distinct llmserve upstreams) a warm prompt
	// then never pays cold-replica tokens. Requires pooling (Replicas
	// or ReplicaCount).
	Affinity bool
	// OnResult, when non-nil, receives each query's final outcome —
	// from ExecuteWith, BoostWith or Executor.Query — the moment it
	// settles, on the worker goroutine that asked it, concurrently and
	// in completion order, instead of only after the whole plan (or
	// boosting round) returns. When Fallback is configured, a
	// permanently failed entry is streamed with the surrogate's answer
	// and Fallback set, exactly matching what the returned Results will
	// record. The hook runs on the worker's critical path and must not
	// block for long.
	OnResult func(QueryOutcome)
}

// QueryOutcome is one settled plan entry, as streamed to
// ExecConfig.OnResult and returned by Executor.Query. Category is the
// answer recorded in Results.Pred: the LLM's parsed category, or the
// surrogate's prediction when Fallback answered (Err is then nil,
// mirroring how ExecuteWith keeps fallback-answered queries out of
// QueryErrors).
type QueryOutcome struct {
	Node     tag.NodeID
	Category string
	Response llm.Response
	// Pruned/Equipped mirror the plan entry's prompt shape.
	Pruned   bool
	Equipped bool
	// Cached reports the answer came from Disk instead of a fresh call.
	Cached bool
	// Fallback reports the surrogate answered after the LLM path failed
	// permanently.
	Fallback bool
	// Err is the permanent failure when no fallback is configured.
	Err error
}

// settle folds one dispatched query's batch outcome into its
// QueryOutcome. fb, when non-nil, answers a permanent failure.
func settle(g *tag.Graph, fb *Surrogate, q plannedQuery, o batch.Outcome) QueryOutcome {
	out := QueryOutcome{
		Node: q.v, Pruned: q.pruned, Equipped: q.equipped,
		Response: o.Response, Cached: o.Cached, Err: o.Err,
	}
	switch {
	case o.Err == nil:
		out.Category = className(g, o.Response.Category)
	case fb != nil:
		out.Category = fb.PredictNode(g, q.v)
		out.Fallback = true
		out.Err = nil
	}
	return out
}

// className returns the graph's own string for the class named c, or c
// when it names none, so the answers a caller keeps share one string
// per class instead of each holding the copy its response carried.
func className(g *tag.Graph, c string) string {
	for _, k := range g.Classes {
		if k == c {
			return k
		}
	}
	return c
}

// CacheNamespace is the disk-cache namespace of a plan executed under
// cfg on p: the identity of the predictor the executor queries — the
// replica pool when cfg pools, so answers the replicas bought are never
// filed under p's identity — plus the template version Compress
// produces. A caller that reads the cache itself, like a budget
// estimator's lookup, uses it to see what execution stores.
func (cfg ExecConfig) CacheNamespace(p llm.Predictor) string {
	id := llm.IdentityOf(p)
	if reps := cfg.replicaSet(p); reps != nil {
		id = pool.IdentityOf(reps)
	}
	return promptcache.NamespaceVersion(id, cfg.Compress.TemplateVersion())
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
	return batch.Config{
		Workers:      workers,
		QPS:          cfg.QPS,
		BudgetTokens: cfg.BudgetTokens,
		Disk:         cfg.Disk,
		QueryTimeout: cfg.QueryTimeout,
		Breaker:      cfg.Breaker,
		Obs:          rec,
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

// plannedQuery is one query with its prompt fixed ahead of dispatch.
type plannedQuery struct {
	v        tag.NodeID
	pruned   bool
	equipped bool
	prompt   string
	// compressWall/compressSaved record the compression stage's cost
	// and payoff for this prompt; zero when compression is disabled or
	// saved nothing. ask charges them into the query's ledger.
	compressWall  time.Duration
	compressSaved int
}

// planQuery fixes one query's prompt from its neighbor selection sel,
// so everything downstream — dispatch, the disk cache, token metering —
// sees only the final bytes. When comp is enabled, the compressor reads
// the selected nodes' word IDs and renders the compressed prompt once,
// recording wall time, token savings and the per-mode metrics.
func planQuery(ctx *predictors.Context, m predictors.Method, v tag.NodeID, sel []predictors.Selected, pruned bool, comp prompt.Compressor, rec obs.Recorder, mode string) plannedQuery {
	q := plannedQuery{v: v, pruned: pruned, equipped: len(sel) > 0}
	pq := predictors.PromptQuery(ctx, v, sel, m.Ranked() && len(sel) > 0)
	if !comp.Enabled() {
		q.prompt = pq.Render()
		return q
	}
	start := time.Now()
	out, st := comp.CompressQuery(&pq)
	q.prompt = out
	q.compressWall = time.Since(start)
	q.compressSaved = st.Saved()
	rec.Add(metricCompressedTokens, float64(st.Saved()), "mode", mode)
	rec.Observe(metricCompressionRatio, st.Ratio(), "mode", mode)
	return q
}

// Executor asks planned queries of one predictor through a batch
// executor whose circuit breaker, token budget, QPS pacing and — when
// the config pools — replica pool last as long as the Executor does.
// ExecuteWith, BoostWith and FitInadequacy build one per call; a
// long-lived caller such as the serve tier builds one and sends every
// query through Query.
type Executor struct {
	ex  *batch.Executor
	cfg ExecConfig
	rec obs.Recorder
}

// NewExecutor fronts p with cfg's batch executor, routed through a
// replica pool when cfg pools. rec receives the executor's metrics and
// traces.
func NewExecutor(p llm.Predictor, cfg ExecConfig, rec obs.Recorder) (*Executor, error) {
	bcfg := cfg.batchConfig(rec)
	bcfg.CacheNamespace = cfg.CacheNamespace(p)
	if reps := cfg.replicaSet(p); reps != nil {
		pl, err := pool.New(reps, cfg.PoolConfig(rec))
		if err != nil {
			return nil, fmt.Errorf("core: building replica pool: %w", err)
		}
		p = pl
		// The per-replica breakers replace the executor's global one: a
		// single dead replica must be ejected from rotation, not allowed
		// to trip a breaker spanning the healthy ones.
		bcfg.Breaker = batch.BreakerConfig{}
	}
	ex, err := batch.New(p, bcfg)
	if err != nil {
		return nil, err
	}
	return &Executor{ex: ex, cfg: cfg, rec: rec}, nil
}

// Query answers node v as ExecuteWith answers a one-query plan: it
// selects v's neighbors with m, builds and compresses the prompt and
// asks it. Concurrent calls are safe and share the executor's breaker,
// budget, pacing and pool.
func (e *Executor) Query(ctx *predictors.Context, m predictors.Method, v tag.NodeID) QueryOutcome {
	return e.ask(ctx.Graph, planQuery(ctx, m, v, m.Select(ctx, v), false, e.cfg.Compress, e.rec, "plain"), "plain", nil)
}

// ask asks one planned query through the executor on the calling
// goroutine and settles it. The query roots its own trace: a
// "core.query" span carrying link's plan and round labels, and a
// ledger. Both ride Request.Ctx into the executor, so every layer
// underneath (cache, pool, predictor, and llmserve across the HTTP
// hop) nests spans and charges stages into them. When the config has a
// Fallback, the surrogate answers a permanent failure. ask records the
// per-query metrics under mode and hands the outcome to OnResult before
// returning it.
func (e *Executor) ask(g *tag.Graph, q plannedQuery, mode string, link []string) QueryOutcome {
	id := strconv.Itoa(int(q.v))
	qctx, root := obs.StartSpanCtx(context.Background(), e.rec, "core.query",
		append([]string{"mode", mode, "node", id}, link...)...)
	var led *obs.Ledger
	if root.Sampled() {
		led = obs.NewLedger(e.rec, root.TraceID(), mode+"/node:"+id)
		if q.compressWall > 0 || q.compressSaved > 0 {
			// Unbilled: compression ran during planning, before this
			// query's span opened, so its wall must not count against
			// the billed tiling and its tokens were never metered.
			led.Charge(obs.StageCompress, q.compressWall, q.compressSaved, false)
		}
		qctx = obs.ContextWithLedger(qctx, led)
	}
	o := e.ex.Do(context.Background(), batch.Request{ID: id, Prompt: q.prompt, Ctx: qctx})
	if led != nil {
		// The root ends when the executor finished the request, and the
		// ledger closes with its exact duration. Core charges no billed
		// stages of its own — the executor tiles the span with
		// cache/predict/… charges — so billed tokens stay exactly the
		// metered spend.
		if o.Err != nil {
			root.SetAttr("outcome", "error")
		} else if o.Cached {
			root.SetAttr("outcome", "cached")
		}
		root.EndAt(o.Finished)
		led.Close(o.Finished.Sub(root.StartTime()))
	}
	out := settle(g, e.cfg.Fallback, q, o)
	recordOutcome(e.rec, mode, out)
	if e.cfg.OnResult != nil {
		e.cfg.OnResult(out)
	}
	return out
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

// Execute runs a plan with no boosting: every query sees only the
// labels present in ctx.Known at the start (the paper's baseline
// execution mode). It is ExecuteWith at the zero (serial) ExecConfig.
func Execute(ctx *predictors.Context, m predictors.Method, p llm.Predictor, plan Plan) (*Results, error) {
	return ExecuteWith(ctx, m, p, plan, ExecConfig{})
}

// ExecuteWith is Execute with bounded concurrency: up to cfg.Workers
// goroutines each take the plan's next query, plan it (selection,
// prompt build, compression) and ask it through one executor under
// cfg, and the results are applied in stable plan order. Per-query
// failures are aggregated into a *QueryErrors returned alongside the
// successful queries' Results.
func ExecuteWith(ctx *predictors.Context, m predictors.Method, p llm.Predictor, plan Plan, cfg ExecConfig) (*Results, error) {
	rec := obs.Active(ctx.Obs)
	e, err := NewExecutor(p, cfg, rec)
	if err != nil {
		return nil, err
	}
	// The plan span is its own trace; each query roots a separate trace
	// (its ledger is keyed by trace ID) and links back via the
	// plan_trace attribute.
	planSpan := rec.StartSpan("core.plan", "mode", "plain", "queries", strconv.Itoa(len(plan.Queries)))
	defer planSpan.End()
	link := planLink(planSpan)
	outs := make([]QueryOutcome, len(plan.Queries))
	batch.FanOut(len(plan.Queries), cfg.Workers, func(i int) {
		v := plan.Queries[i]
		pruned := plan.Prune[v]
		var sel []predictors.Selected
		if !pruned {
			sel = m.Select(ctx, v)
		}
		outs[i] = e.ask(ctx.Graph, planQuery(ctx, m, v, sel, pruned, cfg.Compress, rec, "plain"), "plain", link)
	})
	res := &Results{Pred: make(map[tag.NodeID]string, len(plan.Queries)), Rounds: 1}
	var qerrs QueryErrors
	for _, out := range outs {
		if !res.add(out) {
			qerrs.add(out.Node, fmt.Errorf("core: query for node %d: %w", out.Node, out.Err))
		}
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
	return EstimateQueryTokensCompressed(ctx, m, queries, sample, prompt.Compressor{}, nil)
}

// EstimateQueryTokensCompressed is the full-fidelity estimator: it
// sees both the disk cache (cached, may be nil) and the compression
// stage (comp, zero value disables). Queries whose full prompt cached
// reports as already answered contribute zero marginal tokens to both
// averages, because executing them re-pays nothing; budgeting with
// these averages lets TauForBudget admit more un-pruned queries on
// warm runs — the budget buys *new* tokens, not tokens already bought.
//
// With compression enabled every sampled prompt — equipped and vanilla
// alike — is compressed before counting, so TauForBudget's budget math
// prices queries at what dispatch will actually pay and the two
// token-saving axes (τ-pruning and compression) compose instead of
// double-counting. The cache lookup sees the compressed equipped
// prompt: those are the bytes a compressed run keys its cache with, so
// a warm entry contributes zero marginal tokens exactly once —
// compression never discounts a prompt the cache already discounted.
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
		q := predictors.PromptQuery(ctx, v, sel, m.Ranked() && len(sel) > 0)
		withNb, st := comp.CompressQuery(&q)
		if cached != nil && cached(withNb) {
			continue // zero marginal tokens: the answer is already on disk
		}
		q = predictors.PromptQuery(ctx, v, nil, false)
		_, vanilla := comp.CompressQuery(&q)
		full += float64(st.TokensAfter)
		bare += float64(vanilla.TokensAfter)
	}
	n := float64(sample)
	return full / n, (full - bare) / n
}
