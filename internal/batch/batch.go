// Package batch executes large sets of LLM queries against real-world
// API constraints: bounded concurrency, rate limits, transient
// failures, a hard token budget, prompt deduplication, a persistent
// answer cache and a JSONL audit log. It is the operational layer
// under the paper's multi-query optimization: Algorithm 1/2 decide
// *what* to ask; this package gets the batch asked reliably and within
// budget.
//
// The executor preserves the black-box Predictor contract — it only
// sees prompt strings — so it works identically over the simulator and
// the HTTP client.
package batch

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/promptcache"
)

// Metric names emitted by the executor; the full catalog lives in
// README.md ("Observability").
const (
	metricBatchRequests  = "mqo_batch_requests_total"
	metricBatchRetries   = "mqo_batch_retries_total"
	metricBatchThrottled = "mqo_batch_throttle_waits_total"
	metricBatchAborts    = "mqo_batch_aborts_total"
	metricBatchInflight  = "mqo_batch_inflight"
	metricBatchTokens    = "mqo_batch_tokens_total"
	metricBatchAttempt   = "mqo_batch_attempt_duration_seconds"
	metricBatchTimeouts  = "mqo_batch_timeouts_total"
)

// Request is one query to execute: an opaque caller ID plus the final
// prompt text.
type Request struct {
	ID     string
	Prompt string
	// Ctx optionally carries the query's trace span and ledger
	// (obs.ContextWithSpan / obs.ContextWithLedger), so the executor's
	// spans nest under the caller's query span and its stage charges
	// land on the right books. Only values are taken from it —
	// cancellation always comes from the context passed to Execute or
	// Do.
	Ctx context.Context
}

// Config tunes an Executor.
type Config struct {
	// Workers bounds one Execute call's concurrent in-flight queries
	// (default 4). Do runs on its caller's goroutine and ignores it.
	Workers int
	// QPS caps the dispatch rate across every Execute and Do call on
	// this executor; 0 means unlimited.
	QPS float64
	// MaxRetries bounds per-query retries on transient failures
	// (default 2; -1 disables retries entirely). Non-retryable API
	// errors (4xx) fail immediately.
	MaxRetries int
	// RetryDelay is the initial backoff, doubled per retry
	// (default 100ms).
	RetryDelay time.Duration
	// MaxRetryDelay caps the exponential backoff (default 30s), so long
	// retry schedules neither overflow time.Duration nor grow into
	// hour-long sleeps.
	MaxRetryDelay time.Duration
	// BudgetTokens, when > 0, is a hard cap on total tokens
	// (input + output) spent by this executor, across every Execute
	// and Do call — all rounds of a boosted run, not each round.
	// Queries that would start after the cap is reached fail with
	// ErrBudgetExhausted instead of spending money.
	BudgetTokens int
	// QueryTimeout, when > 0, bounds each predictor attempt. A call
	// that outlives the deadline fails with ErrQueryTimeout (retryable)
	// instead of stalling its worker: predictors implementing
	// llm.ContextPredictor are canceled mid-flight, and a Query-only
	// call is left to finish — or park — in the background.
	QueryTimeout time.Duration
	// Breaker guards the predictor with a circuit breaker; the zero
	// value (Threshold 0) disables it. While the circuit is open,
	// requests fail fast with ErrCircuitOpen rather than queue behind a
	// backend that is presumed down.
	Breaker BreakerConfig
	// Cache asks identical prompts once per Execute call: the first
	// request with a prompt is its leader and the only one dispatched;
	// every later one follows it, settling with the leader's outcome
	// the moment the leader settles (Cached when the leader succeeded,
	// zero Attempts). No answer is kept between calls — Disk is the
	// store that outlives one — and Do, which runs one request, never
	// groups.
	Cache bool
	// Disk, when non-nil, adds a persistent answer store: every
	// dispatched prompt is looked up there before paying for a
	// predictor call, and fresh answers are written through to it.
	// Setting Disk implies Cache for Execute.
	Disk *promptcache.Cache
	// CacheNamespace partitions the disk cache by answer function;
	// empty derives it from the predictor (promptcache.Namespace), which
	// folds in the model identity, its seed and the prompt-template
	// version. Plan execution sets it to core.ExecConfig.CacheNamespace,
	// which adds the compression version.
	CacheNamespace string
	// Log, when non-nil, receives one JSON line per query outcome.
	// Prompts are logged as SHA-256 digests, never as raw text.
	Log io.Writer
	// Obs receives executor metrics (request outcomes, retries,
	// throttle waits, in-flight gauge, per-attempt latency); nil routes
	// to the process-default recorder.
	Obs obs.Recorder
}

// ErrBudgetExhausted marks queries skipped because the token budget was
// already spent.
var ErrBudgetExhausted = errors.New("batch: token budget exhausted")

// ErrQueryTimeout marks predictor attempts that outlived
// Config.QueryTimeout. It is transient: retries (if configured) get a
// fresh deadline, and it counts toward opening the circuit breaker.
var ErrQueryTimeout = errors.New("batch: query timed out")

// Outcome is the result of one request.
type Outcome struct {
	Response llm.Response
	Err      error
	// Cached reports that no predictor call was paid for this request:
	// the answer came from Disk, or from its leader (see Config.Cache).
	Cached bool
	// Attempts counts predictor calls made for this request (0 when
	// cached or skipped).
	Attempts int
	// Finished is when the worker completed the request (zero for
	// requests never dispatched). Callers that opened a span per
	// request close it with Span.EndAt(Finished), so recorded query
	// durations exclude batch result-collection overhead.
	Finished time.Time
}

// Result aggregates a batch execution.
type Result struct {
	// Outcomes maps request IDs to their outcomes.
	Outcomes map[string]Outcome
	// TokensUsed is the total input+output tokens this call's fresh
	// predictor calls spent.
	TokensUsed int
	// CacheHits counts Cached outcomes.
	CacheHits int
	// Failed counts requests whose final outcome is an error.
	Failed int
	// Skipped counts requests refused under ErrBudgetExhausted.
	Skipped int
}

// Executor runs requests against one predictor. Its breaker, token
// budget and QPS pacing span every Execute and Do call, so calls may
// overlap: a long-lived caller sends each query through one Executor.
type Executor struct {
	p   llm.Predictor
	cfg Config
	brk *Breaker // nil when the breaker is disabled

	// logMu serializes audit-log writes — workers log concurrently and
	// Config.Log (often a bytes.Buffer) need not be safe for that — and
	// guards logErr, the first write error.
	logMu  sync.Mutex
	logErr error

	// interval is the pacing gap QPS asks for (0 when unpaced), and
	// nextSlot, under paceMu, the earliest instant the next attempt of
	// any call may start.
	interval time.Duration
	paceMu   sync.Mutex
	nextSlot time.Time

	// inflight counts requests executing across every call. Each
	// change publishes the count under inflightMu, so the gauge's last
	// write is always the true count.
	inflightMu sync.Mutex
	inflight   int

	// spent is the tokens fresh predictor calls cost so far, across
	// every call; BudgetTokens caps it.
	spent atomic.Int64
}

// New builds an executor. Execute's Config.Workers goroutines, and
// every concurrent Do caller, call p concurrently, as the
// llm.Predictor contract allows.
func New(p llm.Predictor, cfg Config) (*Executor, error) {
	if p == nil {
		return nil, errors.New("batch: nil predictor")
	}
	if cfg.Workers < 0 || cfg.QPS < 0 || cfg.MaxRetries < -1 || cfg.BudgetTokens < 0 ||
		cfg.QueryTimeout < 0 || cfg.Breaker.Threshold < 0 {
		return nil, fmt.Errorf("batch: negative config value: %+v", cfg)
	}
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	switch cfg.MaxRetries {
	case 0:
		cfg.MaxRetries = 2
	case -1:
		cfg.MaxRetries = 0
	}
	if cfg.RetryDelay <= 0 {
		cfg.RetryDelay = 100 * time.Millisecond
	}
	if cfg.MaxRetryDelay <= 0 {
		cfg.MaxRetryDelay = llm.DefaultMaxRetryDelay
	}
	if cfg.Disk != nil && cfg.CacheNamespace == "" {
		cfg.CacheNamespace = promptcache.Namespace(p)
	}
	e := &Executor{p: p, cfg: cfg, brk: NewBreaker(cfg.Breaker, cfg.Obs)}
	if cfg.QPS > 0 {
		e.interval = time.Duration(float64(time.Second) / cfg.QPS)
	}
	return e, nil
}

// pace blocks until the caller's turn under QPS: each attempt reserves
// the next free slot, interval after the one before it, whichever
// call it belongs to. It returns ctx's error if ctx ends first.
func (e *Executor) pace(ctx context.Context) error {
	e.paceMu.Lock()
	slot := time.Now()
	if slot.Before(e.nextSlot) {
		slot = e.nextSlot
	}
	e.nextSlot = slot.Add(e.interval)
	e.paceMu.Unlock()
	wait := time.Until(slot)
	if wait <= 0 {
		return nil
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// noteInflight moves the executing-request count by delta and
// publishes it.
func (e *Executor) noteInflight(rec obs.Recorder, delta int) {
	e.inflightMu.Lock()
	e.inflight += delta
	rec.Set(metricBatchInflight, float64(e.inflight))
	e.inflightMu.Unlock()
}

// logLine is the JSONL audit record for one query.
type logLine struct {
	Time         string `json:"time"`
	ID           string `json:"id"`
	PromptSHA256 string `json:"prompt_sha256"`
	InputTokens  int    `json:"input_tokens,omitempty"`
	OutputTokens int    `json:"output_tokens,omitempty"`
	Category     string `json:"category,omitempty"`
	Cached       bool   `json:"cached,omitempty"`
	Attempts     int    `json:"attempts,omitempty"`
	Error        string `json:"error,omitempty"`
}

// log writes one audit line; write errors are remembered and surfaced
// by the next Execute call rather than dropped.
func (e *Executor) log(l logLine) {
	if e.cfg.Log == nil {
		return
	}
	l.Time = time.Now().UTC().Format(time.RFC3339Nano)
	data, err := json.Marshal(l)
	e.logMu.Lock()
	defer e.logMu.Unlock()
	if err == nil {
		_, err = e.cfg.Log.Write(append(data, '\n'))
	}
	if err != nil && e.logErr == nil {
		e.logErr = err
	}
}

// promptDigest fingerprints a prompt for the audit log.
func promptDigest(p string) string {
	sum := sha256.Sum256([]byte(p))
	return hex.EncodeToString(sum[:8])
}

// underBudget reports whether the executor may start another query:
// BudgetTokens is unset or not yet spent. Token costs are only known
// after the response, so the guard admits a query while any budget
// remains and charges the actual usage afterwards (the overshoot is at
// most one query per worker, matching how per-request billing behaves).
func (e *Executor) underBudget() bool {
	return e.cfg.BudgetTokens == 0 || e.spent.Load() < int64(e.cfg.BudgetTokens)
}

// groupByPrompt splits one call's requests into the ones to dispatch
// and, keyed by prompt, the ones that follow them. Without Cache or
// Disk every request is dispatched; with either, only the first
// request carrying each prompt is (a prompt's presence as a key marks
// its leader as taken).
func (e *Executor) groupByPrompt(reqs []Request) ([]Request, map[string][]Request) {
	if !e.cfg.Cache && e.cfg.Disk == nil {
		return reqs, nil
	}
	leaders := make([]Request, 0, len(reqs))
	followers := make(map[string][]Request, len(reqs))
	for _, r := range reqs {
		if fs, ok := followers[r.Prompt]; ok {
			followers[r.Prompt] = append(fs, r)
			continue
		}
		followers[r.Prompt] = nil
		leaders = append(leaders, r)
	}
	return leaders, followers
}

// FanOut runs f(i) for every i < n on up to workers goroutines, which
// take indices from one atomic counter in order, and returns when every
// call has. It runs inline, in index order, when workers <= 1 or
// n <= 1. Callers write f's results into pre-sized slices by index, so
// the outcome does not depend on which goroutine ran which index.
//
// Each goroutine yields after every call. f is often CPU-bound with no
// blocking point (planning plus a simulated predictor), and without a
// yield a goroutine holds its P for a whole 10 ms preemption quantum:
// one preempted inside a predictor call stays in flight that long, and
// the replica pool's affinity guard reads the stalled requests as an
// overloaded replica and spills its prompts to replicas whose caches
// lack them.
func FanOut(n, workers int, f func(i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
}

// Do runs one request on the caller's goroutine — disk lookup, budget
// guard, breaker, QPS pacing and retries, counted in the in-flight
// gauge — and returns its outcome. Concurrent Do and Execute calls
// share the executor's breaker, budget and pacing. Do never groups
// prompts: a prompt asked by two calls is paid twice unless Disk
// already holds the first call's answer.
func (e *Executor) Do(ctx context.Context, r Request) Outcome {
	o, _ := e.do(ctx, r, obs.Active(e.cfg.Obs))
	return o
}

// Execute runs all requests and returns per-request outcomes. It only
// returns a top-level error for setup problems (nil context, duplicate
// IDs) or a failing audit log; per-query failures are reported in
// Outcomes so one bad query cannot void a 10,000-query batch. Requests
// run on up to Workers goroutines through Do's path; with Cache or
// Disk, identical prompts are grouped first (Config.Cache).
func (e *Executor) Execute(ctx context.Context, reqs []Request) (*Result, error) {
	if ctx == nil {
		return nil, errors.New("batch: nil context")
	}
	res := &Result{Outcomes: make(map[string]Outcome, len(reqs))}
	seen := make(map[string]bool, len(reqs))
	for _, r := range reqs {
		if seen[r.ID] {
			return nil, fmt.Errorf("batch: duplicate request ID %q", r.ID)
		}
		seen[r.ID] = true
	}
	leaders, followers := e.groupByPrompt(reqs)

	var outMu sync.Mutex
	settle := func(r Request, o Outcome) {
		outMu.Lock()
		defer outMu.Unlock()
		res.Outcomes[r.ID] = o
		switch {
		case errors.Is(o.Err, ErrBudgetExhausted):
			res.Skipped++
		case o.Err != nil:
			res.Failed++
		case o.Cached:
			res.CacheHits++
		default:
			res.TokensUsed += o.Response.InputTokens + o.Response.OutputTokens
		}
	}
	rec := obs.Active(e.cfg.Obs)
	// Each leader runs, or — once ctx has ended — settles undispatched;
	// its followers then settle with a copy of its outcome.
	FanOut(len(leaders), e.cfg.Workers, func(i int) {
		r := leaders[i]
		var o Outcome
		var label string
		if err := ctx.Err(); err != nil {
			o, label = Outcome{Err: err}, "undispatched"
			rec.Add(metricBatchRequests, 1, "outcome", label)
		} else {
			o, label = e.do(ctx, r, rec)
		}
		settle(r, o)
		fo := Outcome{Response: o.Response, Err: o.Err, Cached: o.Err == nil, Finished: o.Finished}
		if o.Err == nil {
			label = "coalesced"
		}
		for _, f := range followers[r.Prompt] {
			e.follow(f, fo, label, rec)
			settle(f, fo)
		}
	})

	e.logMu.Lock()
	logErr := e.logErr
	e.logMu.Unlock()
	if logErr != nil {
		return res, fmt.Errorf("batch: audit log failed: %w", logErr)
	}
	return res, nil
}

// follow books one follower's share of its leader's outcome o: an
// audit line, the request counter under label and, when the request is
// traced, a batch.cache span and a billed cache charge covering its
// whole wait, from its root span's start to o.Finished. The charge
// carries the response's tokens: the caller meters every answered
// request, so the ledger must bill each one.
func (e *Executor) follow(r Request, o Outcome, label string, rec obs.Recorder) {
	l := logLine{ID: r.ID, PromptSHA256: promptDigest(r.Prompt), Category: o.Response.Category, Cached: o.Cached}
	if o.Err != nil {
		l.Error = o.Err.Error()
	}
	e.log(l)
	rec.Add(metricBatchRequests, 1, "outcome", label)
	root := obs.SpanFromContext(r.Ctx)
	if root == nil || o.Finished.IsZero() || !obs.Enabled(rec) {
		return
	}
	_, csp := obs.StartSpanCtxAt(r.Ctx, rec, "batch.cache", root.StartTime(), "tier", "coalesced")
	csp.EndAt(o.Finished)
	obs.Charge(r.Ctx, obs.StageCache, o.Finished.Sub(root.StartTime()), o.Response.InputTokens+o.Response.OutputTokens, true)
}

// abortReason labels context-ended outcomes for the abort counter.
func abortReason(err error) string {
	if errors.Is(err, context.DeadlineExceeded) {
		return "deadline"
	}
	return "canceled"
}

// charger accumulates a request's billed wall-clock so do can
// charge the residual (executor overhead no stage claims) at the end,
// making billed stages tile the whole request. A nil charger is a
// no-op, so uninstrumented runs skip all of it.
type charger struct {
	ctx    context.Context
	billed time.Duration
}

func (c *charger) charge(stage string, wall time.Duration, tokens int, billed bool) {
	if c == nil {
		return
	}
	if billed && wall > 0 {
		c.billed += wall
	}
	obs.Charge(c.ctx, stage, wall, tokens, billed)
}

// do executes a single dispatched request — disk lookup, budget
// guard, rate-paced predictor calls with retry — counted in the
// in-flight gauge, and returns its outcome and metric label.
func (e *Executor) do(ctx context.Context, r Request, rec obs.Recorder) (Outcome, string) {
	e.noteInflight(rec, 1)
	defer e.noteInflight(rec, -1)
	digest := promptDigest(r.Prompt)
	live := obs.Enabled(rec)
	var span *obs.Span
	var ch *charger
	var pickup time.Time
	qctx := ctx
	if live {
		pickup = time.Now()
		if r.Ctx != nil {
			// Graft the query's trace values onto the call's context:
			// span/ledger from the per-request context, cancellation
			// from the call's.
			if led := obs.LedgerFromContext(r.Ctx); led != nil {
				qctx = obs.ContextWithLedger(qctx, led)
			}
			if root := obs.SpanFromContext(r.Ctx); root != nil {
				qctx = obs.ContextWithSpan(qctx, root)
				// Queue wait: the request existed since its root span
				// opened, but no worker saw it until now.
				if wait := pickup.Sub(root.StartTime()); wait > 0 {
					_, qsp := obs.StartSpanCtxAt(qctx, rec, "batch.queue", root.StartTime())
					qsp.EndAt(pickup)
					obs.Charge(qctx, obs.StageQueue, wait, 0, true)
				}
			}
		}
		qctx, span = obs.StartSpanCtx(qctx, rec, "batch.request", "id", r.ID)
		ch = &charger{ctx: qctx}
	}
	// done stamps Finished at the instant the residual charge runs up
	// to, so the request's billed stages tile its span up to Finished
	// exactly — nothing the worker does afterwards goes unbilled.
	done := func(o Outcome, outcome string) (Outcome, string) {
		rec.Add(metricBatchRequests, 1, "outcome", outcome)
		o.Finished = time.Now()
		if live {
			if resid := o.Finished.Sub(pickup) - ch.billed; resid > 0 {
				ch.charge(obs.StageExec, resid, 0, true)
			}
			span.SetAttr("outcome", outcome)
			span.SetAttr("attempts", fmt.Sprint(o.Attempts))
			span.EndAt(o.Finished)
		}
		return o, outcome
	}
	if resp, ok := e.diskGet(r.Prompt); ok {
		// An earlier run (or an earlier round of this one) already paid
		// for this prompt. The cache charge carries the response's token
		// count: the caller's meter counts cached answers, so the ledger
		// must bill them to a stage.
		e.log(logLine{ID: r.ID, PromptSHA256: digest, Category: resp.Category, Cached: true})
		if live {
			_, csp := obs.StartSpanCtxAt(qctx, rec, "batch.cache", pickup, "tier", "disk")
			csp.End()
			ch.charge(obs.StageCache, time.Since(pickup), resp.InputTokens+resp.OutputTokens, true)
		}
		return done(Outcome{Response: resp, Cached: true}, "disk")
	}
	return done(e.attempt(qctx, r, rec, digest, live, ch))
}

// attempt runs the budget guard and the rate-paced retry loop for one
// request, returning the outcome and its metric label. ctx carries the
// query's span/ledger values (do grafted them), so spans opened
// here — backoff, breaker verdict, attempt N — nest under the
// batch.request span and charges land on the query's ledger.
func (e *Executor) attempt(ctx context.Context, r Request, rec obs.Recorder, digest string, live bool, ch *charger) (Outcome, string) {
	if !e.underBudget() {
		e.log(logLine{ID: r.ID, PromptSHA256: digest, Error: ErrBudgetExhausted.Error()})
		return Outcome{Err: ErrBudgetExhausted}, "skipped"
	}

	var lastErr error
	for attempt := 1; attempt <= e.cfg.MaxRetries+1; attempt++ {
		if attempt > 1 {
			rec.Add(metricBatchRetries, 1)
			delay := llm.RetryBackoff(e.cfg.RetryDelay, e.cfg.MaxRetryDelay, attempt-1)
			var bsp *obs.Span
			if live {
				_, bsp = obs.StartSpanCtx(ctx, rec, "batch.backoff", "attempt", fmt.Sprint(attempt))
			}
			select {
			case <-time.After(delay):
				bsp.End()
				ch.charge(obs.StageBackoff, delay, 0, true)
			case <-ctx.Done():
				bsp.End()
				rec.Add(metricBatchAborts, 1, "reason", abortReason(ctx.Err()))
				return Outcome{Err: ctx.Err(), Attempts: attempt - 1}, "aborted"
			}
		}
		// Breaker guard: while the circuit is open the request fails
		// fast, leaving graceful degradation (surrogate fallback) to the
		// caller instead of queuing behind a backend presumed down.
		if e.brk != nil {
			if err := e.brk.Allow(); err != nil {
				if live {
					_, vsp := obs.StartSpanCtx(ctx, rec, "batch.breaker", "verdict", "open")
					vsp.End()
					ch.charge(obs.StageBreaker, 0, 0, true)
				}
				e.log(logLine{ID: r.ID, PromptSHA256: digest, Attempts: attempt - 1, Error: err.Error()})
				return Outcome{Err: err, Attempts: attempt - 1}, "rejected"
			}
		}
		if e.cfg.QPS > 0 {
			var tstart time.Time
			if live {
				tstart = time.Now()
			}
			if err := e.pace(ctx); err != nil {
				e.cancelBreaker() // pacing abort says nothing about the backend
				rec.Add(metricBatchAborts, 1, "reason", abortReason(err))
				return Outcome{Err: err, Attempts: attempt - 1}, "aborted"
			}
			rec.Add(metricBatchThrottled, 1)
			if live {
				ch.charge(obs.StageThrottle, time.Since(tstart), 0, true)
			}
		}
		var start time.Time
		actx := ctx
		var asp *obs.Span
		if live {
			start = time.Now()
			actx, asp = obs.StartSpanCtx(ctx, rec, "batch.attempt", "n", fmt.Sprint(attempt))
		}
		resp, err := e.query(actx, r.Prompt)
		if live {
			wall := time.Since(start)
			rec.Observe(metricBatchAttempt, wall.Seconds())
			if err == nil {
				asp.SetAttr("outcome", "ok")
				ch.charge(obs.StagePredict, wall, resp.InputTokens+resp.OutputTokens, true)
			} else {
				asp.SetAttr("outcome", "error")
				// Failed attempts are serial wall-clock on this query's
				// path, but they bought nothing: billed time, zero
				// tokens, under the retry stage.
				ch.charge(obs.StageRetry, wall, 0, true)
			}
			asp.End()
		}
		if err == nil {
			e.reportBreaker(true)
			e.spent.Add(int64(resp.InputTokens + resp.OutputTokens))
			rec.Add(metricBatchTokens, float64(resp.InputTokens+resp.OutputTokens))
			if e.cfg.Disk != nil {
				// Write-through is best-effort: a full or failing disk
				// loses persistence, not the (already correct) answer.
				_ = e.cfg.Disk.Put(promptcache.KeyOf(e.cfg.CacheNamespace, r.Prompt), resp)
			}
			e.log(logLine{
				ID: r.ID, PromptSHA256: digest,
				InputTokens: resp.InputTokens, OutputTokens: resp.OutputTokens,
				Category: resp.Category, Attempts: attempt,
			})
			return Outcome{Response: resp, Attempts: attempt}, "ok"
		}
		lastErr = err
		if ctx.Err() != nil {
			// The batch was canceled mid-call; not the backend's fault.
			e.cancelBreaker()
			rec.Add(metricBatchAborts, 1, "reason", abortReason(ctx.Err()))
			return Outcome{Err: ctx.Err(), Attempts: attempt}, "aborted"
		}
		if errors.Is(err, ErrQueryTimeout) {
			rec.Add(metricBatchTimeouts, 1)
			e.reportBreaker(false)
			continue
		}
		if llm.ClientFault(err) {
			// The request's fault, not the backend's: neither retried
			// nor counted toward the breaker.
			e.cancelBreaker()
			e.log(logLine{ID: r.ID, PromptSHA256: digest, Attempts: attempt, Error: err.Error()})
			return Outcome{Err: err, Attempts: attempt}, "error"
		}
		e.reportBreaker(false)
	}
	e.log(logLine{ID: r.ID, PromptSHA256: digest, Attempts: e.cfg.MaxRetries + 1, Error: lastErr.Error()})
	return Outcome{
		Err:      fmt.Errorf("batch: request %q failed after %d attempts: %w", r.ID, e.cfg.MaxRetries+1, lastErr),
		Attempts: e.cfg.MaxRetries + 1,
	}, "error"
}

// diskGet consults the persistent tier, when configured.
func (e *Executor) diskGet(prompt string) (llm.Response, bool) {
	if e.cfg.Disk == nil {
		return llm.Response{}, false
	}
	return e.cfg.Disk.Get(promptcache.KeyOf(e.cfg.CacheNamespace, prompt))
}

// reportBreaker feeds a call outcome to the breaker when one exists.
func (e *Executor) reportBreaker(success bool) {
	if e.brk != nil {
		e.brk.Report(success)
	}
}

// cancelBreaker releases an admitted request without a health verdict.
func (e *Executor) cancelBreaker() {
	if e.brk != nil {
		e.brk.Cancel()
	}
}

// BreakerState reports the circuit breaker's current position;
// BreakerClosed when no breaker is configured.
func (e *Executor) BreakerState() BreakerState {
	if e.brk == nil {
		return BreakerClosed
	}
	return e.brk.State()
}

// query runs one predictor attempt (llm.Ask) under the per-query
// deadline, the only deadline in the stack. The call runs under a
// watchdog that gives up on it when QueryTimeout passes: a
// ContextPredictor is canceled through the deadline's context and
// returns, while a Query-only call finishes, or parks, in the
// background.
func (e *Executor) query(ctx context.Context, promptText string) (llm.Response, error) {
	if e.cfg.QueryTimeout <= 0 {
		return llm.Ask(ctx, e.p, promptText)
	}
	qctx, cancel := context.WithTimeout(ctx, e.cfg.QueryTimeout)
	defer cancel()
	type qresult struct {
		resp llm.Response
		err  error
	}
	ch := make(chan qresult, 1)
	go func() {
		resp, err := llm.Ask(qctx, e.p, promptText)
		ch <- qresult{resp, err}
	}()
	select {
	case r := <-ch:
		// A call that failed because the deadline passed (a
		// ContextPredictor canceled through qctx) is a timeout too.
		if r.err == nil || qctx.Err() == nil || ctx.Err() != nil {
			return r.resp, r.err
		}
	case <-qctx.Done():
		if ctx.Err() != nil {
			return llm.Response{}, ctx.Err()
		}
	}
	return llm.Response{}, fmt.Errorf("%w after %v", ErrQueryTimeout, e.cfg.QueryTimeout)
}
