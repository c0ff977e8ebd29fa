// Package batch executes large sets of LLM queries against real-world
// API constraints: bounded concurrency, rate limits, failing backends,
// a hard token budget, a persistent answer cache and a JSONL audit
// log. It is the operational layer under the paper's multi-query
// optimization: Algorithm 1/2 decide *what* to ask; this package gets
// the batch asked reliably and within budget.
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
	// BudgetTokens, when > 0, is a hard cap on total tokens
	// (input + output) spent by this executor, across every Execute
	// and Do call — all rounds of a boosted run, not each round.
	// Queries that would start after the cap is reached fail with
	// ErrBudgetExhausted instead of spending money.
	BudgetTokens int
	// QueryTimeout, when > 0, bounds the one predictor call each
	// request makes, including any retries or failover the predictor
	// runs inside it. A call that outlives the deadline fails with
	// ErrQueryTimeout instead of stalling its worker: predictors
	// implementing llm.ContextPredictor are canceled mid-flight, and a
	// Query-only call is left to finish — or park — in the background.
	QueryTimeout time.Duration
	// Breaker guards the predictor with a circuit breaker; the zero
	// value (Threshold 0) disables it. While the circuit is open,
	// requests fail fast with ErrCircuitOpen rather than queue behind a
	// backend that is presumed down.
	Breaker BreakerConfig
	// Disk, when non-nil, adds a persistent answer store: every
	// request's prompt is looked up there before paying for a predictor
	// call, and fresh answers are written through to it, so a prompt
	// asked again — later in a call, in a later call or in a later
	// run — is answered from disk. It is what a stopped batch resumes
	// from: asked again over the same Disk, every request already paid
	// for comes back Cached, with the tokens it cost.
	Disk *promptcache.Cache
	// CacheNamespace partitions the disk cache by answer function;
	// empty derives it from the predictor (promptcache.Namespace), which
	// folds in the model identity, its seed and the prompt-template
	// version. Plan execution sets it to core.ExecConfig.CacheNamespace,
	// which adds the compression version.
	CacheNamespace string
	// Log, when non-nil, receives one JSON line per query outcome: an
	// audit trail, written and never read back. Prompts are logged as
	// SHA-256 digests, never as raw text.
	Log io.Writer
	// Obs receives executor metrics (request outcomes, throttle waits,
	// in-flight gauge, per-call latency); nil routes to the
	// process-default recorder.
	Obs obs.Recorder
}

// ErrBudgetExhausted marks queries skipped because the token budget was
// already spent.
var ErrBudgetExhausted = errors.New("batch: token budget exhausted")

// ErrQueryTimeout marks predictor calls that outlived
// Config.QueryTimeout. Like any failed call it is final at the
// executor: it counts toward opening the circuit breaker, and a
// caller's fallback answers it.
var ErrQueryTimeout = errors.New("batch: query timed out")

// Outcome is the result of one request.
type Outcome struct {
	Response llm.Response
	Err      error
	// Cached reports that no predictor call was paid for this request:
	// the answer came from Disk.
	Cached bool
	// Attempts counts predictor calls made for this request: 1, or 0
	// when cached, skipped or refused before the call.
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
	// nextSlot, under paceMu, the earliest instant the next predictor
	// call may start.
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
	if cfg.Workers < 0 || cfg.QPS < 0 || cfg.BudgetTokens < 0 ||
		cfg.QueryTimeout < 0 || cfg.Breaker.Threshold < 0 {
		return nil, fmt.Errorf("batch: negative config value: %+v", cfg)
	}
	if cfg.Workers == 0 {
		cfg.Workers = 4
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

// pace blocks until the caller's turn under QPS: each predictor call
// reserves the next free slot, interval after the one before it,
// whichever Execute or Do call it belongs to. It returns ctx's error if ctx ends first.
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

// log writes one audit line for the request with prompt p, which it
// digests; write errors are remembered and surfaced by the next
// Execute call rather than dropped.
func (e *Executor) log(p string, l logLine) {
	if e.cfg.Log == nil {
		return
	}
	l.Time = time.Now().UTC().Format(time.RFC3339Nano)
	l.PromptSHA256 = promptDigest(p)
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

// FanOut runs f(i) for every i < n on up to workers goroutines, which
// take indices from one atomic counter in order, and returns when every
// call has. It runs inline, in index order, when workers <= 1 or
// n <= 1. Callers write f's results into pre-sized slices by index, so
// the outcome does not depend on which goroutine ran which index.
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
			}
		}()
	}
	wg.Wait()
}

// Do runs one request on the caller's goroutine — disk lookup, budget
// guard, breaker, QPS pacing and one predictor call, counted in the
// in-flight gauge — and returns its outcome. Concurrent Do and Execute
// calls share the executor's breaker, budget and pacing. A prompt
// asked twice is paid twice unless Disk already holds the first
// answer.
func (e *Executor) Do(ctx context.Context, r Request) Outcome {
	return e.do(ctx, r, obs.Active(e.cfg.Obs))
}

// Execute runs all requests and returns per-request outcomes. It only
// returns a top-level error for setup problems (nil context, duplicate
// IDs) or a failing audit log; per-query failures are reported in
// Outcomes so one bad query cannot void a 10,000-query batch. Requests
// run on up to Workers goroutines, each through Do's path.
func (e *Executor) Execute(ctx context.Context, reqs []Request) (*Result, error) {
	if ctx == nil {
		return nil, errors.New("batch: nil context")
	}
	seen := make(map[string]bool, len(reqs))
	for _, r := range reqs {
		if seen[r.ID] {
			return nil, fmt.Errorf("batch: duplicate request ID %q", r.ID)
		}
		seen[r.ID] = true
	}

	outs := make([]Outcome, len(reqs))
	rec := obs.Active(e.cfg.Obs)
	// Each request runs, or — once ctx has ended — settles undispatched
	// with its own audit line.
	FanOut(len(reqs), e.cfg.Workers, func(i int) {
		r := reqs[i]
		if err := ctx.Err(); err != nil {
			outs[i] = Outcome{Err: err}
			e.log(r.Prompt, logLine{ID: r.ID, Error: err.Error()})
			rec.Add(metricBatchRequests, 1, "outcome", "undispatched")
			return
		}
		outs[i] = e.do(ctx, r, rec)
	})

	res := &Result{Outcomes: make(map[string]Outcome, len(reqs))}
	for i, o := range outs {
		res.Outcomes[reqs[i].ID] = o
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
	e.logMu.Lock()
	logErr := e.logErr
	e.logMu.Unlock()
	if logErr != nil {
		return res, fmt.Errorf("batch: audit log failed: %w", logErr)
	}
	return res, nil
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
// guard, one rate-paced predictor call, write-through — counted in the
// in-flight gauge, and returns its outcome.
func (e *Executor) do(ctx context.Context, r Request, rec obs.Recorder) Outcome {
	e.noteInflight(rec, 1)
	defer e.noteInflight(rec, -1)
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
	done := func(o Outcome, outcome string) Outcome {
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
		return o
	}
	var key promptcache.Key
	if e.cfg.Disk != nil {
		key = promptcache.KeyOf(e.cfg.CacheNamespace, r.Prompt)
		if resp, ok := e.cfg.Disk.Get(key); ok {
			// An earlier request, call or run already paid for this
			// prompt. The cache charge carries the response's token
			// count: the caller's meter counts cached answers, so the
			// ledger must bill them to a stage.
			e.log(r.Prompt, logLine{ID: r.ID, Category: resp.Category, Cached: true})
			if live {
				_, csp := obs.StartSpanCtxAt(qctx, rec, "batch.cache", pickup, "tier", "disk")
				csp.End()
				ch.charge(obs.StageCache, time.Since(pickup), resp.InputTokens+resp.OutputTokens, true)
			}
			return done(Outcome{Response: resp, Cached: true}, "disk")
		}
	}
	o, outcome := e.attempt(qctx, r, rec, live, ch)
	if o.Err == nil && e.cfg.Disk != nil {
		// Write-through is best-effort: a full or failing disk loses
		// persistence, not the (already correct) answer.
		_ = e.cfg.Disk.Put(key, o.Response)
	}
	return done(o, outcome)
}

// attempt runs the budget guard, the breaker, QPS pacing and the one
// predictor call for a request, returning the outcome and its metric
// label. ctx carries the query's span/ledger values (do grafted them),
// so spans opened here nest under the batch.request span and charges
// land on the query's ledger. A failed call is final here: the HTTP
// client retries a transient wire failure, a replica pool fails over
// to its next replica, and the caller's fallback answers what is left.
func (e *Executor) attempt(ctx context.Context, r Request, rec obs.Recorder, live bool, ch *charger) (Outcome, string) {
	if !e.underBudget() {
		e.log(r.Prompt, logLine{ID: r.ID, Error: ErrBudgetExhausted.Error()})
		return Outcome{Err: ErrBudgetExhausted}, "skipped"
	}
	// Breaker guard: while the circuit is open the request fails fast,
	// leaving graceful degradation (surrogate fallback) to the caller
	// instead of queuing behind a backend presumed down.
	if e.brk != nil {
		if err := e.brk.Allow(); err != nil {
			if live {
				_, vsp := obs.StartSpanCtx(ctx, rec, "batch.breaker", "verdict", "open")
				vsp.End()
				ch.charge(obs.StageBreaker, 0, 0, true)
			}
			e.log(r.Prompt, logLine{ID: r.ID, Error: err.Error()})
			return Outcome{Err: err}, "rejected"
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
			return Outcome{Err: err}, "aborted"
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
		actx, asp = obs.StartSpanCtx(ctx, rec, "batch.attempt")
	}
	resp, err := e.query(actx, r.Prompt)
	if live {
		wall := time.Since(start)
		rec.Observe(metricBatchAttempt, wall.Seconds())
		outcome, tokens := "ok", resp.InputTokens+resp.OutputTokens
		if err != nil {
			// A failed call is serial wall-clock on this query's path
			// that bought nothing: billed time, zero tokens.
			outcome, tokens = "error", 0
		}
		asp.SetAttr("outcome", outcome)
		ch.charge(obs.StagePredict, wall, tokens, true)
		asp.End()
	}
	switch {
	case err == nil:
		e.reportBreaker(true)
		e.spent.Add(int64(resp.InputTokens + resp.OutputTokens))
		rec.Add(metricBatchTokens, float64(resp.InputTokens+resp.OutputTokens))
		e.log(r.Prompt, logLine{
			ID: r.ID, InputTokens: resp.InputTokens, OutputTokens: resp.OutputTokens,
			Category: resp.Category, Attempts: 1,
		})
		return Outcome{Response: resp, Attempts: 1}, "ok"
	case ctx.Err() != nil:
		// The batch was canceled mid-call; not the backend's fault.
		e.cancelBreaker()
		rec.Add(metricBatchAborts, 1, "reason", abortReason(ctx.Err()))
		return Outcome{Err: ctx.Err(), Attempts: 1}, "aborted"
	case llm.ClientFault(err):
		// The request's fault, not the backend's: it does not count
		// toward the breaker.
		e.cancelBreaker()
	default:
		if errors.Is(err, ErrQueryTimeout) {
			rec.Add(metricBatchTimeouts, 1)
		}
		e.reportBreaker(false)
	}
	e.log(r.Prompt, logLine{ID: r.ID, Attempts: 1, Error: err.Error()})
	return Outcome{Err: err, Attempts: 1}, "error"
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

// query runs the request's predictor call (llm.Ask) under the
// per-query deadline. The call runs under a watchdog that gives up on
// it when QueryTimeout passes: a ContextPredictor is canceled through
// the deadline's context and returns, while a Query-only call
// finishes, or parks, in the background. The deadline covers the whole
// call, retries and failover below it included; an HTTPPredictor also
// bounds each of its round trips with HTTPConfig.Timeout.
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
