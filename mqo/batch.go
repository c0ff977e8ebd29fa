package mqo

import (
	"repro/internal/batch"
	"repro/internal/llm"
)

// BatchRequest is one prompt to execute with an opaque caller ID.
type BatchRequest = batch.Request

// BatchConfig tunes concurrent batch execution: workers, QPS, token
// budget, per-call timeout, breaker, disk answer cache, JSONL audit
// log. The executor asks each request once; an HTTPPredictor retries
// its own transient failures.
type BatchConfig = batch.Config

// BatchOutcome is one request's result (response or error, cache flag,
// attempt count).
type BatchOutcome = batch.Outcome

// BatchResult aggregates a batch: per-request outcomes, tokens spent,
// cache hits, failures, budget skips.
type BatchResult = batch.Result

// BatchExecutor runs query batches against one predictor under
// operational constraints.
type BatchExecutor = batch.Executor

// ErrBudgetExhausted marks queries refused because the batch token
// budget was already spent.
var ErrBudgetExhausted = batch.ErrBudgetExhausted

// ErrQueryTimeout marks predictor calls abandoned because they
// outlived the per-query deadline (Options.QueryTimeout).
var ErrQueryTimeout = batch.ErrQueryTimeout

// ErrCircuitOpen marks queries rejected fast because the circuit
// breaker judged the backend down (Options.Breaker).
var ErrCircuitOpen = batch.ErrCircuitOpen

// BreakerConfig configures the circuit breaker guarding the predictor;
// the zero value disables it.
type BreakerConfig = batch.BreakerConfig

// ContextPredictor is a Predictor whose calls can be canceled via a
// context; HTTP predictors implement it, and the executor's
// QueryTimeout path uses it to abandon hung calls promptly.
type ContextPredictor = llm.ContextPredictor

// FaultConfig parameterizes deterministic fault injection for chaos
// testing: seeded per-prompt error/hang/garbage schedules.
type FaultConfig = llm.FaultConfig

// FaultStats counts the faults a FaultInjector has injected.
type FaultStats = llm.FaultStats

// FaultInjector wraps a predictor with a deterministic fault schedule
// keyed on hash(seed, prompt): chaos runs reproduce bit-for-bit at any
// worker count.
type FaultInjector = llm.FaultInjector

// NewFaultInjector validates cfg and wraps p with fault injection.
func NewFaultInjector(p Predictor, cfg FaultConfig) (*FaultInjector, error) {
	return llm.NewFaultInjector(p, cfg)
}

// NewBatchExecutor builds a concurrent executor over p, which its
// workers call concurrently (see Predictor).
func NewBatchExecutor(p Predictor, cfg BatchConfig) (*BatchExecutor, error) {
	return batch.New(p, cfg)
}

var _ llm.Predictor = (*llm.Sim)(nil) // facade sanity: Sim satisfies Predictor
