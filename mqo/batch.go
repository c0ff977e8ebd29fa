package mqo

import (
	"io"

	"repro/internal/batch"
	"repro/internal/llm"
)

// BatchRequest is one prompt to execute with an opaque caller ID.
type BatchRequest = batch.Request

// BatchConfig tunes concurrent batch execution: workers, QPS, retries,
// token budget, caching, JSONL audit log.
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

// NewBatchExecutor builds a concurrent executor over p. Wrap
// single-threaded predictors (like *Sim) with SerializePredictor.
func NewBatchExecutor(p Predictor, cfg BatchConfig) (*BatchExecutor, error) {
	return batch.New(p, cfg)
}

// SerializePredictor makes a single-threaded predictor safe for a
// concurrent BatchExecutor.
func SerializePredictor(p Predictor) Predictor { return batch.Serialize(p) }

// ReplayBatchLog recovers the successful outcomes recorded in a JSONL
// audit log, keyed by request ID — the checkpoint for resuming a
// crashed or budget-stopped batch without re-billing finished queries.
func ReplayBatchLog(r io.Reader) (map[string]Response, error) { return batch.ReplayLog(r) }

// FilterDoneRequests splits a request list into still-to-run requests
// and outcomes already recovered from a log replay.
func FilterDoneRequests(reqs []BatchRequest, done map[string]Response) ([]BatchRequest, map[string]BatchOutcome) {
	return batch.FilterDone(reqs, done)
}

var _ llm.Predictor = (*llm.Sim)(nil) // facade sanity: Sim satisfies Predictor
