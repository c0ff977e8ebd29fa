package core

import (
	"fmt"
	"time"

	"repro/internal/batch"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/prompt"
)

// Knobs is the one declaration of the execution knobs every front end
// exposes: the mqorun/mqobench/llmserve flags (internal/cliflags), the
// facade's mqo.Options, the load harness's scenario topology and the
// experiments' Config all embed it. The paper's strategies are plug-
// and-play over any method and predictor, so these knobs are
// independent of them: they only shape how a plan's queries reach the
// backend. Every field is a scalar, so Knobs compares with == and
// round-trips through JSON exactly; the JSON name (with "_" → "-") is
// also the flag name.
type Knobs struct {
	// Workers is the number of concurrent in-flight LLM queries; 0 or 1
	// is serial. With an order-independent predictor any value yields
	// bit-identical predictions and token totals.
	Workers int `json:"workers,omitempty"`
	// QPS caps the dispatch rate across all workers; 0 is unlimited.
	QPS float64 `json:"qps,omitempty"`
	// QueryTimeout bounds each predictor call (per attempt); 0 means no
	// deadline. A hung call is abandoned so it cannot stall the plan.
	QueryTimeout time.Duration `json:"query_timeout,omitempty"`
	// Breaker is the number of consecutive transient failures that
	// opens the circuit breaker; 0 disables it. With pooling it
	// configures the per-replica breakers instead of a global one.
	Breaker int `json:"breaker,omitempty"`
	// BreakerCooldown is how long an open breaker waits before probing
	// (0 = the 30s default).
	BreakerCooldown time.Duration `json:"breaker_cooldown,omitempty"`
	// Replicas, when > 1, pools the predictor as that many replica
	// slots behind health-aware routing with one breaker per replica.
	Replicas int `json:"replicas,omitempty"`
	// Hedge races a second replica when the first outlives HedgeAfter
	// (0 = the 50ms pool default). Needs Replicas >= 2.
	Hedge      bool          `json:"hedge,omitempty"`
	HedgeAfter time.Duration `json:"hedge_after,omitempty"`
	// Affinity routes each prompt to its cache-affine replica
	// (rendezvous over prompt-cache keys), falling back to P2C when the
	// owner is ejected or overloaded. Needs Replicas >= 2.
	Affinity bool `json:"affinity,omitempty"`
	// Compress (level 1..prompt.MaxCompressLevel) enables the prompt-
	// compression stage; TargetTokens additionally caps each compressed
	// prompt's token count and implies level 1. Compression versions
	// the prompt-cache namespace.
	Compress     int `json:"compress,omitempty"`
	TargetTokens int `json:"target_tokens,omitempty"`
}

// Validate is the one home for the knobs' range checks: no negative
// count, rate or duration, a compression level the stage implements,
// and hedging or affinity only over a pool of at least two replicas.
func (k Knobs) Validate() error {
	switch {
	case k.Workers < 0, k.Breaker < 0, k.Replicas < 0, k.TargetTokens < 0:
		return fmt.Errorf("knobs: workers, breaker, replicas and target_tokens must be >= 0: %+v", k)
	case k.QPS < 0:
		return fmt.Errorf("knobs: qps %v must be >= 0", k.QPS)
	case k.QueryTimeout < 0, k.BreakerCooldown < 0, k.HedgeAfter < 0:
		return fmt.Errorf("knobs: query_timeout, breaker_cooldown and hedge_after must be >= 0: %+v", k)
	case k.Compress < 0 || k.Compress > prompt.MaxCompressLevel:
		return fmt.Errorf("knobs: compress %d outside 0..%d", k.Compress, prompt.MaxCompressLevel)
	case (k.Hedge || k.Affinity) && k.Replicas < 2:
		return fmt.Errorf("knobs: hedge and affinity need replicas >= 2 (have %d)", k.Replicas)
	}
	return nil
}

// ExecConfig lowers the knobs into the executor configuration. Fields
// the knobs do not cover (caches, budgets, fallback, explicit replica
// sets) stay zero for the caller to layer on.
func (k Knobs) ExecConfig() ExecConfig {
	return ExecConfig{
		Workers:      k.Workers,
		QPS:          k.QPS,
		QueryTimeout: k.QueryTimeout,
		Breaker:      batch.BreakerConfig{Threshold: k.Breaker, Cooldown: k.BreakerCooldown},
		ReplicaCount: k.Replicas,
		Hedge:        k.Hedge,
		HedgeAfter:   k.HedgeAfter,
		Affinity:     k.Affinity,
		Compress:     prompt.Compressor{Level: k.Compress, TargetTokens: k.TargetTokens},
	}
}

// PoolConfig lowers the hedge, affinity and breaker settings into the
// replica pool's configuration — the one lowering behind both plan
// execution and llmserve's upstream proxy pool.
func (cfg ExecConfig) PoolConfig(rec obs.Recorder) pool.Config {
	pcfg := pool.Config{
		Hedge:      cfg.Hedge,
		HedgeAfter: cfg.HedgeAfter,
		Breaker:    cfg.Breaker,
		Obs:        rec,
	}
	if cfg.Affinity {
		pcfg.Scorer = &pool.Affinity{}
	}
	return pcfg
}
