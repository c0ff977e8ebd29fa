package mqo

import (
	"repro/internal/pool"
)

// Pool is an llm-compatible predictor that fans queries across N
// replica backends with health-aware (power-of-two-choices) routing,
// per-replica circuit breakers and optional hedged requests. Most
// callers reach it through Options.Replicas / Options.ReplicaSet; the
// type is exported for direct use with NewBatchExecutor.
type Pool = pool.Pool

// PoolConfig tunes a Pool: the routing scorer, hedging, per-replica
// breakers, routing seed and metrics sink.
type PoolConfig = pool.Config

// Scorer ranks the replica set for each routing attempt; see
// PoolConfig.Scorer. Options.Affinity is the high-level switch — the
// aliases below are for callers wiring a Pool directly.
type Scorer = pool.Scorer

// P2CScorer is the default power-of-two-choices policy: two random
// candidates, lower latency×load score wins.
type P2CScorer = pool.P2C

// AffinityScorer pins each prompt-cache key to its rendezvous owner in
// the replica set, so warm per-replica caches never pay cold-replica
// tokens; routing degrades to P2C only while the owner's breaker
// refuses it. The zero value is ready to use.
type AffinityScorer = pool.Affinity

// NewPool builds a replica pool over the given backends. The same
// predictor value may appear several times; each slot keeps its own
// breaker and health state.
func NewPool(replicas []Predictor, cfg PoolConfig) (*Pool, error) {
	return pool.New(replicas, cfg)
}
