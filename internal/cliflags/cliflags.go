// Package cliflags defines the flag groups the commands share. Exec
// binds the execution knobs (core.Knobs: concurrency, rate limiting,
// per-query deadlines, the circuit breaker, the replica pool and
// prompt compression) plus the deployment and observability flags
// that mqorun, mqobench and llmserve all take. Registering one group
// from one place keeps the CLIs' flags in lockstep with each other and
// with the scenario JSON — mqobench once silently lacked the -breaker
// flags mqorun had — and the parity test over core.Knobs turns that
// class of drift into a test failure.
package cliflags

import (
	"flag"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Exec holds the shared execution flags after parsing: the knobs, plus
// the prompt-cache and observability settings that belong to a
// deployment rather than to a plan.
type Exec struct {
	core.Knobs
	CacheDir      string
	CacheMaxBytes int64
	CacheTTL      time.Duration
	TraceSample   float64
	SLOLatencyP99 time.Duration
}

// Register installs the shared flag group on fs. Call before fs.Parse;
// the receiver's fields carry the parsed values afterwards. The
// receiver's knob values are the flag defaults, except that a zero
// Workers or Replicas defaults to 1 — so a command whose tier wants a
// different default (llmserve's four window workers) presets it.
func (e *Exec) Register(fs *flag.FlagSet) {
	k := &e.Knobs
	fs.IntVar(&k.Workers, "workers", atLeastOne(k.Workers), "concurrent LLM queries (results are identical for any value)")
	fs.Float64Var(&k.QPS, "qps", k.QPS, "max queries per second across all workers (0 = unlimited)")
	fs.DurationVar(&k.QueryTimeout, "query-timeout", k.QueryTimeout, "per-query deadline; hung calls are abandoned (0 = none)")
	fs.IntVar(&k.Breaker, "breaker", k.Breaker, "consecutive transient failures that open the circuit breaker (0 = disabled)")
	fs.DurationVar(&k.BreakerCooldown, "breaker-cooldown", k.BreakerCooldown, "how long the breaker stays open before probing (0 = 30s default)")
	fs.IntVar(&k.Replicas, "replicas", atLeastOne(k.Replicas), "replica slots in the predictor pool; > 1 enables health-aware routing with one breaker per replica")
	fs.BoolVar(&k.Hedge, "hedge", k.Hedge, "race a second replica when the first outlives -hedge-after (needs -replicas > 1)")
	fs.DurationVar(&k.HedgeAfter, "hedge-after", k.HedgeAfter, "hedge trigger delay (0 = 50ms default)")
	fs.BoolVar(&k.Affinity, "affinity", k.Affinity, "route each prompt to its cache-affine replica (rendezvous over prompt-cache keys; falls back to P2C when the owner is ejected or overloaded; needs -replicas > 1)")
	fs.IntVar(&k.Compress, "compress", k.Compress, "prompt-compression level 1..3: rank abstract spans by signal density and keep at most 4/2/1 per abstract (0 = off; versions the prompt-cache namespace)")
	fs.IntVar(&k.TargetTokens, "target-tokens", k.TargetTokens, "per-query compressed token budget; sparsest spans keep dropping until each prompt fits (0 = level caps only; implies -compress 1)")
	fs.StringVar(&e.CacheDir, "cache-dir", "", "persistent prompt-cache directory (empty = no disk cache)")
	fs.Int64Var(&e.CacheMaxBytes, "cache-max-bytes", 0, "prompt-cache byte budget across shards (0 = unbounded)")
	fs.DurationVar(&e.CacheTTL, "cache-ttl", 0, "prompt-cache entry lifetime (0 = never expires)")
	fs.Float64Var(&e.TraceSample, "trace-sample", 1, "fraction of query traces recorded with span trees and ledgers (0 = none, 1 = all)")
	fs.DurationVar(&e.SLOLatencyP99, "slo-latency-p99", 0, "per-query p99 latency objective for the SLO engine (0 = disabled)")
}

func atLeastOne(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// ApplyObs lowers the tracing/SLO flags onto a registry: the sampling
// rate always, the SLO only when an objective is set (the engine stays
// unconfigured otherwise and /debug/slo reports so).
func (e *Exec) ApplyObs(r *obs.Registry) {
	if r == nil {
		return
	}
	r.SetTraceSample(e.TraceSample)
	if e.SLOLatencyP99 > 0 {
		r.SetSLO(obs.SLO{Name: "query_latency_p99", Objective: e.SLOLatencyP99, Percentile: 0.99})
	}
}
