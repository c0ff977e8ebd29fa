package llm

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/xrand"
)

// newFaultRNG derives the per-prompt decision stream, keyed the same
// way as Sim's Gumbel noise: hash the prompt, fold in the seed.
func newFaultRNG(seed uint64, promptText string) *xrand.RNG {
	return xrand.New(seed ^ hash(promptText)).SplitString("fault")
}

// This file implements deterministic fault injection for chaos testing
// the execution pipeline. Real LLM backends fail in three ways the
// paper's algorithms never model: requests error out (rate limits,
// 5xx), requests hang (a stuck connection or an overloaded server), and
// requests return garbage (truncated or off-format completions). The
// FaultInjector reproduces all three as a pure function of
// hash(seed, prompt) — the same keying discipline as Sim's decision
// noise — so a chaos run is bit-for-bit reproducible: the same prompts
// fail the same way no matter how many workers dispatch the batch, in
// what order, or how often a prompt is retried.

// FaultConfig parameterizes a FaultInjector. The three rates partition
// the unit interval; their sum must not exceed 1. A prompt's fate is
// decided once from hash(Seed, prompt): every attempt at that prompt
// repeats the same fault, so retries against an injected error — or
// failover to another replica of the same injector — are futile by
// design (a permanently-failing prompt models a poisoned request, the
// case graceful degradation exists for).
type FaultConfig struct {
	// Seed keys the per-prompt fault schedule. Two injectors with the
	// same seed and config inject identical faults.
	Seed uint64
	// ErrorRate is the fraction of prompts that fail with a retryable
	// API error (status 503) instead of answering.
	ErrorRate float64
	// HangRate is the fraction of prompts that never answer: Query
	// blocks until the context is canceled (QueryContext) or until the
	// executor's watchdog abandons the call (plain Query).
	HangRate float64
	// GarbageRate is the fraction of prompts answered with an
	// off-template completion whose category matches no class — the
	// silent failure mode no error path catches.
	GarbageRate float64
	// MaxLatency, when > 0, adds a per-prompt deterministic delay drawn
	// uniformly from [0, MaxLatency) to every successful answer.
	MaxLatency time.Duration
}

// validate reports a configuration error, if any.
func (c FaultConfig) validate() error {
	for _, r := range []float64{c.ErrorRate, c.HangRate, c.GarbageRate} {
		if r < 0 || r > 1 {
			return fmt.Errorf("llm: fault rate %v outside [0,1]", r)
		}
	}
	if s := c.ErrorRate + c.HangRate + c.GarbageRate; s > 1 {
		return fmt.Errorf("llm: fault rates sum to %v > 1", s)
	}
	if c.MaxLatency < 0 {
		return fmt.Errorf("llm: negative MaxLatency %v", c.MaxLatency)
	}
	return nil
}

// FaultStats counts injected faults, readable while queries run.
type FaultStats struct {
	Errors  int64
	Hangs   int64
	Garbage int64
	Passed  int64
}

// FaultInjector wraps a predictor with a deterministic fault schedule.
// Its state is the fixed config plus atomic counters, so it is safe for
// concurrent use, and it implements ContextPredictor so injected hangs
// and latency end with the caller's context.
type FaultInjector struct {
	inner Predictor
	cfg   FaultConfig

	errors  atomic.Int64
	hangs   atomic.Int64
	garbage atomic.Int64
	passed  atomic.Int64
}

// NewFaultInjector validates cfg and wraps p.
func NewFaultInjector(p Predictor, cfg FaultConfig) (*FaultInjector, error) {
	if p == nil {
		return nil, fmt.Errorf("llm: nil predictor")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &FaultInjector{inner: p, cfg: cfg}, nil
}

// Name implements Predictor.
func (f *FaultInjector) Name() string { return f.inner.Name() + "+faults" }

// Identity implements Identifier. The fault schedule changes which
// answers come back (garbage fates replace real completions), so the
// injector's seed and rates are part of the answer-function identity —
// a cache filled during a chaos run can never leak into a clean one.
func (f *FaultInjector) Identity() string {
	return fmt.Sprintf("%s+faults(seed=%d,e=%g,h=%g,g=%g)",
		IdentityOf(f.inner), f.cfg.Seed, f.cfg.ErrorRate, f.cfg.HangRate, f.cfg.GarbageRate)
}

// Stats snapshots the injected-fault counters.
func (f *FaultInjector) Stats() FaultStats {
	return FaultStats{
		Errors:  f.errors.Load(),
		Hangs:   f.hangs.Load(),
		Garbage: f.garbage.Load(),
		Passed:  f.passed.Load(),
	}
}

// fault classifies one prompt's fate and its injected latency. The
// decision derives only from (Seed, prompt), never from call order or
// shared RNG state.
type faultKind int

const (
	faultNone faultKind = iota
	faultError
	faultHang
	faultGarbage
)

func (f *FaultInjector) fault(promptText string) (faultKind, time.Duration) {
	rng := newFaultRNG(f.cfg.Seed, promptText)
	u := rng.Float64()
	switch {
	case u < f.cfg.HangRate:
		return faultHang, 0
	case u < f.cfg.HangRate+f.cfg.ErrorRate:
		return faultError, 0
	case u < f.cfg.HangRate+f.cfg.ErrorRate+f.cfg.GarbageRate:
		return faultGarbage, 0
	}
	var latency time.Duration
	if f.cfg.MaxLatency > 0 {
		latency = time.Duration(rng.Float64() * float64(f.cfg.MaxLatency))
	}
	return faultNone, latency
}

// Query implements Predictor. An injected hang blocks forever; prefer
// QueryContext (the batch executor's timeout path uses it), which
// unblocks when the context ends.
func (f *FaultInjector) Query(promptText string) (Response, error) {
	return f.QueryContext(context.Background(), promptText)
}

// QueryContext implements ContextPredictor: it decides the prompt's
// fate from the seeded schedule, then either errors, hangs until the
// context ends, answers with garbage, or forwards to the inner
// predictor after the injected latency.
func (f *FaultInjector) QueryContext(ctx context.Context, promptText string) (Response, error) {
	kind, latency := f.fault(promptText)
	switch kind {
	case faultHang:
		f.hangs.Add(1)
		<-ctx.Done()
		return Response{}, ctx.Err()
	case faultError:
		f.errors.Add(1)
		return Response{}, &APIError{StatusCode: 503, Message: "injected fault"}
	case faultGarbage:
		f.garbage.Add(1)
		// A corrupted completion: parseable as text, matching no class.
		garbled := "I'm sorry, as an AI language model I cannot"
		return Response{
			Text:         garbled,
			Category:     garbled,
			InputTokens:  0,
			OutputTokens: 0,
		}, nil
	}
	if latency > 0 {
		t := time.NewTimer(latency)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return Response{}, ctx.Err()
		}
	}
	f.passed.Add(1)
	return Ask(ctx, f.inner, promptText)
}
