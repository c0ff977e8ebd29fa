package main

import (
	"context"
	"sync"
	"time"

	"repro/internal/llm"
	"repro/internal/predictors"
	"repro/internal/tag"
)

// durations is a concurrency-safe log of call durations.
type durations struct {
	mu sync.Mutex
	d  []time.Duration
}

func (l *durations) add(d time.Duration) {
	l.mu.Lock()
	l.d = append(l.d, d)
	l.mu.Unlock()
}

func (l *durations) reset() {
	l.mu.Lock()
	l.d = nil
	l.mu.Unlock()
}

func (l *durations) snapshot() []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]time.Duration(nil), l.d...)
}

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// timedMethod times every neighbor selection the program makes. A
// traced run hands it to the program in place of the bare method.
type timedMethod struct {
	predictors.Method
	log *durations
}

// Select implements predictors.Method.
func (m timedMethod) Select(ctx *predictors.Context, v tag.NodeID) []predictors.Selected {
	start := time.Now()
	sel := m.Method.Select(ctx, v)
	m.log.add(time.Since(start))
	return sel
}

// timedPredictor times every predictor call. It forwards the inner
// identity, so cache namespaces and pool placement are unchanged, and
// the context path, so cancellation reaches the inner predictor.
type timedPredictor struct {
	inner llm.Predictor
	log   *durations
}

func (t *timedPredictor) Name() string     { return t.inner.Name() }
func (t *timedPredictor) Identity() string { return llm.IdentityOf(t.inner) }

func (t *timedPredictor) Query(promptText string) (llm.Response, error) {
	start := time.Now()
	resp, err := t.inner.Query(promptText)
	t.log.add(time.Since(start))
	return resp, err
}

func (t *timedPredictor) QueryContext(ctx context.Context, promptText string) (llm.Response, error) {
	cp, ok := t.inner.(llm.ContextPredictor)
	if !ok {
		return t.Query(promptText)
	}
	start := time.Now()
	resp, err := cp.QueryContext(ctx, promptText)
	t.log.add(time.Since(start))
	return resp, err
}

// probe holds a traced run's wrappers: the method, the predictor the
// program is handed (outer: for serve-* it includes the simulated
// backend latency) and the simulator itself (inner).
type probe struct {
	selects, outer, inner durations
}

// reset drops what set-up recorded, so the logs cover the measured
// interval only.
func (pr *probe) reset() {
	pr.selects.reset()
	pr.outer.reset()
	pr.inner.reset()
}

// timed wraps p so log records the duration of every call.
func timed(p llm.Predictor, log *durations) llm.Predictor {
	return &timedPredictor{inner: p, log: log}
}
