package obs

import (
	"sort"
	"sync"
	"time"
)

// DefaultLedgerCapacity is the number of closed query ledgers a new
// registry retains for /debug/querytrace.
const DefaultLedgerCapacity = 256

// Canonical ledger stage names. Stages are open-ended strings — a new
// layer can charge a stage no one declared — but the built-in
// instrumentation sticks to this vocabulary so dashboards and the
// traceguard can rely on it.
const (
	StageQueue     = "queue"           // executor queue wait (submit → worker pickup)
	StageCache     = "cache"           // answer read from the prompt cache
	StagePredict   = "predict"         // the predictor call, failed ones with zero tokens
	StageBreaker   = "breaker"         // time lost to circuit-breaker rejections
	StageThrottle  = "throttle"        // QPS pacing wait
	StageExec      = "exec"            // executor overhead not in any stage above
	StageHedgeLoss = "hedge_loss"      // losing hedge attempts (never billed)
	StageCompress  = "prompt.compress" // prompt compression during planning (never billed)
)

// LedgerEntry is one charge against a query's ledger: wall-clock and
// tokens attributed to a stage. Billed marks the serial path — the
// charges that tile the query's span and sum to its metered token
// spend. A failed predictor call is serial, so it bills its wall-clock
// with zero tokens; hedge losers are recorded with Billed=false: real
// work, visible in the ledger, but outside the query's critical path.
type LedgerEntry struct {
	Stage  string        `json:"stage"`
	Wall   time.Duration `json:"wall_ns"`
	Tokens int           `json:"tokens,omitempty"`
	Billed bool          `json:"billed"`
}

// StageTotal is the per-(stage, billed) aggregate of a ledger.
type StageTotal struct {
	Stage  string        `json:"stage"`
	Billed bool          `json:"billed"`
	Wall   time.Duration `json:"wall_ns"`
	Tokens int           `json:"tokens,omitempty"`
}

// LedgerSnapshot is a closed ledger: the query's identity, its total
// wall-clock, and every charge.
type LedgerSnapshot struct {
	TraceID        string        `json:"trace_id"`
	Name           string        `json:"name"`
	Total          time.Duration `json:"total_ns"`
	BilledWall     time.Duration `json:"billed_wall_ns"`
	BilledTokens   int           `json:"billed_tokens"`
	UnbilledTokens int           `json:"unbilled_tokens"`
	Entries        []LedgerEntry `json:"entries"`
}

// Attribution is the fraction of the query's total wall-clock covered
// by billed stage charges (1 for zero-duration queries). The
// traceguard requires ≥0.9: anything lower means a layer is spending
// time no stage accounts for.
func (s LedgerSnapshot) Attribution() float64 {
	if s.Total <= 0 {
		return 1
	}
	f := float64(s.BilledWall) / float64(s.Total)
	if f > 1 {
		f = 1
	}
	return f
}

// StageTotals merges the entries per (stage, billed), deterministically
// ordered by stage then billed-first.
func (s LedgerSnapshot) StageTotals() []StageTotal {
	type k struct {
		stage  string
		billed bool
	}
	acc := map[k]*StageTotal{}
	for _, e := range s.Entries {
		key := k{e.Stage, e.Billed}
		t := acc[key]
		if t == nil {
			t = &StageTotal{Stage: e.Stage, Billed: e.Billed}
			acc[key] = t
		}
		t.Wall += e.Wall
		t.Tokens += e.Tokens
	}
	out := make([]StageTotal, 0, len(acc))
	for _, t := range acc {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stage != out[j].Stage {
			return out[i].Stage < out[j].Stage
		}
		return out[i].Billed && !out[j].Billed
	})
	return out
}

// Ledger accumulates per-stage charges for one query (one trace). It
// is created next to the query's root span, carried in the same
// context, charged by every layer the query passes through, and closed
// by the span's owner with the query's total duration. A nil *Ledger
// is a valid no-op, like a nil *Span.
//
// Charge is safe for concurrent use: hedge losers charge from their
// own goroutines, possibly after Close (their charge is then dropped —
// the books are already published).
type Ledger struct {
	rec     *Registry
	traceID string
	name    string

	mu      sync.Mutex
	entries []LedgerEntry
	closed  bool
}

// NewLedger opens a ledger on Active(rec) for the query named name in
// trace traceID. Returns nil (a no-op ledger) unless the active
// recorder is a *Registry.
func NewLedger(rec Recorder, traceID, name string) *Ledger {
	r, ok := Active(rec).(*Registry)
	if !ok {
		return nil
	}
	return &Ledger{rec: r, traceID: traceID, name: name}
}

// Charge adds one entry. Negative walls/tokens clamp to zero; charges
// after Close are dropped.
func (l *Ledger) Charge(stage string, wall time.Duration, tokens int, billed bool) {
	if l == nil || stage == "" {
		return
	}
	if wall < 0 {
		wall = 0
	}
	if tokens < 0 {
		tokens = 0
	}
	l.mu.Lock()
	if !l.closed {
		l.entries = append(l.entries, LedgerEntry{Stage: stage, Wall: wall, Tokens: tokens, Billed: billed})
	}
	l.mu.Unlock()
}

// BilledWall returns the billed wall-clock charged so far, letting a
// span owner compute the residual overhead charge (StageExec) that
// makes billed stages tile the whole span.
func (l *Ledger) BilledWall() time.Duration {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var sum time.Duration
	for _, e := range l.entries {
		if e.Billed {
			sum += e.Wall
		}
	}
	return sum
}

// Close publishes the ledger: aggregates into the mqo_trace_* metric
// families, feeds the slow-query log, and retains the snapshot for
// /debug/querytrace. It does not feed the SLO engine: the request's
// owner records one sample, traced or not (RecordSLO). total is the
// query's end-to-end duration (the root span's). Closing twice
// publishes once; the first close wins. Returns the published snapshot
// (zero for nil ledgers).
func (l *Ledger) Close(total time.Duration) LedgerSnapshot {
	if l == nil {
		return LedgerSnapshot{}
	}
	if total < 0 {
		total = 0
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return LedgerSnapshot{}
	}
	l.closed = true
	snap := LedgerSnapshot{
		TraceID: l.traceID,
		Name:    l.name,
		Total:   total,
		Entries: append([]LedgerEntry(nil), l.entries...),
	}
	l.mu.Unlock()

	for _, e := range snap.Entries {
		if e.Billed {
			snap.BilledWall += e.Wall
			snap.BilledTokens += e.Tokens
		} else {
			snap.UnbilledTokens += e.Tokens
		}
	}

	r := l.rec
	r.Add(metricTraceQueries, 1)
	r.Observe(metricTraceQuerySeconds, total.Seconds())
	for _, t := range snap.StageTotals() {
		billed := "false"
		if t.Billed {
			billed = "true"
		}
		r.Observe(metricTraceStageSeconds, t.Wall.Seconds(), "stage", t.Stage, "billed", billed)
		if t.Tokens > 0 {
			r.Add(metricTraceStageTokens, float64(t.Tokens), "stage", t.Stage, "billed", billed)
		}
	}
	r.ledgers.push(snap)
	return snap
}

// Metric families the ledger layer emits (catalog in README.md).
const (
	metricTraceQueries      = "mqo_trace_queries_total"
	metricTraceQuerySeconds = "mqo_trace_query_seconds"
	metricTraceStageSeconds = "mqo_trace_stage_seconds"
	metricTraceStageTokens  = "mqo_trace_stage_tokens_total"
)

// ledgerStore is the ring of recently closed ledgers plus the
// slow-query log wiring, all under one mutex.
type ledgerStore struct {
	mu   sync.Mutex
	ring ring[LedgerSnapshot]

	slowThresh time.Duration
	slowLog    *Logger
}

func (ls *ledgerStore) push(snap LedgerSnapshot) {
	ls.mu.Lock()
	ls.ring.push(snap)
	thresh, log := ls.slowThresh, ls.slowLog
	ls.mu.Unlock()

	if log != nil && thresh > 0 && snap.Total >= thresh {
		stages := make([]map[string]any, 0, len(snap.Entries))
		for _, t := range snap.StageTotals() {
			stages = append(stages, map[string]any{
				"stage": t.Stage, "billed": t.Billed,
				"wall_ms": float64(t.Wall.Microseconds()) / 1000,
				"tokens":  t.Tokens,
			})
		}
		log.Log("slow_query", map[string]any{
			"trace_id":      snap.TraceID,
			"name":          snap.Name,
			"total_ms":      float64(snap.Total.Microseconds()) / 1000,
			"billed_tokens": snap.BilledTokens,
			"attribution":   snap.Attribution(),
			"stages":        stages,
		})
	}
}

// Ledgers returns the retained closed ledgers, oldest first.
func (r *Registry) Ledgers() []LedgerSnapshot {
	r.ledgers.mu.Lock()
	defer r.ledgers.mu.Unlock()
	return r.ledgers.ring.items()
}

// LedgerByTrace returns the retained ledger for one trace ID.
func (r *Registry) LedgerByTrace(traceID string) (LedgerSnapshot, bool) {
	if traceID == "" {
		return LedgerSnapshot{}, false
	}
	for _, s := range r.Ledgers() {
		if s.TraceID == traceID {
			return s, true
		}
	}
	return LedgerSnapshot{}, false
}

// SetLedgerCapacity resizes the ledger ring to retain the last n
// ledgers (at least one), discarding current contents.
func (r *Registry) SetLedgerCapacity(n int) {
	r.ledgers.mu.Lock()
	r.ledgers.ring.reset(n)
	r.ledgers.mu.Unlock()
}

// SetSlowQueryLog arms the slow-query log: every ledger closing with a
// total at or above threshold emits one structured "slow_query" line
// with the full per-stage breakdown. A zero threshold or nil logger
// disarms it.
func (r *Registry) SetSlowQueryLog(threshold time.Duration, log *Logger) {
	r.ledgers.mu.Lock()
	r.ledgers.slowThresh = threshold
	r.ledgers.slowLog = log
	r.ledgers.mu.Unlock()
}
