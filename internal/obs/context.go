// Context propagation: spans and ledgers ride a context.Context down
// through the layers of a query (core → batch executor → replica pool
// → cache → predictor), so every layer can open child spans and charge
// the query's ledger without any layer knowing its callers. Across a
// process boundary the trace continues via the W3C traceparent header
// (TraceParent / WithRemoteParent), which is how a query traced on a
// client stitches to the spans an llmserve proxy and its upstreams
// record.
package obs

import (
	"context"
	"strings"
	"time"
)

type ctxKey int

const (
	spanKey ctxKey = iota
	ledgerKey
)

// ContextWithSpan returns ctx carrying sp as the current span. A nil
// ctx is treated as context.Background.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey, sp)
}

// SpanFromContext returns the current span, nil when none is carried.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey).(*Span)
	return sp
}

// StartSpanCtx opens a span on Active(rec) as a child of the span in
// ctx (a new root when ctx carries none) and returns ctx with the new
// span installed. The returned span may be nil (no-op recorder) or an
// unsampled sentinel; both are safe to use unconditionally.
func StartSpanCtx(ctx context.Context, rec Recorder, name string, labels ...string) (context.Context, *Span) {
	return StartSpanCtxAt(ctx, rec, name, time.Now(), labels...)
}

// StartSpanCtxAt is StartSpanCtx with an explicit start instant, for
// regions whose beginning predates the code that opens the span (queue
// wait: the executor opens the span at worker pickup but the wait
// began when the request was submitted).
func StartSpanCtxAt(ctx context.Context, rec Recorder, name string, start time.Time, labels ...string) (context.Context, *Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	parent := SpanFromContext(ctx)
	// The parent's registry wins over Active(rec): a child must record
	// into the same ring as its trace, even from a layer (like the HTTP
	// client) that has no recorder of its own wired.
	r := (*Registry)(nil)
	if parent != nil && parent.rec != nil {
		r = parent.rec
	} else if reg, ok := Active(rec).(*Registry); ok {
		r = reg
	}
	if r == nil {
		return ctx, nil
	}
	sp := r.startSpan(name, start, parent, labels)
	return ContextWithSpan(ctx, sp), sp
}

// ContextWithLedger returns ctx carrying l as the current query ledger.
func ContextWithLedger(ctx context.Context, l *Ledger) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	if l == nil {
		return ctx
	}
	return context.WithValue(ctx, ledgerKey, l)
}

// LedgerFromContext returns the current ledger, nil when none.
func LedgerFromContext(ctx context.Context) *Ledger {
	if ctx == nil {
		return nil
	}
	l, _ := ctx.Value(ledgerKey).(*Ledger)
	return l
}

// Charge adds one entry to the ledger carried by ctx (no-op without
// one): wall-clock and tokens attributed to stage. billed marks the
// serial path — billed walls must tile the query span (the traceguard
// checks they cover ≥90% of it) and billed tokens must sum to the
// query's metered spend; hedge losers charge with billed=false so
// they are visible but never double-counted.
func Charge(ctx context.Context, stage string, wall time.Duration, tokens int, billed bool) {
	if ctx == nil {
		return
	}
	LedgerFromContext(ctx).Charge(stage, wall, tokens, billed)
}

// W3C trace context propagation (https://www.w3.org/TR/trace-context/).

// TraceParentHeader is the W3C trace-context header name.
const TraceParentHeader = "traceparent"

// TraceParent renders the span's identity as a traceparent header
// value ("" when the span is nil or unsampled): version 00, sampled
// flag 01.
func TraceParent(sp *Span) string {
	if !sp.Sampled() {
		return ""
	}
	return "00-" + sp.traceID + "-" + sp.spanID + "-01"
}

// ParseTraceParent extracts the trace and span IDs from a traceparent
// header value. ok is false on anything malformed (wrong field count,
// wrong lengths, non-hex, all-zero IDs).
func ParseTraceParent(v string) (traceID, spanID string, ok bool) {
	parts := strings.Split(strings.TrimSpace(v), "-")
	if len(parts) < 4 || len(parts[0]) != 2 || len(parts[1]) != 32 || len(parts[2]) != 16 {
		return "", "", false
	}
	if !isLowerHex(parts[1]) || !isLowerHex(parts[2]) {
		return "", "", false
	}
	if strings.Trim(parts[1], "0") == "" || strings.Trim(parts[2], "0") == "" {
		return "", "", false
	}
	return parts[1], parts[2], true
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// WithRemoteParent installs a placeholder parent span parsed from a
// traceparent header value, so spans opened under the returned context
// join the remote caller's trace (same trace ID, parent ID pointing at
// the caller's span). A malformed or empty header returns ctx
// unchanged — the next span simply roots a fresh local trace.
func WithRemoteParent(ctx context.Context, traceparent string) context.Context {
	traceID, spanID, ok := ParseTraceParent(traceparent)
	if !ok {
		return ctx
	}
	// The placeholder has no registry: it records nothing itself, it
	// only donates identity to children. sampled is true so children
	// honour the remote sampling decision (flag 01).
	return ContextWithSpan(ctx, &Span{traceID: traceID, spanID: spanID, sampled: true})
}
