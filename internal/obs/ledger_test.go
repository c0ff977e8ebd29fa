package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLedgerChargeAndClose(t *testing.T) {
	r := NewRegistry()
	l := NewLedger(r, "feedface", "q1")
	if l == nil {
		t.Fatal("NewLedger returned nil for a live registry")
	}
	l.Charge(StageQueue, 10*time.Millisecond, 0, true)
	l.Charge(StagePredict, 80*time.Millisecond, 120, true)
	l.Charge(StageThrottle, 5*time.Millisecond, 0, true)
	l.Charge(StageHedgeLoss, 70*time.Millisecond, 90, false)

	snap := l.Close(100 * time.Millisecond)
	if snap.TraceID != "feedface" || snap.Name != "q1" {
		t.Fatalf("snapshot identity = %q/%q", snap.TraceID, snap.Name)
	}
	if snap.BilledWall != 95*time.Millisecond {
		t.Fatalf("billed wall = %v, want 95ms", snap.BilledWall)
	}
	if snap.BilledTokens != 120 || snap.UnbilledTokens != 90 {
		t.Fatalf("tokens billed=%d unbilled=%d, want 120/90", snap.BilledTokens, snap.UnbilledTokens)
	}
	if got := snap.Attribution(); got < 0.94 || got > 0.96 {
		t.Fatalf("attribution = %v, want 0.95", got)
	}

	if got := r.CounterValue(metricTraceQueries); got != 1 {
		t.Fatalf("%s = %v, want 1", metricTraceQueries, got)
	}
	if got := r.CounterValue(metricTraceStageTokens, "stage", StagePredict, "billed", "true"); got != 120 {
		t.Fatalf("billed predict tokens = %v, want 120", got)
	}
	if got := r.CounterValue(metricTraceStageTokens, "stage", StageHedgeLoss, "billed", "false"); got != 90 {
		t.Fatalf("unbilled hedge_loss tokens = %v, want 90", got)
	}
	if got := r.HistogramCount(metricTraceQuerySeconds); got != 1 {
		t.Fatalf("%s count = %d, want 1", metricTraceQuerySeconds, got)
	}
	if got := r.HistogramCount(metricTraceStageSeconds, "stage", StagePredict, "billed", "true"); got != 1 {
		t.Fatalf("stage seconds count = %d, want 1", got)
	}

	// Retained and retrievable by trace.
	led, ok := r.LedgerByTrace("feedface")
	if !ok || led.BilledTokens != 120 {
		t.Fatalf("LedgerByTrace = %+v, %v", led, ok)
	}
}

func TestLedgerDoubleCloseAndLateCharge(t *testing.T) {
	r := NewRegistry()
	l := NewLedger(r, "aa", "q")
	l.Charge(StagePredict, time.Millisecond, 10, true)
	first := l.Close(time.Millisecond)
	l.Charge(StageHedgeLoss, time.Millisecond, 99, false) // hedge loser finishing late
	second := l.Close(time.Millisecond)
	if second.TraceID != "" {
		t.Fatalf("second close published: %+v", second)
	}
	if first.BilledTokens != 10 {
		t.Fatalf("first close billed %d", first.BilledTokens)
	}
	if got := r.CounterValue(metricTraceQueries); got != 1 {
		t.Fatalf("queries counter = %v after double close", got)
	}
	if got := r.CounterValue(metricTraceStageTokens, "stage", StageHedgeLoss, "billed", "false"); got != 0 {
		t.Fatalf("late charge leaked into metrics: %v", got)
	}
}

func TestNilLedgerIsSafe(t *testing.T) {
	var l *Ledger
	l.Charge(StagePredict, time.Second, 1, true)
	if snap := l.Close(time.Second); snap.TraceID != "" {
		t.Fatal("nil ledger published a snapshot")
	}
	if NewLedger(Nop, "id", "q") != nil {
		t.Fatal("NewLedger on Nop recorder should be nil")
	}
}

func TestLedgerConcurrentCharges(t *testing.T) {
	r := NewRegistry()
	l := NewLedger(r, "cc", "q")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Charge(StagePredict, time.Microsecond, 1, true)
		}()
	}
	wg.Wait()
	snap := l.Close(time.Millisecond)
	if snap.BilledTokens != 32 {
		t.Fatalf("billed tokens = %d, want 32", snap.BilledTokens)
	}
	totals := snap.StageTotals()
	if len(totals) != 1 || totals[0].Stage != StagePredict || totals[0].Wall != 32*time.Microsecond {
		t.Fatalf("stage totals = %+v", totals)
	}
}

func TestLedgerRingEvictsOldest(t *testing.T) {
	r := NewRegistry()
	r.SetLedgerCapacity(2)
	for _, id := range []string{"a", "b", "c"} {
		NewLedger(r, id, "q").Close(time.Millisecond)
	}
	if _, ok := r.LedgerByTrace("a"); ok {
		t.Fatal("oldest ledger not evicted")
	}
	got := r.Ledgers()
	if len(got) != 2 || got[0].TraceID != "b" || got[1].TraceID != "c" {
		t.Fatalf("ledgers = %+v", got)
	}
}

func TestSlowQueryLog(t *testing.T) {
	r := NewRegistry()
	var buf bytes.Buffer
	r.SetSlowQueryLog(10*time.Millisecond, NewLogger(&buf))

	fast := NewLedger(r, "fast", "q")
	fast.Close(time.Millisecond)
	if buf.Len() != 0 {
		t.Fatalf("fast query logged: %s", buf.String())
	}

	slow := NewLedger(r, "slowtrace", "q")
	slow.Charge(StagePredict, 15*time.Millisecond, 7, true)
	slow.Close(15 * time.Millisecond)
	line := buf.String()
	if line == "" {
		t.Fatal("slow query not logged")
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(line)), &rec); err != nil {
		t.Fatalf("slow-query line is not JSON: %v\n%s", err, line)
	}
	if rec["event"] != "slow_query" || rec["trace_id"] != "slowtrace" {
		t.Fatalf("unexpected slow-query record: %v", rec)
	}
	if rec["billed_tokens"].(float64) != 7 {
		t.Fatalf("billed_tokens = %v", rec["billed_tokens"])
	}
}

func TestQueryTraceHandlerRendersTreeAndLedger(t *testing.T) {
	r := NewRegistry()
	root := r.StartSpan("core.query", "vertex", "17")
	ctx := ContextWithSpan(nil, root)
	ctx2, child := StartSpanCtx(ctx, r, "batch.request")
	_, grand := StartSpanCtx(ctx2, r, "pool.attempt", "replica", "r1")
	grand.End()
	child.End()
	root.End()

	l := NewLedger(r, root.TraceID(), "q17")
	l.Charge(StagePredict, time.Millisecond, 42, true)
	l.Close(2 * time.Millisecond)

	h := QueryTraceHandler(r)
	// Index.
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/querytrace", nil))
	if !strings.Contains(rw.Body.String(), root.TraceID()) {
		t.Fatalf("index missing trace id:\n%s", rw.Body.String())
	}
	// Tree.
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/querytrace?id="+root.TraceID(), nil))
	body := rw.Body.String()
	for _, want := range []string{"core.query", "  batch.request", "    pool.attempt", "ledger q17", "tokens billed=42"} {
		if !strings.Contains(body, want) {
			t.Fatalf("rendered tree missing %q:\n%s", want, body)
		}
	}
	// JSON form.
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/querytrace?id="+root.TraceID()+"&format=json", nil))
	var qt QueryTrace
	if err := json.Unmarshal(rw.Body.Bytes(), &qt); err != nil {
		t.Fatalf("json form: %v", err)
	}
	if len(qt.Spans) != 3 || qt.Ledger == nil || qt.Ledger.BilledTokens != 42 {
		t.Fatalf("json trace = %+v", qt)
	}
	// Miss.
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/querytrace?id=deadbeef", nil))
	if rw.Code != 404 {
		t.Fatalf("missing trace returned %d", rw.Code)
	}
}
