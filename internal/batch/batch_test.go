package batch

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/token"
)

// scripted is a test predictor with injectable failures.
type scripted struct {
	mu sync.Mutex
	// failFirst fails the first N calls per prompt with failErr.
	failFirst int
	failErr   error
	calls     map[string]int
	total     atomic.Int64
	tokens    int // tokens billed per call (default 10+2)
}

func newScripted() *scripted { return &scripted{calls: map[string]int{}} }

func (s *scripted) Name() string { return "scripted" }

func (s *scripted) Query(prompt string) (llm.Response, error) {
	s.total.Add(1)
	s.mu.Lock()
	s.calls[prompt]++
	n := s.calls[prompt]
	s.mu.Unlock()
	if n <= s.failFirst {
		return llm.Response{}, s.failErr
	}
	in, out := 10, 2
	if s.tokens > 0 {
		in, out = s.tokens, 0
	}
	return llm.Response{
		Text:        "Category: ['A']",
		Category:    "A",
		InputTokens: in, OutputTokens: out,
	}, nil
}

func reqs(n int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = Request{ID: fmt.Sprintf("q%03d", i), Prompt: fmt.Sprintf("prompt %d", i)}
	}
	return out
}

func TestExecuteAllSucceed(t *testing.T) {
	p := newScripted()
	e, err := New(p, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(context.Background(), reqs(50))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 50 || res.Failed != 0 || res.Skipped != 0 {
		t.Fatalf("outcomes=%d failed=%d skipped=%d, want 50/0/0",
			len(res.Outcomes), res.Failed, res.Skipped)
	}
	if res.TokensUsed != 50*12 {
		t.Errorf("TokensUsed = %d, want %d", res.TokensUsed, 50*12)
	}
	for id, o := range res.Outcomes {
		if o.Err != nil || o.Response.Category != "A" || o.Attempts != 1 {
			t.Fatalf("%s: unexpected outcome %+v", id, o)
		}
	}
}

func TestExecuteRetriesTransientFailures(t *testing.T) {
	p := newScripted()
	p.failFirst = 2
	p.failErr = &llm.APIError{StatusCode: http.StatusServiceUnavailable, Message: "down"}
	e, err := New(p, Config{Workers: 2, MaxRetries: 2, RetryDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(context.Background(), reqs(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("failed=%d after retries, want 0", res.Failed)
	}
	for id, o := range res.Outcomes {
		if o.Attempts != 3 {
			t.Errorf("%s: attempts=%d, want 3", id, o.Attempts)
		}
	}
}

func TestExecuteDoesNotRetryClientErrors(t *testing.T) {
	p := newScripted()
	p.failFirst = 1000
	p.failErr = &llm.APIError{StatusCode: http.StatusBadRequest, Message: "bad"}
	e, err := New(p, Config{Workers: 1, MaxRetries: 5, RetryDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(context.Background(), reqs(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 3 {
		t.Fatalf("failed=%d, want 3", res.Failed)
	}
	if got := p.total.Load(); got != 3 {
		t.Errorf("predictor called %d times, want 3 (no retries on 400)", got)
	}
}

func TestExecuteRetryExhaustion(t *testing.T) {
	p := newScripted()
	p.failFirst = 1000
	p.failErr = errors.New("network down")
	e, err := New(p, Config{Workers: 1, MaxRetries: 2, RetryDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(context.Background(), reqs(1))
	if err != nil {
		t.Fatal(err)
	}
	o := res.Outcomes["q000"]
	if o.Err == nil || o.Attempts != 3 {
		t.Fatalf("outcome %+v, want error after 3 attempts", o)
	}
	if !strings.Contains(o.Err.Error(), "network down") {
		t.Errorf("error %q lost the cause", o.Err)
	}
}

func TestExecuteBudgetGuard(t *testing.T) {
	p := newScripted()
	p.tokens = 100
	// Budget for ~3 queries; workers=1 so overshoot is bounded at one.
	e, err := New(p, Config{Workers: 1, BudgetTokens: 300})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(context.Background(), reqs(10))
	if err != nil {
		t.Fatal(err)
	}
	done := len(res.Outcomes) - res.Skipped
	if done != 3 {
		t.Errorf("executed %d queries on a 300-token budget, want 3", done)
	}
	if res.Skipped != 7 {
		t.Errorf("skipped=%d, want 7", res.Skipped)
	}
	for _, o := range res.Outcomes {
		if o.Err != nil && !errors.Is(o.Err, ErrBudgetExhausted) {
			t.Fatalf("unexpected error kind: %v", o.Err)
		}
	}
	if res.TokensUsed != 300 {
		t.Errorf("TokensUsed=%d, want 300", res.TokensUsed)
	}
}

// TestDoSharesGuardsWithExecute: Do runs one request through the same
// guards Execute calls do, so what an Execute call spent or tripped
// holds for it — a spent BudgetTokens refuses it with
// ErrBudgetExhausted, an open breaker fails it fast with ErrCircuitOpen,
// and neither pays a predictor call.
func TestDoSharesGuardsWithExecute(t *testing.T) {
	ctx := context.Background()
	late := Request{ID: "late", Prompt: "late prompt"}

	p := newScripted()
	p.tokens = 100
	e, err := New(p, Config{Workers: 1, BudgetTokens: 300})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(ctx, reqs(3)); err != nil {
		t.Fatal(err)
	}
	calls := p.total.Load()
	if o := e.Do(ctx, late); !errors.Is(o.Err, ErrBudgetExhausted) {
		t.Errorf("Do after the budget was spent: err %v, want ErrBudgetExhausted", o.Err)
	}
	if got := p.total.Load(); got != calls {
		t.Errorf("Do past the budget called the predictor (%d calls, want %d)", got, calls)
	}

	p = newScripted()
	p.failFirst, p.failErr = 1000, errors.New("backend down")
	e, err = New(p, Config{Workers: 1, MaxRetries: -1, Breaker: BreakerConfig{Threshold: 3, Cooldown: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(ctx, reqs(3)); err != nil {
		t.Fatal(err)
	}
	calls = p.total.Load()
	if o := e.Do(ctx, late); !errors.Is(o.Err, ErrCircuitOpen) {
		t.Errorf("Do after Execute tripped the breaker: err %v, want ErrCircuitOpen", o.Err)
	}
	if got := p.total.Load(); got != calls {
		t.Errorf("Do through an open breaker called the predictor (%d calls, want %d)", got, calls)
	}
}

func TestExecuteCache(t *testing.T) {
	p := newScripted()
	e, err := New(p, Config{Workers: 1, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	same := []Request{
		{ID: "a", Prompt: "dup"},
		{ID: "b", Prompt: "dup"},
		{ID: "c", Prompt: "dup"},
		{ID: "d", Prompt: "other"},
	}
	res, err := e.Execute(context.Background(), same)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != 2 {
		t.Errorf("cache hits=%d, want 2", res.CacheHits)
	}
	if got := p.total.Load(); got != 2 {
		t.Errorf("predictor called %d times, want 2", got)
	}
	// Grouping is per Execute call: no answer outlives it, so a second
	// call on the same executor pays one fresh predictor call.
	res2, err := e.Execute(context.Background(), []Request{{ID: "e", Prompt: "dup"}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.CacheHits != 0 {
		t.Errorf("second batch cache hits=%d, want 0", res2.CacheHits)
	}
	if got := p.total.Load(); got != 3 {
		t.Errorf("predictor called %d times after the second batch, want 3", got)
	}
}

func TestExecuteJSONLLog(t *testing.T) {
	var buf bytes.Buffer
	p := newScripted()
	e, err := New(p, Config{Workers: 1, Log: &buf, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Execute(context.Background(), []Request{
		{ID: "x", Prompt: "p1"}, {ID: "y", Prompt: "p1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("unparseable log line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("log has %d lines, want 2", len(lines))
	}
	for _, m := range lines {
		if m["prompt_sha256"] == "" || m["id"] == "" {
			t.Errorf("log line missing fields: %v", m)
		}
		if s, ok := m["prompt_sha256"].(string); !ok || strings.Contains(s, "p1") {
			t.Errorf("raw prompt leaked into log: %v", m)
		}
	}
	cachedLines := 0
	for _, m := range lines {
		if m["cached"] == true {
			cachedLines++
		}
	}
	if cachedLines != 1 {
		t.Errorf("cached log lines=%d, want 1", cachedLines)
	}
}

// TestExecuteLogConcurrentWorkers is the regression for interleaved
// audit-log writes: many workers logging into one bytes.Buffer (not
// safe for concurrent use) must still leave one whole line per request,
// so a replay recovers every request. Run under -race it also pins the
// absence of the data race.
func TestExecuteLogConcurrentWorkers(t *testing.T) {
	var buf bytes.Buffer
	e, err := New(newScripted(), Config{Workers: 16, Log: &buf, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	rs := reqs(400)
	if _, err := e.Execute(context.Background(), rs); err != nil {
		t.Fatal(err)
	}
	done, err := ReplayLog(&buf)
	if err != nil {
		t.Fatalf("ReplayLog: %v", err)
	}
	if len(done) != len(rs) {
		t.Errorf("replay recovered %d of %d requests", len(done), len(rs))
	}
}

func TestExecuteContextCancel(t *testing.T) {
	p := newScripted()
	p.failFirst = 1000
	p.failErr = errors.New("always failing") // forces retry waits
	ctx, cancel := context.WithCancel(context.Background())
	e, err := New(p, Config{Workers: 1, MaxRetries: 5, RetryDelay: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	res, err := e.Execute(ctx, reqs(20))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 20 {
		t.Fatalf("outcomes=%d, want every request accounted for", len(res.Outcomes))
	}
	cancelled := 0
	for _, o := range res.Outcomes {
		if errors.Is(o.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("no request reported context cancellation")
	}
}

func TestExecuteQPSPacing(t *testing.T) {
	p := newScripted()
	e, err := New(p, Config{Workers: 4, QPS: 200})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := e.Execute(context.Background(), reqs(20)); err != nil {
		t.Fatal(err)
	}
	// 20 queries at 200 QPS need ≥ ~95ms regardless of worker count.
	if elapsed := time.Since(start); elapsed < 90*time.Millisecond {
		t.Errorf("20 queries at 200 QPS finished in %v, rate limit not applied", elapsed)
	}
}

// TestQPSPacingSpansExecuteCalls overlaps 20 one-request Execute calls,
// the way a long-lived caller sends its queries: pacing is the
// executor's, not each call's, so at 200 QPS they need at least 19
// intervals.
func TestQPSPacingSpansExecuteCalls(t *testing.T) {
	e, err := New(newScripted(), Config{Workers: 4, QPS: 200})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, r := range reqs(20) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Execute(context.Background(), []Request{r}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 95*time.Millisecond {
		t.Errorf("20 calls at 200 QPS finished in %v, want at least 95ms", elapsed)
	}
}

// parkingPredictor parks the call for prompt "park" until release is
// closed, closing parked when it arrives; every other prompt answers
// at once.
type parkingPredictor struct{ parked, release chan struct{} }

func (parkingPredictor) Name() string { return "parking" }

func (p parkingPredictor) Query(prompt string) (llm.Response, error) {
	if prompt == "park" {
		close(p.parked)
		<-p.release
	}
	return llm.Response{Category: "A", InputTokens: 1}, nil
}

// TestInflightGaugeSpansExecuteCalls overlaps two Execute calls on one
// executor. The second ends while the first is still parked, and the
// in-flight gauge must keep counting the parked request rather than
// drop to zero with the call that ended.
func TestInflightGaugeSpansExecuteCalls(t *testing.T) {
	reg := obs.NewRegistry()
	p := parkingPredictor{parked: make(chan struct{}), release: make(chan struct{})}
	e, err := New(p, Config{Workers: 4, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.Execute(context.Background(), []Request{{ID: "a", Prompt: "park"}})
		done <- err
	}()
	<-p.parked
	if _, err := e.Execute(context.Background(), []Request{{ID: "b", Prompt: "quick"}}); err != nil {
		t.Fatal(err)
	}
	if got := reg.GaugeValue(metricBatchInflight); got != 1 {
		t.Fatalf("mqo_batch_inflight = %v while one request is parked, want 1", got)
	}
	close(p.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := reg.GaugeValue(metricBatchInflight); got != 0 {
		t.Fatalf("mqo_batch_inflight = %v after both calls, want 0", got)
	}
}

func TestExecuteInputValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil predictor accepted")
	}
	if _, err := New(newScripted(), Config{Workers: -1}); err == nil {
		t.Error("negative workers accepted")
	}
	e, err := New(newScripted(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(context.Background(), []Request{{ID: "a"}, {ID: "a"}}); err == nil {
		t.Error("duplicate IDs accepted")
	}
	if _, err := e.Execute(nil, reqs(1)); err == nil { //nolint:staticcheck // testing nil ctx
		t.Error("nil context accepted")
	}
}

// TestConcurrentSim drives a bare simulated LLM from eight workers,
// with no lock around it, and checks token accounting stays
// consistent; run under -race it also checks that Sim is safe for
// concurrent use, as the llm.Predictor contract requires.
func TestConcurrentSim(t *testing.T) {
	g, prompts := simPrompts(t, 40)
	sim := llm.NewSim(llm.GPT35(), g.Vocab, g.Classes, 4)
	e, err := New(sim, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(context.Background(), prompts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("failed=%d", res.Failed)
	}
	var want token.Meter = *sim.Meter()
	if res.TokensUsed != want.Total() {
		t.Errorf("executor counted %d tokens, sim metered %d", res.TokensUsed, want.Total())
	}
}

func TestExecuteExtremeQPSDoesNotPanic(t *testing.T) {
	// Regression: above 1e9 QPS the pacing interval rounds to 0ns,
	// which once panicked inside time.NewTicker.
	p := newScripted()
	e, err := New(p, Config{Workers: 4, QPS: 5e9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(context.Background(), reqs(20))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 20 || res.Failed != 0 {
		t.Fatalf("outcomes=%d failed=%d, want 20/0", len(res.Outcomes), res.Failed)
	}
}

// slowScripted delays each underlying call so that concurrent duplicate
// prompts genuinely overlap in flight.
type slowScripted struct {
	scripted
	delay time.Duration
}

func (s *slowScripted) Query(prompt string) (llm.Response, error) {
	time.Sleep(s.delay)
	return s.scripted.Query(prompt)
}

func TestExecuteSingleFlightDeduplicatesConcurrentPrompts(t *testing.T) {
	p := &slowScripted{scripted: scripted{calls: map[string]int{}}, delay: 50 * time.Millisecond}
	e, err := New(p, Config{Workers: 8, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	rs := make([]Request, 8)
	for i := range rs {
		rs[i] = Request{ID: fmt.Sprintf("q%d", i), Prompt: "same prompt"}
	}
	res, err := e.Execute(context.Background(), rs)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.total.Load(); got != 1 {
		t.Fatalf("predictor called %d times for 8 identical in-flight prompts, want 1", got)
	}
	cached := 0
	for _, o := range res.Outcomes {
		if o.Err != nil {
			t.Fatalf("unexpected outcome error: %v", o.Err)
		}
		if o.Cached {
			cached++
		}
	}
	if cached != 7 {
		t.Fatalf("cached outcomes = %d, want 7 (one leader call, seven coalesced)", cached)
	}
	// Only the leader's call is billed.
	if res.TokensUsed != 12 {
		t.Fatalf("TokensUsed = %d, want 12", res.TokensUsed)
	}
}

func TestExecuteSingleFlightLeaderErrorPropagates(t *testing.T) {
	p := &slowScripted{
		scripted: scripted{calls: map[string]int{}, failFirst: 1000, failErr: errors.New("bad request")},
		delay:    30 * time.Millisecond,
	}
	e, err := New(p, Config{Workers: 4, Cache: true, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	rs := make([]Request, 4)
	for i := range rs {
		rs[i] = Request{ID: fmt.Sprintf("q%d", i), Prompt: "same prompt"}
	}
	res, err := e.Execute(context.Background(), rs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 4 {
		t.Fatalf("Failed = %d, want 4 (leader error reaches every waiter)", res.Failed)
	}
	if got := p.total.Load(); got != 1 {
		t.Fatalf("predictor called %d times, want 1", got)
	}
}

// TestFollowerLedgersBillTheirAnswers pins the books of grouped
// requests: traced requests share prompts, and every follower's ledger
// bills exactly its response's tokens and covers at least 90% of its
// root span, as each leader's does.
func TestFollowerLedgersBillTheirAnswers(t *testing.T) {
	reg := obs.NewRegistry()
	p := &slowScripted{scripted: scripted{calls: map[string]int{}}, delay: 20 * time.Millisecond}
	e, err := New(p, Config{Workers: 2, Cache: true, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	const leaders = 3
	rs := make([]Request, 12)
	roots := make([]*obs.Span, len(rs))
	leds := make([]*obs.Ledger, len(rs))
	for i := range rs {
		ctx, root := obs.StartSpanCtx(context.Background(), reg, "test.query", "i", strconv.Itoa(i))
		if !root.Sampled() {
			t.Fatal("root span not sampled")
		}
		roots[i], leds[i] = root, obs.NewLedger(reg, root.TraceID(), "q"+strconv.Itoa(i))
		rs[i] = Request{
			ID:     "q" + strconv.Itoa(i),
			Prompt: "prompt " + strconv.Itoa(i%leaders),
			Ctx:    obs.ContextWithLedger(ctx, leds[i]),
		}
	}
	res, err := e.Execute(context.Background(), rs)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.total.Load(); got != leaders {
		t.Fatalf("predictor called %d times for %d distinct prompts", got, leaders)
	}
	for i, r := range rs {
		o := res.Outcomes[r.ID]
		if o.Err != nil {
			t.Fatalf("%s: %v", r.ID, o.Err)
		}
		if follower := i >= leaders; follower && (!o.Cached || o.Attempts != 0) {
			t.Errorf("%s: follower outcome %+v, want Cached with 0 attempts", r.ID, o)
		}
		roots[i].EndAt(o.Finished)
		snap := leds[i].Close(o.Finished.Sub(roots[i].StartTime()))
		if want := o.Response.InputTokens + o.Response.OutputTokens; snap.BilledTokens != want {
			t.Errorf("%s: ledger bills %d tokens, response carries %d", r.ID, snap.BilledTokens, want)
		}
		if a := snap.Attribution(); a < 0.9 {
			t.Errorf("%s: ledger covers %.2f of its span (billed %v of %v)", r.ID, a, snap.BilledWall, snap.Total)
		}
	}
}

func TestExecuteDisableRetriesSentinel(t *testing.T) {
	p := newScripted()
	p.failFirst = 1
	p.failErr = errors.New("transient: 503")
	e, err := New(p, Config{Workers: 1, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(context.Background(), reqs(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 3 {
		t.Fatalf("Failed = %d, want 3 (MaxRetries: -1 must disable retries)", res.Failed)
	}
	if got := p.total.Load(); got != 3 {
		t.Fatalf("predictor called %d times, want 3 (no retry attempts)", got)
	}
}
