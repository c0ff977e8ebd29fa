package batch

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/llm"
)

// clockBreaker returns a breaker with a settable fake clock.
func clockBreaker(t *testing.T, cfg BreakerConfig) (*Breaker, *time.Time) {
	t.Helper()
	b := NewBreaker(cfg, nil)
	if b == nil {
		t.Fatalf("breaker disabled by config %+v", cfg)
	}
	now := time.Unix(1000, 0)
	b.now = func() time.Time { return now }
	return b, &now
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	b, _ := clockBreaker(t, BreakerConfig{Threshold: 3, Cooldown: time.Minute})
	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker rejected request %d: %v", i, err)
		}
		b.Report(false)
		if b.State() != BreakerClosed {
			t.Fatalf("opened after %d failures, threshold 3", i+1)
		}
	}
	// A success resets the consecutive count.
	b.Report(true)
	b.Report(false)
	b.Report(false)
	if b.State() != BreakerClosed {
		t.Fatal("opened although success reset the failure streak")
	}
	b.Report(false)
	if b.State() != BreakerOpen {
		t.Fatal("did not open at 3 consecutive failures")
	}
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker admitted a request: %v", err)
	}
}

func TestBreakerHalfOpenProbes(t *testing.T) {
	b, now := clockBreaker(t, BreakerConfig{Threshold: 1, Cooldown: time.Minute, HalfOpenProbes: 2})
	b.Report(false)
	if b.State() != BreakerOpen {
		t.Fatal("threshold 1 did not open on first failure")
	}
	// Before the cooldown: still rejecting.
	*now = now.Add(30 * time.Second)
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("rejected during cooldown, got %v", err)
	}
	// After the cooldown: one probe admitted, concurrent requests still
	// rejected while it is in flight.
	*now = now.Add(31 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("post-cooldown probe rejected: %v", err)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v, want half-open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("second in-flight probe admitted: %v", err)
	}
	// First probe succeeds; needs one more before closing.
	b.Report(true)
	if b.State() != BreakerHalfOpen {
		t.Fatal("closed after 1 probe success, want 2")
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("second probe rejected: %v", err)
	}
	b.Report(true)
	if b.State() != BreakerClosed {
		t.Fatal("did not close after 2 probe successes")
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	b, now := clockBreaker(t, BreakerConfig{Threshold: 1, Cooldown: time.Second})
	b.Report(false)
	*now = now.Add(2 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe rejected: %v", err)
	}
	b.Report(false)
	if b.State() != BreakerOpen {
		t.Fatal("failed probe did not reopen the circuit")
	}
	// The fresh open period starts at the probe failure, not the
	// original trip.
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("reopened breaker admitted a request: %v", err)
	}
}

func TestBreakerCancelFreesProbeSlot(t *testing.T) {
	b, now := clockBreaker(t, BreakerConfig{Threshold: 1, Cooldown: time.Second})
	b.Report(false)
	*now = now.Add(2 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe rejected: %v", err)
	}
	// The probe is aborted for reasons unrelated to backend health; the
	// slot must free up or the breaker deadlocks in half-open forever.
	b.Cancel()
	if err := b.Allow(); err != nil {
		t.Fatalf("slot not freed after cancel: %v", err)
	}
	b.Report(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after successful probe, want closed", b.State())
	}
}

func TestBreakerDisabled(t *testing.T) {
	if b := NewBreaker(BreakerConfig{}, nil); b != nil {
		t.Fatal("zero config built a live breaker")
	}
	e, err := New(newScripted(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e.BreakerState() != BreakerClosed {
		t.Fatal("executor without breaker not reported closed")
	}
}

func TestExecutorBreakerFailsFast(t *testing.T) {
	p := newScripted()
	p.failFirst = 1000 // every call fails
	p.failErr = &llm.APIError{StatusCode: http.StatusServiceUnavailable, Message: "down"}
	e, err := New(p, Config{
		Workers: 1,
		Breaker: BreakerConfig{Threshold: 3, Cooldown: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(context.Background(), reqs(20))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 20 {
		t.Fatalf("failed=%d, want 20", res.Failed)
	}
	if e.BreakerState() != BreakerOpen {
		t.Fatalf("breaker %v after a dead backend, want open", e.BreakerState())
	}
	// Only the first Threshold calls reached the predictor; the rest
	// were rejected without a call.
	if got := p.total.Load(); got != 3 {
		t.Fatalf("predictor saw %d calls, want 3 (threshold)", got)
	}
	rejected := 0
	for _, o := range res.Outcomes {
		if errors.Is(o.Err, ErrCircuitOpen) {
			rejected++
		}
	}
	if rejected != 17 {
		t.Fatalf("rejected=%d, want 17", rejected)
	}
}

// TestExecutorBreakerRecovers: a success resets the breaker's failure
// streak. Each prompt is asked twice in a row and fails the first time,
// so the executor sees ten failures, never two in a row; with a
// threshold of 2 the circuit stays closed and every second ask is
// answered.
func TestExecutorBreakerRecovers(t *testing.T) {
	p := newScripted()
	p.failFirst = 1 // first call per prompt fails, then succeeds
	p.failErr = &llm.APIError{StatusCode: http.StatusServiceUnavailable, Message: "blip"}
	e, err := New(p, Config{
		Workers: 1,
		Breaker: BreakerConfig{Threshold: 2, Cooldown: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	var rs []Request
	for i, r := range reqs(10) {
		rs = append(rs, r, Request{ID: fmt.Sprintf("again%03d", i), Prompt: r.Prompt})
	}
	res, err := e.Execute(context.Background(), rs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 10 {
		t.Fatalf("failed=%d, want 10 (each prompt's first ask)", res.Failed)
	}
	for i := 0; i < 10; i++ {
		if o := res.Outcomes[fmt.Sprintf("again%03d", i)]; o.Err != nil {
			t.Fatalf("second ask of prompt %d: %v", i, o.Err)
		}
	}
	if e.BreakerState() != BreakerClosed {
		t.Fatalf("breaker %v, want closed (successes reset the streak)", e.BreakerState())
	}
}

// hang is a legacy (context-free) predictor whose marked prompts block
// until release is closed.
type hang struct {
	match   string
	release chan struct{}
	inner   llm.Predictor
}

func (h *hang) Name() string { return "hang" }

func (h *hang) Query(prompt string) (llm.Response, error) {
	if h.match == "" || len(prompt) >= len(h.match) && containsStr(prompt, h.match) {
		<-h.release
		return llm.Response{}, errors.New("hang released")
	}
	return h.inner.Query(prompt)
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestQueryTimeoutWatchdog(t *testing.T) {
	// One hung prompt must not stall the batch: the watchdog abandons
	// the call at the deadline and the batch completes.
	h := &hang{match: "prompt 3", release: make(chan struct{}), inner: newScripted()}
	defer close(h.release)
	e, err := New(h, Config{Workers: 2, QueryTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := e.Execute(context.Background(), reqs(10))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("batch took %v; hung call stalled it", elapsed)
	}
	if res.Failed != 1 {
		t.Fatalf("failed=%d, want exactly the hung prompt", res.Failed)
	}
	o := res.Outcomes["q003"]
	if !errors.Is(o.Err, ErrQueryTimeout) {
		t.Fatalf("hung prompt outcome %v, want ErrQueryTimeout", o.Err)
	}
	for id, o := range res.Outcomes {
		if id != "q003" && o.Err != nil {
			t.Fatalf("%s failed: %v", id, o.Err)
		}
	}
}

// ctxHang is a context-aware predictor whose marked prompts block until
// the context ends.
type ctxHang struct {
	match string
	inner llm.Predictor
}

func (h *ctxHang) Name() string { return "ctx-hang" }

func (h *ctxHang) Query(prompt string) (llm.Response, error) {
	return h.QueryContext(context.Background(), prompt)
}

func (h *ctxHang) QueryContext(ctx context.Context, prompt string) (llm.Response, error) {
	if containsStr(prompt, h.match) {
		<-ctx.Done()
		return llm.Response{}, ctx.Err()
	}
	return h.inner.Query(prompt)
}

func TestQueryTimeoutContextPath(t *testing.T) {
	h := &ctxHang{match: "prompt 5", inner: newScripted()}
	e, err := New(h, Config{Workers: 4, QueryTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(context.Background(), reqs(12))
	if err != nil {
		t.Fatal(err)
	}
	o := res.Outcomes["q005"]
	if !errors.Is(o.Err, ErrQueryTimeout) {
		t.Fatalf("hung prompt outcome %v, want ErrQueryTimeout", o.Err)
	}
	if res.Failed != 1 {
		t.Fatalf("failed=%d, want 1", res.Failed)
	}
}

func TestQueryTimeoutTripsBreaker(t *testing.T) {
	// Every prompt hangs; timeouts count as transient failures, so the
	// breaker opens and the tail of the batch fails fast.
	h := &ctxHang{match: "prompt", inner: newScripted()}
	e, err := New(h, Config{
		Workers: 1, QueryTimeout: 10 * time.Millisecond,
		Breaker: BreakerConfig{Threshold: 2, Cooldown: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(context.Background(), reqs(8))
	if err != nil {
		t.Fatal(err)
	}
	if e.BreakerState() != BreakerOpen {
		t.Fatalf("breaker %v, want open after repeated timeouts", e.BreakerState())
	}
	timeouts, rejections := 0, 0
	for _, o := range res.Outcomes {
		switch {
		case errors.Is(o.Err, ErrQueryTimeout):
			timeouts++
		case errors.Is(o.Err, ErrCircuitOpen):
			rejections++
		}
	}
	if timeouts != 2 || rejections != 6 {
		t.Fatalf("timeouts=%d rejections=%d, want 2 and 6", timeouts, rejections)
	}
}

func TestBreakerConcurrentRace(t *testing.T) {
	// Hammer one breaker from many goroutines; run with -race.
	b := NewBreaker(BreakerConfig{Threshold: 3, Cooldown: time.Microsecond}, nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				if err := b.Allow(); err == nil {
					switch j % 3 {
					case 0:
						b.Report(true)
					case 1:
						b.Report(false)
					default:
						b.Cancel()
					}
				}
				_ = b.State()
			}
		}(i)
	}
	wg.Wait()
	if s := b.State(); s != BreakerClosed && s != BreakerOpen && s != BreakerHalfOpen {
		t.Fatalf("invalid final state %v", s)
	}
}

var _ = fmt.Sprintf // keep fmt imported for debugging edits
