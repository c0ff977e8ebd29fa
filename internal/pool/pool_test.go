package pool

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/llm"
	"repro/internal/obs"
)

// fakePred is a controllable ContextPredictor: per-call latency, a
// scripted error, and counters for calls, completions and observed
// cancellations.
type fakePred struct {
	name  string
	id    string
	delay time.Duration
	err   error
	// answer, when non-nil, overrides the default echo response.
	answer func(prompt string) llm.Response

	calls     atomic.Int64
	completed atomic.Int64
	canceled  atomic.Int64
}

func (f *fakePred) Name() string { return f.name }

func (f *fakePred) Identity() string {
	if f.id != "" {
		return f.id
	}
	return f.name
}

func (f *fakePred) Query(prompt string) (llm.Response, error) {
	return f.QueryContext(context.Background(), prompt)
}

func (f *fakePred) QueryContext(ctx context.Context, prompt string) (llm.Response, error) {
	f.calls.Add(1)
	if f.delay > 0 {
		t := time.NewTimer(f.delay)
		defer t.Stop()
		select {
		case <-ctx.Done():
			f.canceled.Add(1)
			return llm.Response{}, ctx.Err()
		case <-t.C:
		}
	}
	if f.err != nil {
		return llm.Response{}, f.err
	}
	f.completed.Add(1)
	if f.answer != nil {
		return f.answer(prompt), nil
	}
	return llm.Response{
		Text: f.name + ":" + prompt, Category: "C",
		InputTokens: len(prompt), OutputTokens: 3,
	}, nil
}

func mustPool(t *testing.T, cfg Config, replicas ...llm.Predictor) *Pool {
	t.Helper()
	p, err := New(replicas, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewRejectsEmpty(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("New(nil) succeeded, want error")
	}
}

// TestIdentityTransparent: replicas sharing one identity make the pool
// identity-transparent, so promptcache namespaces are unchanged by the
// replica count — the property the golden warm-cache rows rely on.
func TestIdentityTransparent(t *testing.T) {
	a := &fakePred{name: "m", id: "m/seed=1"}
	p1 := mustPool(t, Config{}, a)
	p3 := mustPool(t, Config{}, a, a, a)
	if got := p1.Identity(); got != "m/seed=1" {
		t.Errorf("1-replica identity = %q, want m/seed=1", got)
	}
	if got := p3.Identity(); got != "m/seed=1" {
		t.Errorf("3-replica identity = %q, want m/seed=1", got)
	}
}

// TestIdentityFoldsDistinctReplicas: distinct backends answer
// differently, so the identity must fold the sorted set — in either
// construction order.
func TestIdentityFoldsDistinctReplicas(t *testing.T) {
	a := &fakePred{name: "a", id: "m@hostA"}
	b := &fakePred{name: "b", id: "m@hostB"}
	pab := mustPool(t, Config{}, a, b)
	pba := mustPool(t, Config{}, b, a)
	want := "pool(m@hostA|m@hostB)"
	if got := pab.Identity(); got != want {
		t.Errorf("Identity() = %q, want %q", got, want)
	}
	if got := pba.Identity(); got != pab.Identity() {
		t.Errorf("identity depends on replica order: %q vs %q", got, pab.Identity())
	}
}

// TestRoutingPreservesAnswers: with replicas that answer as a pure
// function of the prompt, plan outputs are identical for any replica
// count and hedging setting — the determinism contract.
func TestRoutingPreservesAnswers(t *testing.T) {
	answer := func(prompt string) llm.Response {
		return llm.Response{Text: "ans:" + prompt, Category: strings.ToUpper(prompt)}
	}
	mk := func() *fakePred { return &fakePred{name: "m", id: "m/seed=1", answer: answer} }
	prompts := make([]string, 50)
	for i := range prompts {
		prompts[i] = fmt.Sprintf("prompt-%d", i)
	}
	want := map[string]string{}
	for _, pr := range prompts {
		want[pr] = answer(pr).Category
	}

	for name, pl := range map[string]*Pool{
		"1-replica":       mustPool(t, Config{Seed: 7}, mk()),
		"3-replica":       mustPool(t, Config{Seed: 7}, mk(), mk(), mk()),
		"3-replica-hedge": mustPool(t, Config{Seed: 7, Hedge: true, HedgeAfter: time.Nanosecond}, mk(), mk(), mk()),
	} {
		var wg sync.WaitGroup
		got := make([]string, len(prompts))
		for i, pr := range prompts {
			wg.Add(1)
			go func(i int, pr string) {
				defer wg.Done()
				resp, err := pl.QueryContext(context.Background(), pr)
				if err != nil {
					t.Errorf("%s: query %q: %v", name, pr, err)
					return
				}
				got[i] = resp.Category
			}(i, pr)
		}
		wg.Wait()
		for i, pr := range prompts {
			if got[i] != want[pr] {
				t.Errorf("%s: prompt %q answered %q, want %q", name, pr, got[i], want[pr])
			}
		}
	}
}

// TestHedging is the table-driven contract for hedged requests.
func TestHedging(t *testing.T) {
	hang := 30 * time.Second // far beyond any test deadline; canceled, not waited
	tests := []struct {
		name       string
		primary    *fakePred
		hedgeAfter time.Duration
		wantHedges float64
		wantWins   float64
	}{
		{
			name:       "no hedge before HedgeAfter",
			primary:    &fakePred{name: "fast", id: "x"},
			hedgeAfter: 5 * time.Second, // primary answers instantly; timer never fires
			wantHedges: 0,
			wantWins:   0,
		},
		{
			name:       "hedge fires and wins when primary hangs",
			primary:    &fakePred{name: "slow", id: "x", delay: hang},
			hedgeAfter: time.Millisecond,
			wantHedges: 1,
			wantWins:   1,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			secondary := &fakePred{name: "second", id: "x"}
			// Seed chosen so the hung primary is picked first isn't
			// guaranteed; pin it by making the secondary busy-looking is
			// fragile — instead run until the slow replica was primary at
			// least once, or accept either pick for the fast case.
			pl := mustPool(t, Config{Hedge: true, HedgeAfter: tc.hedgeAfter, Seed: 1, Obs: reg},
				tc.primary, secondary)

			resp, err := pl.QueryContext(context.Background(), "p")
			if err != nil {
				t.Fatalf("QueryContext: %v", err)
			}
			if resp.Text == "" {
				t.Fatal("empty response")
			}
			if got := reg.CounterValue("mqo_pool_hedges_total"); got != tc.wantHedges {
				// The pick is pseudo-random: the "hang" case only hedges
				// when the slow replica was picked first. Retry across
				// fresh queries until it is (bounded).
				if tc.wantHedges > 0 {
					hedged := got > 0
					for i := 0; i < 50 && !hedged; i++ {
						if _, err := pl.QueryContext(context.Background(), fmt.Sprintf("p%d", i)); err != nil {
							t.Fatalf("QueryContext: %v", err)
						}
						hedged = reg.CounterValue("mqo_pool_hedges_total") > 0
					}
					if !hedged {
						t.Fatalf("hedge never fired across 50 queries")
					}
				} else {
					t.Fatalf("hedges = %v, want %v", got, tc.wantHedges)
				}
			}
			if tc.wantWins > 0 {
				if got := reg.CounterValue("mqo_pool_hedge_wins_total"); got < tc.wantWins {
					t.Errorf("hedge wins = %v, want >= %v", got, tc.wantWins)
				}
				// The hung primary must have been canceled: its context
				// was torn down when the hedge won (or when QueryContext
				// returned and ran its deferred cancel).
				deadline := time.Now().Add(2 * time.Second)
				for tc.primary.canceled.Load() == 0 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if tc.primary.canceled.Load() == 0 {
					t.Error("hung primary was never canceled after losing the hedge race")
				}
			}
		})
	}
}

// TestHedgeBillsWinnerOnce: the pool returns exactly one response per
// query, and the losing attempt never completes — so a token meter fed
// by the pool's caller counts the winner exactly once.
func TestHedgeBillsWinnerOnce(t *testing.T) {
	slow := &fakePred{name: "slow", id: "x", delay: 30 * time.Second}
	fast := &fakePred{name: "fast", id: "x"}
	reg := obs.NewRegistry()
	pl := mustPool(t, Config{Hedge: true, HedgeAfter: time.Millisecond, Seed: 1, Obs: reg}, slow, fast)

	var inputTokens atomic.Int64
	const n = 40
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := pl.QueryContext(context.Background(), fmt.Sprintf("pp-%d", i))
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			inputTokens.Add(int64(resp.InputTokens))
		}(i)
	}
	wg.Wait()
	// Every prompt is 5 bytes ("pp-N" is 4-5; compute exactly).
	var want int64
	for i := 0; i < n; i++ {
		want += int64(len(fmt.Sprintf("pp-%d", i)))
	}
	if got := inputTokens.Load(); got != want {
		t.Errorf("meter saw %d input tokens, want %d (double-billed hedges?)", got, want)
	}
	// The slow replica can only ever *complete* zero calls: every call
	// it received lost its race and was canceled.
	if got := slow.completed.Load(); got != 0 {
		t.Errorf("slow replica completed %d calls, want 0", got)
	}
}

// TestPerReplicaBreakerEjectsDeadReplica: a consistently failing
// replica is ejected (its breaker opens, the ejection counter ticks)
// while the healthy replica keeps answering.
func TestPerReplicaBreakerEjectsDeadReplica(t *testing.T) {
	reg := obs.NewRegistry()
	// The dead replica fails instantly while the healthy one takes real
	// time, so EWMA routing keeps steering traffic into the failures —
	// the classic fast-fail trap that per-replica breakers exist to
	// break. (Don't leave both replicas at zero latency: the scores then
	// differ only by scheduling noise and the test goes flaky.)
	dead := &fakePred{name: "dead", id: "x", err: errors.New("boom")}
	ok := &fakePred{name: "ok", id: "x", delay: 2 * time.Millisecond}
	pl := mustPool(t, Config{
		Breaker: batch.BreakerConfig{Threshold: 2, Cooldown: time.Hour},
		Seed:    3, Obs: reg,
	}, dead, ok)

	// Drive queries until the dead replica's breaker opens; each query
	// it fails meanwhile goes on to the healthy replica.
	for i := 0; i < 100 && pl.States()[0] != batch.BreakerOpen; i++ {
		_, _ = pl.QueryContext(context.Background(), fmt.Sprintf("q%d", i))
	}
	if got := pl.States()[0]; got != batch.BreakerOpen {
		t.Fatalf("dead replica breaker state = %v, want open", got)
	}
	if got := reg.CounterValue("mqo_pool_ejected_total", "replica", "0"); got != 1 {
		t.Errorf("ejected counter = %v, want 1", got)
	}
	// With the dead replica ejected, every query now succeeds.
	for i := 0; i < 20; i++ {
		if _, err := pl.QueryContext(context.Background(), fmt.Sprintf("after%d", i)); err != nil {
			t.Fatalf("query after ejection failed: %v", err)
		}
	}
	if got := pl.States()[1]; got != batch.BreakerClosed {
		t.Errorf("healthy replica breaker state = %v, want closed", got)
	}
}

// TestAllEjectedFailsFast: when every replica is ejected the pool
// reports batch.ErrCircuitOpen — the sentinel the executor's fallback
// path already understands.
func TestAllEjectedFailsFast(t *testing.T) {
	dead1 := &fakePred{name: "d1", id: "x", err: errors.New("boom")}
	dead2 := &fakePred{name: "d2", id: "x", err: errors.New("boom")}
	pl := mustPool(t, Config{
		Breaker: batch.BreakerConfig{Threshold: 1, Cooldown: time.Hour},
		Seed:    5,
	}, dead1, dead2)

	for i := 0; i < 50; i++ {
		_, _ = pl.QueryContext(context.Background(), fmt.Sprintf("q%d", i))
	}
	if _, err := pl.QueryContext(context.Background(), "final"); !errors.Is(err, batch.ErrCircuitOpen) {
		t.Fatalf("all-ejected error = %v, want batch.ErrCircuitOpen", err)
	}
}

// TestEjectedReplicaRecovers: after the cooldown a probe succeeds and
// the replica rejoins rotation.
func TestEjectedReplicaRecovers(t *testing.T) {
	// As above: the flaky replica fails fast, the healthy one is slower,
	// so routing deterministically offers the flaky one first.
	flaky := &fakePred{name: "flaky", id: "x", err: errors.New("boom")}
	ok := &fakePred{name: "ok", id: "x", delay: time.Millisecond}
	pl := mustPool(t, Config{
		Breaker: batch.BreakerConfig{Threshold: 1, Cooldown: 5 * time.Millisecond},
		Seed:    9,
	}, flaky, ok)

	for i := 0; i < 50 && pl.States()[0] != batch.BreakerOpen; i++ {
		_, _ = pl.QueryContext(context.Background(), fmt.Sprintf("q%d", i))
	}
	if pl.States()[0] != batch.BreakerOpen {
		t.Fatal("flaky replica never ejected")
	}
	flaky.err = nil // backend healed
	time.Sleep(10 * time.Millisecond)
	// Probe until the breaker closes again.
	for i := 0; i < 200 && pl.States()[0] != batch.BreakerClosed; i++ {
		_, _ = pl.QueryContext(context.Background(), fmt.Sprintf("r%d", i))
		time.Sleep(time.Millisecond)
	}
	if got := pl.States()[0]; got != batch.BreakerClosed {
		t.Fatalf("healed replica state = %v, want closed", got)
	}
}

// TestClientErrorsDoNotTripBreaker: a 4xx is the request's fault; the
// replica must stay in rotation.
func TestClientErrorsDoNotTripBreaker(t *testing.T) {
	bad := &fakePred{name: "bad", id: "x", err: &llm.APIError{StatusCode: 400, Message: "bad prompt"}}
	pl := mustPool(t, Config{
		Breaker: batch.BreakerConfig{Threshold: 1, Cooldown: time.Hour},
		Seed:    11,
	}, bad)
	for i := 0; i < 10; i++ {
		_, _ = pl.QueryContext(context.Background(), fmt.Sprintf("q%d", i))
	}
	if got := pl.States()[0]; got != batch.BreakerClosed {
		t.Errorf("breaker state after 4xx storm = %v, want closed", got)
	}
}

// inOrder is a Scorer that ranks replicas by index, so a test knows
// which replica takes each leg.
type inOrder struct{}

func (inOrder) Name() string { return "in-order" }

func (inOrder) Rank(a Attempt, v View) Ranking {
	var order []int
	for i := 0; i < v.Len(); i++ {
		if i != a.Exclude {
			order = append(order, i)
		}
	}
	return Ranking{Order: order, Affine: -1}
}

// TestFailoverToNextReplica: without hedging, a prompt whose replica
// fails transiently is asked once more, of the scorer's next choice,
// under a pool.pick span of kind failover.
func TestFailoverToNextReplica(t *testing.T) {
	reg := obs.NewRegistry()
	dead := &fakePred{name: "dead", id: "x", err: &llm.APIError{StatusCode: 503, Message: "down"}}
	also := &fakePred{name: "also-dead", id: "x", err: errors.New("boom")}
	ok := &fakePred{name: "ok", id: "x"}
	pl := mustPool(t, Config{Scorer: inOrder{}, Obs: reg}, dead, ok)
	resp, err := pl.QueryContext(context.Background(), "p")
	if err != nil {
		t.Fatalf("QueryContext with a healthy second replica: %v", err)
	}
	if resp.Text != "ok:p" || dead.calls.Load() != 1 || ok.calls.Load() != 1 {
		t.Fatalf("answer %q after %d/%d calls, want ok:p after one call each", resp.Text, dead.calls.Load(), ok.calls.Load())
	}
	var kinds []string
	for _, tr := range reg.Traces() {
		if tr.Name == "pool.pick" {
			kinds = append(kinds, tr.Attrs["kind"]+"@"+tr.Attrs["replica"])
		}
	}
	if strings.Join(kinds, ",") != "primary@0,failover@1" {
		t.Errorf("pool.pick spans %v, want primary@0 then failover@1", kinds)
	}
	if got := reg.CounterValue("mqo_pool_hedges_total"); got != 0 {
		t.Errorf("an unhedged failover counted %v hedges", got)
	}

	// Only once: when the failover leg fails too, the query fails with
	// the first leg's error.
	pl = mustPool(t, Config{Scorer: inOrder{}}, dead, also, ok)
	if _, err := pl.QueryContext(context.Background(), "q"); err != dead.err {
		t.Fatalf("error %v, want the first leg's %v", err, dead.err)
	}
	if also.calls.Load() != 1 {
		t.Errorf("second replica asked %d times, want 1", also.calls.Load())
	}
	if ok.calls.Load() != 1 {
		t.Errorf("third replica asked after two failures (%d calls)", ok.calls.Load()-1)
	}
}

// TestNoFailover: a client fault, an ended context or a pool of one
// replica returns the first error without asking another replica,
// hedged or not.
func TestNoFailover(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name     string
		ctx      context.Context
		err      error
		replicas int
	}{
		{"client fault", context.Background(), &llm.APIError{StatusCode: 400, Message: "bad prompt"}, 2},
		{"ended context", canceled, errors.New("boom"), 2},
		{"one replica", context.Background(), errors.New("boom"), 1},
	}
	for _, tc := range cases {
		for _, hedge := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/hedge=%v", tc.name, hedge), func(t *testing.T) {
				reg := obs.NewRegistry()
				first := &fakePred{name: "first", id: "x", err: tc.err}
				other := &fakePred{name: "other", id: "x"}
				reps := []llm.Predictor{first, other}[:tc.replicas]
				pl := mustPool(t, Config{Scorer: inOrder{}, Hedge: hedge, HedgeAfter: time.Hour, Obs: reg}, reps...)
				start := time.Now()
				if _, err := pl.QueryContext(tc.ctx, "p"); err != tc.err {
					t.Fatalf("error %v, want the first replica's %v", err, tc.err)
				}
				if other.calls.Load() != 0 || first.calls.Load() != 1 {
					t.Fatalf("calls first=%d other=%d, want 1 and 0", first.calls.Load(), other.calls.Load())
				}
				if got := reg.CounterValue("mqo_pool_hedges_total"); got != 0 {
					t.Errorf("hedges = %v, want 0", got)
				}
				if d := time.Since(start); d > 10*time.Second {
					t.Errorf("query took %v; it waited for HedgeAfter", d)
				}
			})
		}
	}
}

// TestHedgeStartsOnEarlyFailure: with hedging, a primary that fails
// before HedgeAfter starts the hedge leg at once, which answers and
// counts as a hedge and its win.
func TestHedgeStartsOnEarlyFailure(t *testing.T) {
	reg := obs.NewRegistry()
	dead := &fakePred{name: "dead", id: "x", err: &llm.APIError{StatusCode: 503, Message: "down"}}
	ok := &fakePred{name: "ok", id: "x"}
	pl := mustPool(t, Config{Scorer: inOrder{}, Hedge: true, HedgeAfter: time.Hour, Obs: reg}, dead, ok)
	start := time.Now()
	resp, err := pl.QueryContext(context.Background(), "p")
	if err != nil {
		t.Fatalf("QueryContext with a healthy hedge replica: %v", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("query took %v; the hedge waited for HedgeAfter", d)
	}
	if resp.Text != "ok:p" || dead.calls.Load() != 1 || ok.calls.Load() != 1 {
		t.Fatalf("answer %q after %d/%d calls, want ok:p after one call each", resp.Text, dead.calls.Load(), ok.calls.Load())
	}
	if h, w := reg.CounterValue("mqo_pool_hedges_total"), reg.CounterValue("mqo_pool_hedge_wins_total"); h != 1 || w != 1 {
		t.Errorf("hedges=%v wins=%v, want 1 and 1", h, w)
	}
}

// TestPicksSpreadAcrossReplicas: with equal health, P2C routing must
// actually use more than one replica.
func TestPicksSpreadAcrossReplicas(t *testing.T) {
	a := &fakePred{name: "a", id: "x"}
	b := &fakePred{name: "b", id: "x"}
	c := &fakePred{name: "c", id: "x"}
	pl := mustPool(t, Config{Seed: 13}, a, b, c)
	for i := 0; i < 300; i++ {
		if _, err := pl.QueryContext(context.Background(), fmt.Sprintf("q%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []*fakePred{a, b, c} {
		if f.calls.Load() == 0 {
			t.Errorf("replica %s never picked across 300 queries", f.name)
		}
	}
}

// TestDeadlineEjectsHungReplica: a replica that never answers runs out
// the executor's QueryTimeout on every attempt it gets. An attempt that
// ends at its deadline is the replica's failure, so its breaker and its
// EWMA learn it and the pool stops sending it prompts: of 60 distinct
// prompts asked one at a time, at most the breaker's threshold fail,
// under either scorer.
func TestDeadlineEjectsHungReplica(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scorer Scorer
	}{{"p2c", nil}, {"affinity", &Affinity{}}} {
		t.Run(tc.name, func(t *testing.T) {
			hung := &fakePred{name: "hung", id: "x", delay: time.Hour}
			pl := mustPool(t, Config{Breaker: batch.BreakerConfig{Threshold: 2}, Scorer: tc.scorer, Seed: 1},
				&fakePred{name: "a", id: "x"}, &fakePred{name: "b", id: "x"}, hung)
			e, err := batch.New(pl, batch.Config{QueryTimeout: 20 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			failed := 0
			for i := 0; i < 60; i++ {
				o := e.Do(context.Background(), batch.Request{ID: fmt.Sprint(i), Prompt: fmt.Sprintf("prompt %d", i)})
				if o.Err != nil {
					if !errors.Is(o.Err, batch.ErrQueryTimeout) {
						t.Fatalf("request %d: %v, want a timeout", i, o.Err)
					}
					failed++
				}
				// The executor stops waiting at the deadline; let the
				// pool record the attempt's verdict before the next pick.
				waitSettled(t, pl)
			}
			if failed > 2 {
				t.Errorf("%d of 60 requests failed, want at most 2 (the hung replica's breaker threshold)", failed)
			}
			if n := hung.calls.Load(); n != int64(failed) {
				t.Errorf("hung replica got %d calls for %d failures", n, failed)
			}
		})
	}
}

// waitSettled waits until no replica of pl has an attempt in flight.
func waitSettled(t *testing.T, pl *Pool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, r := range pl.replicas {
		for r.inflight.Load() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("replica %s still has %d attempts in flight", r.label, r.inflight.Load())
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}
