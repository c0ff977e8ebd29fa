//go:build soak

package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/predictors"
	"repro/internal/promptcache"
)

// The soak layer (built with -tags soak) runs the whole degraded-mode
// stack at once — replica pool, hedging, per-replica breakers, memory +
// disk cache, per-query timeouts, surrogate fallback — under a
// deterministic fault schedule, and checks the global invariants that
// the unit layers each assert in isolation:
//
//	every planned query is answered exactly once (LLM or surrogate);
//	the cache's own Stats() agree with the mqo_cache_* metrics;
//	nothing leaks a goroutine, even with hangs, hedges and ejections.
//
// In -short mode (CI) the soak shrinks from 10k to 2k total query
// executions; the invariants are identical.

// soakQueries returns the per-pass plan size: 2000 x 5 passes = 10k
// query executions normally, 500 x 4 = 2k under -short.
func soakQueries() int {
	if testing.Short() {
		return 500
	}
	return 2000
}

func soakPasses() int {
	if testing.Short() {
		return 4
	}
	return 5
}

func TestSoakChaosPoolCacheFallback(t *testing.T) {
	queries := soakQueries()
	f := newFixture(t, 2600, queries, 31)
	m := predictors.KHopRandom{K: 1}
	plan := Plan{Queries: f.split.Query}
	if len(plan.Queries) != queries {
		t.Fatalf("split produced %d queries, want %d", len(plan.Queries), queries)
	}
	sur := fitTestSurrogate(t, f)
	fcfg := llm.FaultConfig{Seed: 77, ErrorRate: 0.1, HangRate: 0.05}

	reg := obs.NewRegistry()
	pcache, err := promptcache.Open(t.TempDir(), promptcache.Config{
		// One full pass stores ~178KB; this budget keeps most of the
		// working set warm across passes while still forcing LRU
		// evictions mid-soak (so the eviction accounting is exercised).
		MaxBytes: 160 << 10,
		Obs:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Baseline after the surrogate fit and cache open, before any
	// execution machinery spins up.
	runtime.GC()
	baseline := runtime.NumGoroutine()

	cfg := ExecConfig{
		Workers:      8,
		QueryTimeout: 50 * time.Millisecond,
		Disk:         pcache,
		ReplicaCount: 3,
		Hedge:        true,
		HedgeAfter:   5 * time.Millisecond,
		Breaker:      batch.BreakerConfig{Threshold: 5, Cooldown: 20 * time.Millisecond},
		Fallback:     sur,
	}
	for pass := 0; pass < soakPasses(); pass++ {
		ctx := f.freshCtx()
		ctx.Obs = reg
		// One fresh injector per pass: fates are prompt-keyed, so every
		// pass replays the identical fault schedule against the cache.
		res, err := ExecuteWith(ctx, m, f.faultedSim(t, fcfg), plan, cfg)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		// The load-bearing invariant: chaos degrades answers, it never
		// loses them. Every planned query is answered exactly once.
		if res.LLMAnswered()+res.SurrogateAnswered() != len(plan.Queries) {
			t.Fatalf("pass %d: LLM %d + surrogate %d != planned %d",
				pass, res.LLMAnswered(), res.SurrogateAnswered(), len(plan.Queries))
		}
		if res.SurrogateAnswered() == 0 {
			t.Fatalf("pass %d: no query degraded to the surrogate; the chaos is vacuous", pass)
		}
		if _, cov := PlanAccuracy(f.g, plan.Queries, res.Pred); cov != 1 {
			t.Fatalf("pass %d: coverage %v with fallback, want 1", pass, cov)
		}
	}

	// The cache's internal ledger and its emitted metrics are two
	// independent accountings of the same events; they must agree.
	st := pcache.Stats()
	if got := reg.CounterValue("mqo_cache_hits_total"); got != float64(st.Hits) {
		t.Fatalf("hits: counter %v != stats %d", got, st.Hits)
	}
	if got := reg.CounterValue("mqo_cache_misses_total"); got != float64(st.Misses) {
		t.Fatalf("misses: counter %v != stats %d", got, st.Misses)
	}
	// Evictions carry a "reason" label (lru vs ttl); sum the series.
	var evictions float64
	for _, s := range reg.Snapshot() {
		if s.Name == "mqo_cache_evictions_total" {
			evictions += s.Value
		}
	}
	if evictions != float64(st.Evictions) {
		t.Fatalf("evictions: counters %v != stats %d", evictions, st.Evictions)
	}
	if got := reg.GaugeValue("mqo_cache_bytes"); got != float64(st.Bytes) {
		t.Fatalf("bytes: gauge %v != stats %d", got, st.Bytes)
	}
	if st.Hits == 0 {
		t.Fatal("no cache hits across passes; the disk tier did nothing")
	}

	// The pool routed and hedged under the chaos.
	var picks, hedges, hedgeWins float64
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "mqo_pool_picks_total":
			picks += s.Value
		case "mqo_pool_hedges_total":
			hedges += s.Value
		case "mqo_pool_hedge_wins_total":
			hedgeWins += s.Value
		}
	}
	if picks == 0 {
		t.Fatal("pool recorded no picks")
	}
	if hedgeWins > hedges {
		t.Fatalf("hedge wins %v > hedges %v", hedgeWins, hedges)
	}

	if err := pcache.Close(); err != nil {
		t.Fatal(err)
	}

	// No goroutine leak: hangs were abandoned by timeout, hedge losers
	// canceled, workers drained. Poll — canceled calls unwind briefly
	// after ExecuteWith returns.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d live, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestSoakDeterministicAcrossReplicaCounts pins the pool's determinism
// contract at soak scale: with Sim-backed replicas sharing one seed,
// predictions, token totals and the fallback set are bit-identical for
// any replica count, hedging on or off. Breakers stay off here — trips
// are timing-dependent by design, so they are exercised in the chaos
// soak above, not in the determinism comparison.
func TestSoakDeterministicAcrossReplicaCounts(t *testing.T) {
	queries := soakQueries() / 2
	f := newFixture(t, 2600, queries, 37)
	m := predictors.KHopRandom{K: 1}
	plan := Plan{Queries: f.split.Query}
	sur := fitTestSurrogate(t, f)
	fcfg := llm.FaultConfig{Seed: 83, ErrorRate: 0.15, HangRate: 0.05}

	run := func(replicas int, hedge bool) *Results {
		res, err := ExecuteWith(f.freshCtx(), m, f.faultedSim(t, fcfg), plan, ExecConfig{
			Workers:      8,
			QueryTimeout: 50 * time.Millisecond,
			ReplicaCount: replicas,
			Hedge:        hedge,
			HedgeAfter:   5 * time.Millisecond,
			Fallback:     sur,
		})
		if err != nil {
			t.Fatalf("replicas=%d hedge=%v: %v", replicas, hedge, err)
		}
		return res
	}

	base := run(1, false)
	if base.SurrogateAnswered() == 0 {
		t.Fatal("no query degraded to the surrogate; the scenario is vacuous")
	}
	for _, tc := range []struct {
		replicas int
		hedge    bool
	}{{3, false}, {3, true}} {
		res := run(tc.replicas, tc.hedge)
		label := "replicas=3"
		if tc.hedge {
			label = "replicas=3 hedged"
		}
		assertSameResults(t, label, base, res)
		if len(res.Fallback) != len(base.Fallback) {
			t.Fatalf("%s: %d fallbacks vs %d baseline", label, len(res.Fallback), len(base.Fallback))
		}
		for v := range base.Fallback {
			if !res.Fallback[v] {
				t.Fatalf("%s: node %d fell back at baseline but not here", label, v)
			}
		}
	}
}

// countingPredictor counts the calls and tokens that actually reach
// the inner predictor — the spend a per-replica cache failed to
// absorb.
type countingPredictor struct {
	inner  llm.Predictor
	calls  atomic.Int64
	tokens atomic.Int64
}

func (c *countingPredictor) Name() string     { return c.inner.Name() }
func (c *countingPredictor) Identity() string { return llm.IdentityOf(c.inner) }

func (c *countingPredictor) Query(promptText string) (llm.Response, error) {
	c.calls.Add(1)
	resp, err := c.inner.Query(promptText)
	if err == nil {
		c.tokens.Add(int64(resp.InputTokens + resp.OutputTokens))
	}
	return resp, err
}

// poolAffinityCounters sums the pool's pick and affinity-hit families
// across replica labels.
func poolAffinityCounters(reg *obs.Registry) (picks, hits float64) {
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "mqo_pool_picks_total":
			picks += s.Value
		case "mqo_pool_affinity_hits_total":
			hits += s.Value
		}
	}
	return picks, hits
}

// TestSoakAffinityWarmPath pins the routing invariant the affinity
// scorer converts from accident to guarantee: with one disk cache per
// replica, a full-plan re-run pays zero predictor calls and tokens at
// ANY replica count, hedging on or off, because every warm prompt is
// routed back to the replica whose cache owns it, however busy that
// replica is. (Without affinity, P2C re-scatters the second pass and
// each replica's cache misses ~(n-1)/n of the prompts it never saw.)
// Unhedged, every warm pick must be an affinity hit, and the warm
// results must be bit-identical to cold.
func TestSoakAffinityWarmPath(t *testing.T) {
	queries := soakQueries() / 2
	f := newFixture(t, 2600, queries, 41)
	m := predictors.KHopRandom{K: 1}
	plan := Plan{Queries: f.split.Query}

	for _, reps := range []int{1, 3, 5} {
		for _, hedge := range []bool{false, true} {
			t.Run(fmt.Sprintf("replicas=%d,hedge=%v", reps, hedge), func(t *testing.T) {
				reg := obs.NewRegistry()
				counter := &countingPredictor{inner: llm.NewSim(llm.GPT35(), f.g.Vocab, f.g.Classes, 13)}
				replicas := make([]llm.Predictor, reps)
				for i := range replicas {
					pc, err := promptcache.Open(t.TempDir(), promptcache.Config{Obs: reg})
					if err != nil {
						t.Fatal(err)
					}
					defer pc.Close()
					replicas[i] = promptcache.Wrap(counter, pc)
				}
				cfg := ExecConfig{
					Workers:    8,
					Replicas:   replicas,
					Affinity:   true,
					Hedge:      hedge,
					HedgeAfter: 50 * time.Millisecond,
				}

				ctx := f.freshCtx()
				ctx.Obs = reg
				cold, err := ExecuteWith(ctx, m, replicas[0], plan, cfg)
				if err != nil {
					t.Fatalf("cold pass: %v", err)
				}
				coldCalls, coldTokens := counter.calls.Load(), counter.tokens.Load()
				if coldCalls == 0 {
					t.Fatal("cold pass reached the predictor zero times; the scenario is vacuous")
				}
				coldPicks, coldHits := poolAffinityCounters(reg)

				wctx := f.freshCtx()
				wctx.Obs = reg
				warm, err := ExecuteWith(wctx, m, replicas[0], plan, cfg)
				if err != nil {
					t.Fatalf("warm pass: %v", err)
				}
				// The shards were populated by the cold pass, so a re-run
				// routed by affinity pays nothing.
				if got := counter.calls.Load() - coldCalls; got != 0 {
					t.Errorf("warm pass paid %d predictor calls across %d replicas, want 0; warm prompts hit cold replicas",
						got, reps)
				}
				if got := counter.tokens.Load() - coldTokens; got != 0 {
					t.Errorf("warm pass paid %d predictor tokens (cold paid %d), want 0", got, coldTokens)
				}
				warmPicks, warmHits := poolAffinityCounters(reg)
				dPicks, dHits := warmPicks-coldPicks, warmHits-coldHits
				if dPicks == 0 {
					t.Fatal("warm pass recorded no picks")
				}
				if !hedge && dHits != dPicks {
					t.Errorf("warm pass affinity hits %v / picks %v, want every pick a hit", dHits, dPicks)
				}
				assertSameResults(t, "warm vs cold", cold, warm)
			})
		}
	}
}

// deadPredictor fails every call — a permanently down backend.
type deadPredictor struct{}

func (deadPredictor) Name() string     { return "dead" }
func (deadPredictor) Identity() string { return "dead" }
func (deadPredictor) Query(string) (llm.Response, error) {
	return llm.Response{}, errors.New("backend down")
}
func (deadPredictor) QueryContext(context.Context, string) (llm.Response, error) {
	return llm.Response{}, errors.New("backend down")
}

// TestSoakAffinityEjectedOwnerDegrades is the acceptance criterion's
// degraded half at plan scale: one replica — the rendezvous owner of
// ~1/3 of the key space — is dead. Its breaker must eject it, its
// shard must degrade to P2C over the healthy replicas (surfacing as
// affinity misses), and no batch.ErrCircuitOpen may ever reach the
// executor's error path: every query is answered by the LLM, no
// fallback, no query errors.
func TestSoakAffinityEjectedOwnerDegrades(t *testing.T) {
	queries := soakQueries() / 2
	f := newFixture(t, 2600, queries, 43)
	m := predictors.KHopRandom{K: 1}
	plan := Plan{Queries: f.split.Query}

	reg := obs.NewRegistry()
	counter := &countingPredictor{inner: llm.NewSim(llm.GPT35(), f.g.Vocab, f.g.Classes, 13)}
	replicas := []llm.Predictor{deadPredictor{}, counter, counter}
	cfg := ExecConfig{
		Workers:  8,
		Replicas: replicas,
		Affinity: true,
		// Retries re-enter the pool: the shard query that eats the
		// ejection (two failures open the breaker) succeeds on its next
		// attempt via the P2C fallback.
		MaxRetries: 2,
		RetryDelay: time.Millisecond,
		Breaker:    batch.BreakerConfig{Threshold: 2, Cooldown: time.Hour},
	}

	ctx := f.freshCtx()
	ctx.Obs = reg
	res, err := ExecuteWith(ctx, m, counter, plan, cfg)
	if err != nil {
		t.Fatalf("execution with one dead shard owner: %v", err)
	}
	if _, cov := PlanAccuracy(f.g, plan.Queries, res.Pred); cov != 1 {
		t.Fatalf("coverage %v with a dead shard owner, want 1", cov)
	}
	if res.SurrogateAnswered() != 0 {
		t.Fatalf("%d queries fell back; degradation should stay inside the pool", res.SurrogateAnswered())
	}
	var misses float64
	for _, s := range reg.Snapshot() {
		if s.Name == "mqo_pool_affinity_misses_total" {
			misses += s.Value
		}
	}
	if misses == 0 {
		t.Fatal("no affinity misses recorded; the dead owner's shard never degraded through the scorer")
	}
	if got := reg.CounterValue("mqo_pool_ejected_total", "replica", "0"); got != 1 {
		t.Errorf("dead owner ejections = %v, want 1", got)
	}
}
