package pool

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/promptcache"
	"repro/internal/xrand"
)

// affinityCounters sums the pool's pick/affinity counter families
// across replica labels.
func affinityCounters(reg *obs.Registry) (picks, hits, misses float64) {
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "mqo_pool_picks_total":
			picks += s.Value
		case "mqo_pool_affinity_hits_total":
			hits += s.Value
		case "mqo_pool_affinity_misses_total":
			misses += s.Value
		}
	}
	return picks, hits, misses
}

// TestAffinityDeterministicPlacement: under the Affinity scorer each
// prompt is owned by exactly one replica — re-asking routes to the
// same replica every time — while distinct prompts spread across the
// set. Serial and healthy, so every pick is an affinity hit.
func TestAffinityDeterministicPlacement(t *testing.T) {
	reg := obs.NewRegistry()
	a := &fakePred{name: "a", id: "x"}
	b := &fakePred{name: "b", id: "x"}
	c := &fakePred{name: "c", id: "x"}
	pl := mustPool(t, Config{Scorer: &Affinity{}, Seed: 21, Obs: reg}, a, b, c)

	const n = 60
	owner := make(map[string]string, n)
	for i := 0; i < n; i++ {
		pr := fmt.Sprintf("prompt-%d", i)
		resp, err := pl.Query(pr)
		if err != nil {
			t.Fatal(err)
		}
		owner[pr] = strings.SplitN(resp.Text, ":", 2)[0]
	}
	for i := 0; i < n; i++ {
		pr := fmt.Sprintf("prompt-%d", i)
		resp, err := pl.Query(pr)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.SplitN(resp.Text, ":", 2)[0]; got != owner[pr] {
			t.Errorf("prompt %q moved from replica %s to %s between asks", pr, owner[pr], got)
		}
	}
	used := map[string]bool{}
	for _, o := range owner {
		used[o] = true
	}
	if len(used) < 2 {
		t.Errorf("all %d prompts placed on one replica; rendezvous is not spreading", n)
	}
	picks, hits, misses := affinityCounters(reg)
	if picks != 2*n || hits != 2*n || misses != 0 {
		t.Errorf("picks=%v hits=%v misses=%v, want %d/%d/0 (healthy serial run must be all hits)",
			picks, hits, misses, 2*n, 2*n)
	}
}

// TestAffinityStableUnderReplicaGrowth pins the rendezvous property
// the scorer exists for: growing the pool from 3 to 5 slots moves only
// ~2/5 of the key space — never the wholesale reshuffle a modulo
// placement would cause.
func TestAffinityStableUnderReplicaGrowth(t *testing.T) {
	shared := &fakePred{name: "m", id: "m/seed=1"}
	p3 := mustPool(t, Config{Scorer: &Affinity{}}, shared, shared, shared)
	p5 := mustPool(t, Config{Scorer: &Affinity{}}, shared, shared, shared, shared, shared)
	if p3.ns != p5.ns {
		t.Fatalf("namespace changed with replica count: %q vs %q", p3.ns, p5.ns)
	}

	const n = 200
	moved := 0
	for i := 0; i < n; i++ {
		key := promptcache.KeyOf(p3.ns, fmt.Sprintf("prompt-%d", i))
		o3 := rendezvousOrder(key, p3, -1)[0]
		o5 := rendezvousOrder(key, p5, -1)[0]
		// The first three slots keep their identities (#0..#2), so an
		// unmoved key has the same owner index in both pools.
		if o3 != o5 {
			moved++
			if o5 < 3 {
				t.Errorf("prompt-%d moved between surviving replicas (%d -> %d); only moves to new slots are allowed", i, o3, o5)
			}
		}
	}
	// Expectation is 2/5 of keys moving to the two new slots; allow
	// generous sampling noise but reject both a reshuffle and a
	// placement that ignores the new slots.
	if moved > n*3/5 {
		t.Errorf("%d/%d keys moved on 3->5 growth; rendezvous should move ~2/5", moved, n)
	}
	if moved < n/10 {
		t.Errorf("only %d/%d keys moved on 3->5 growth; new replicas own no key space", moved, n)
	}
}

// TestAffinityFallsBackWhenAffineEjected is the acceptance criterion's
// degraded half: with the shard owner dead and ejected, its prompts
// degrade to P2C over the healthy replicas — queries keep succeeding,
// no batch.ErrCircuitOpen surfaces, and the misses counter shows which
// shard is paying cold tokens.
func TestAffinityFallsBackWhenAffineEjected(t *testing.T) {
	reg := obs.NewRegistry()
	dead := &fakePred{name: "dead", id: "x", err: errors.New("boom")}
	ok1 := &fakePred{name: "ok1", id: "x", delay: time.Millisecond}
	ok2 := &fakePred{name: "ok2", id: "x", delay: time.Millisecond}
	pl := mustPool(t, Config{
		Scorer:  &Affinity{},
		Breaker: batch.BreakerConfig{Threshold: 2, Cooldown: time.Hour},
		Seed:    23, Obs: reg,
	}, dead, ok1, ok2)

	// Drive the dead owner's shard until its breaker opens; errors are
	// expected while it is in rotation (retries are the executor's job).
	for i := 0; i < 200 && pl.States()[0] != batch.BreakerOpen; i++ {
		_, _ = pl.QueryContext(context.Background(), fmt.Sprintf("warm-%d", i))
	}
	if got := pl.States()[0]; got != batch.BreakerOpen {
		t.Fatalf("dead owner never ejected: state %v", got)
	}

	// Ejected owner: every query — including its shard — must succeed.
	for i := 0; i < 100; i++ {
		resp, err := pl.QueryContext(context.Background(), fmt.Sprintf("after-%d", i))
		if err != nil {
			t.Fatalf("query %d after ejection: %v", i, err)
		}
		if strings.HasPrefix(resp.Text, "dead:") {
			t.Fatalf("query %d answered by the ejected replica", i)
		}
	}
	_, _, misses := affinityCounters(reg)
	if misses == 0 {
		t.Error("no affinity misses recorded while the shard owner was ejected")
	}
	if got := reg.CounterValue("mqo_pool_affinity_misses_total", "replica", "0"); got == 0 {
		t.Error("misses not attributed to the ejected owner's label")
	}
}

// TestAffinityOverloadGuard: a busy owner keeps its prompts. An owner
// whose breaker looks ready stays first however deep its queue and
// however bad its score — ten requests in flight and a score 50x the
// other replica's — and drops to last, its pick a miss, only when its
// breaker opens.
func TestAffinityOverloadGuard(t *testing.T) {
	a := &fakePred{name: "a", id: "x"}
	b := &fakePred{name: "b", id: "x"}
	pl := mustPool(t, Config{Scorer: &Affinity{}, Breaker: batch.BreakerConfig{Threshold: 1, Cooldown: time.Hour}}, a, b)

	att := pl.attempt("guard-probe", xrand.New(1))
	affine := rendezvousOrder(att.Key, pl, -1)[0]
	other := 1 - affine
	sc := &Affinity{}

	pl.replicas[affine].observe(0.05)
	pl.replicas[affine].inflight.Add(10)
	pl.replicas[other].observe(0.011)
	if r := pl.Score(affine) / pl.Score(other); r < 50 {
		t.Fatalf("owner scores %.1fx the other replica, want >= 50x", r)
	}
	if rk := sc.Rank(att, pl); rk.Order[0] != affine || rk.Affine != affine {
		t.Fatalf("ready owner abandoned under load: order %v, affine %d", rk.Order, rk.Affine)
	}

	// One failure opens the owner's breaker: now it drops to last and
	// Affine still names it, so the pick counts as a miss.
	brk := pl.replicas[affine].brk
	if err := brk.Allow(); err != nil {
		t.Fatal(err)
	}
	brk.Report(false)
	rk := sc.Rank(att, pl)
	if rk.Order[0] != other || rk.Order[len(rk.Order)-1] != affine {
		t.Fatalf("owner with an open breaker not moved last: order %v", rk.Order)
	}
	if rk.Affine != affine {
		t.Fatalf("Affine = %d after the owner's breaker opened, want owner %d", rk.Affine, affine)
	}
}

// TestAffinityHedgeSecondHashChoice: a hedge excludes the primary, so
// under the Affinity scorer it lands on the key's *second* rendezvous
// choice — the deterministic spill target whose cache may be warm —
// not on a random cold replica.
func TestAffinityHedgeSecondHashChoice(t *testing.T) {
	preds := []*fakePred{
		{name: "r0", id: "x"},
		{name: "r1", id: "x"},
		{name: "r2", id: "x"},
	}
	reg := obs.NewRegistry()
	pl := mustPool(t, Config{Scorer: &Affinity{}, Hedge: true, HedgeAfter: 2 * time.Millisecond, Obs: reg},
		preds[0], preds[1], preds[2])

	const prompt = "hedge-me"
	ord := rendezvousOrder(pl.attempt(prompt, xrand.New(1)).Key, pl, -1)
	preds[ord[0]].delay = 30 * time.Second // owner hangs; hedge must rescue

	resp, err := pl.QueryContext(context.Background(), prompt)
	if err != nil {
		t.Fatal(err)
	}
	wantPrefix := preds[ord[1]].name + ":"
	if !strings.HasPrefix(resp.Text, wantPrefix) {
		t.Errorf("hedge answered from %q, want second hash choice %q (order %v)", resp.Text, wantPrefix, ord)
	}
	if got := reg.CounterValue("mqo_pool_hedge_wins_total"); got != 1 {
		t.Errorf("hedge wins = %v, want 1", got)
	}
	// Both picks are affinity hits: the primary landed on the key's
	// owner, the hedge on the owner of the primary-excluded ranking.
	_, hits, misses := affinityCounters(reg)
	if hits != 2 || misses != 0 {
		t.Errorf("hits=%v misses=%v, want 2/0", hits, misses)
	}
}

// TestP2CFallbackSpreadsByScore is the regression test for the
// index-order fallback bug: with most of the pool ejected, spill load
// must spread across the healthy replicas by score instead of piling
// onto the lowest-index one.
func TestP2CFallbackSpreadsByScore(t *testing.T) {
	boom := errors.New("boom")
	preds := make([]*fakePred, 8)
	replicas := make([]llm.Predictor, 8)
	for i := range preds {
		preds[i] = &fakePred{name: fmt.Sprintf("r%d", i), id: "x"}
		if i < 6 {
			preds[i].err = boom // dead replicas fail instantly (score stays tiny)
		} else {
			preds[i].delay = 2 * time.Millisecond
		}
		replicas[i] = preds[i]
	}
	pl := mustPool(t, Config{
		Breaker: batch.BreakerConfig{Threshold: 1, Cooldown: time.Hour},
		Seed:    17,
	}, replicas...)

	allDeadOpen := func() bool {
		for i, s := range pl.States() {
			if i < 6 && s != batch.BreakerOpen {
				return false
			}
		}
		return true
	}
	for i := 0; i < 500 && !allDeadOpen(); i++ {
		_, _ = pl.QueryContext(context.Background(), fmt.Sprintf("warm-%d", i))
	}
	if !allDeadOpen() {
		t.Fatal("dead replicas never all ejected")
	}

	base6, base7 := preds[6].calls.Load(), preds[7].calls.Load()
	const n = 300
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := pl.QueryContext(context.Background(), fmt.Sprintf("spill-%d", i)); err != nil {
				t.Errorf("spill query %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	got6, got7 := preds[6].calls.Load()-base6, preds[7].calls.Load()-base7
	total := got6 + got7
	if total < n {
		t.Fatalf("healthy replicas served %d calls, want >= %d", total, n)
	}
	// Index-order fallback sent ~98% of spill to replica 6; score-aware
	// fallback balances via the inflight term. Require each healthy
	// replica to carry a real share.
	for name, got := range map[string]int64{"r6": got6, "r7": got7} {
		if got*5 < total {
			t.Errorf("replica %s served %d of %d spill calls (<20%%); fallback is concentrating load", name, got, total)
		}
	}
}

// TestCanceledAttemptDoesNotPoisonEWMA: a canceled attempt measures
// the cancellation moment, not the backend, and must not teach the
// routing EWMA.
func TestCanceledAttemptDoesNotPoisonEWMA(t *testing.T) {
	slow := &fakePred{name: "slow", id: "x", delay: time.Hour}
	pl := mustPool(t, Config{}, slow)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	if _, err := pl.do(ctx, pl.replicas[0], "p", false); err == nil {
		t.Fatal("canceled attempt returned no error")
	}
	if got := pl.replicas[0].ewma.Load(); got != 0 {
		t.Errorf("canceled attempt taught the EWMA (bits %#x); a 5ms cancel would masquerade as backend speed", got)
	}

	// Control: a completed attempt does teach it.
	fast := &fakePred{name: "fast", id: "x", delay: time.Millisecond}
	pl2 := mustPool(t, Config{}, fast)
	if _, err := pl2.do(context.Background(), pl2.replicas[0], "p", false); err != nil {
		t.Fatal(err)
	}
	if pl2.replicas[0].ewma.Load() == 0 {
		t.Error("completed attempt did not teach the EWMA")
	}
}

// TestHedgeLossChargedWhenErrorPrecedesWin: an attempt that errors
// while the race is still open must be ledgered as StageHedgeLoss once
// the other attempt wins — its duplicate work existed whether or not
// it outlived the winner.
func TestHedgeLossChargedWhenErrorPrecedesWin(t *testing.T) {
	reg := obs.NewRegistry()
	bad := &fakePred{name: "bad", id: "x", delay: 3 * time.Millisecond, err: errors.New("boom")}
	good := &fakePred{name: "good", id: "x", delay: 40 * time.Millisecond}
	pl := mustPool(t, Config{Hedge: true, HedgeAfter: time.Millisecond, Seed: 1, Obs: reg}, bad, good)

	led := obs.NewLedger(reg, "trace-hedge-loss", "q")
	ctx := obs.ContextWithLedger(context.Background(), led)
	// Whichever replica is picked first, the failing attempt resolves
	// (~4ms) long before the good one answers (~40ms), while the race
	// is still open. The win must then post the parked loss.
	if _, err := pl.QueryContext(ctx, "p"); err != nil {
		t.Fatal(err)
	}
	snap := led.Close(100 * time.Millisecond)
	var lossWall time.Duration
	found := false
	for _, e := range snap.Entries {
		if e.Stage == obs.StageHedgeLoss {
			found = true
			if e.Billed {
				t.Error("hedge loss charged as billed; duplicate work is never billed")
			}
			lossWall += e.Wall
		}
	}
	if !found {
		t.Fatal("no StageHedgeLoss entry; the early-erroring attempt's work vanished from the books")
	}
	if lossWall <= 0 {
		t.Errorf("hedge loss wall = %v, want > 0", lossWall)
	}
}

// TestHedgeBothFailChargesNoLoss: when no attempt wins there is no
// winning path to duplicate — the failed attempts surface as the
// query's error, not as hedge waste.
func TestHedgeBothFailChargesNoLoss(t *testing.T) {
	reg := obs.NewRegistry()
	bad1 := &fakePred{name: "b1", id: "x", delay: 2 * time.Millisecond, err: errors.New("boom")}
	bad2 := &fakePred{name: "b2", id: "x", delay: 2 * time.Millisecond, err: errors.New("boom")}
	pl := mustPool(t, Config{Hedge: true, HedgeAfter: time.Millisecond, Seed: 1, Obs: reg}, bad1, bad2)

	led := obs.NewLedger(reg, "trace-both-fail", "q")
	ctx := obs.ContextWithLedger(context.Background(), led)
	if _, err := pl.QueryContext(ctx, "p"); err == nil {
		t.Fatal("both-fail query succeeded")
	}
	snap := led.Close(100 * time.Millisecond)
	for _, e := range snap.Entries {
		if e.Stage == obs.StageHedgeLoss {
			t.Fatalf("hedge loss charged %v with no winner", e.Wall)
		}
	}
}

// TestAffinityWarmReRunPaysZero is the acceptance criterion's warm
// half at pool scope: three replicas each fronting their own disk
// cache, a cold pass to populate the shards, then a full re-run that
// pays zero inner predictor calls with every pick an affinity hit.
func TestAffinityWarmReRunPaysZero(t *testing.T) {
	inner := &fakePred{name: "m", id: "m/seed=1"}
	reg := obs.NewRegistry()
	replicas := make([]llm.Predictor, 3)
	for i := range replicas {
		pc, err := promptcache.Open(t.TempDir(), promptcache.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		replicas[i] = promptcache.Wrap(inner, pc)
	}
	pl := mustPool(t, Config{Scorer: &Affinity{}, Seed: 5, Obs: reg}, replicas...)

	const n = 90
	for i := 0; i < n; i++ {
		if _, err := pl.Query(fmt.Sprintf("prompt-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := inner.calls.Load(); got != n {
		t.Fatalf("cold pass made %d inner calls, want %d", got, n)
	}
	coldPicks, coldHits, _ := affinityCounters(reg)

	for i := 0; i < n; i++ {
		if _, err := pl.Query(fmt.Sprintf("prompt-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := inner.calls.Load() - n; got != 0 {
		t.Errorf("warm re-run paid %d inner predictor calls, want 0", got)
	}
	warmPicks, warmHits, warmMisses := affinityCounters(reg)
	if warmPicks-coldPicks != n || warmHits-coldHits != n || warmMisses != 0 {
		t.Errorf("warm pass picks=%v hits=%v misses=%v, want %d/%d/0",
			warmPicks-coldPicks, warmHits-coldHits, warmMisses, n, n)
	}
}
