// Package pool fans queries across N interchangeable predictor
// backends ("replicas") so that one slow or dead replica is no longer
// the whole system's ceiling.
//
// Routing is pluggable (Config.Scorer): a Scorer ranks the replica set
// for every attempt and the pool takes the first admitted candidate.
// The default P2C scorer is health-aware — each replica carries an
// EWMA of its observed latency and an in-flight counter, and every
// query picks between two random candidates, taking the one with the
// lower latency×load score (power-of-two-choices — near-optimal load
// spread without global coordination). The Affinity scorer instead
// places each prompt's cache key on its rendezvous owner, so warm
// prompt-cache shards never pay cold-replica tokens; see scorer.go.
// Each replica is guarded by its own circuit breaker
// (the exact state machine the batch executor uses), so a dead backend
// is ejected from rotation without tripping a global breaker; when
// every replica is ejected the pool fails fast with
// batch.ErrCircuitOpen, which the executor's retry/fallback machinery
// already understands.
//
// Optionally the pool hedges: if the first replica has not answered
// within HedgeAfter, the same prompt is sent to a second replica and
// the first answer wins; the loser's context is canceled. Hedging
// trades a bounded amount of duplicate work for a much shorter tail.
//
// Determinism contract: the pool routes, it never rewrites. With
// llm.Sim-backed replicas sharing a seed, answers are keyed on
// hash(seed, prompt), so plan outputs are bit-identical for any
// replica count, hedging on or off — routing changes who answers,
// never what is answered. DESIGN.md ("Hedging and determinism")
// discusses why this holds.
package pool

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/promptcache"
	"repro/internal/xrand"
)

// Metric names emitted by the pool; the full catalog lives in README.md
// ("Observability").
const (
	metricPicks          = "mqo_pool_picks_total"
	metricHedges         = "mqo_pool_hedges_total"
	metricHedgeWins      = "mqo_pool_hedge_wins_total"
	metricEjected        = "mqo_pool_ejected_total"
	metricAffinityHits   = "mqo_pool_affinity_hits_total"
	metricAffinityMisses = "mqo_pool_affinity_misses_total"
)

// DefaultHedgeAfter is the hedge trigger delay when hedging is enabled
// without an explicit HedgeAfter.
const DefaultHedgeAfter = 50 * time.Millisecond

// ewmaAlpha weights the newest latency sample in the per-replica EWMA.
const ewmaAlpha = 0.3

// Config tunes the pool. The zero value routes without breakers or
// hedging.
type Config struct {
	// Hedge enables hedged requests: a second replica is tried when the
	// first has not answered within HedgeAfter, and the first answer
	// wins. Requires at least two replicas to have any effect.
	Hedge bool
	// HedgeAfter is how long the first attempt may run before the hedge
	// fires (default DefaultHedgeAfter when Hedge is set).
	HedgeAfter time.Duration
	// Breaker configures the per-replica circuit breakers; the zero
	// value disables them (every replica stays in rotation forever).
	Breaker batch.BreakerConfig
	// Scorer ranks the replica set for each attempt; nil means the
	// default P2C policy. Set &Affinity{} for cache-affine routing
	// (rendezvous placement of prompt-cache keys) — warm shards then
	// stay pinned to their owner and hedges go to the key's second
	// hash choice.
	Scorer Scorer
	// Seed drives the scorer's candidate picks deterministically
	// (given a serial caller).
	Seed uint64
	// Obs receives the pool's metrics; nil routes to the process
	// default.
	Obs obs.Recorder
}

// replica is one backend plus its routing health state.
type replica struct {
	p     llm.Predictor
	brk   *batch.Breaker // nil when breakers are disabled
	label string
	// rid is the replica's rendezvous identity: the backend's
	// answer-function identity, disambiguated with a stable #slot
	// suffix when several slots share one backend. Keyed on identity —
	// not on slot index alone — so the key→owner placement survives
	// pool reconstruction, and growing an N-slot pool of one backend
	// keeps the first N identities unchanged (only ~1/(n+1) of the key
	// space moves to the new slot).
	rid string

	inflight atomic.Int64
	ewma     atomic.Uint64 // float64 bits of the EWMA latency (seconds)
}

// observe folds one latency sample into the EWMA (lock-free CAS loop).
func (r *replica) observe(seconds float64) {
	for {
		old := r.ewma.Load()
		next := seconds
		if old != 0 {
			next = (1-ewmaAlpha)*math.Float64frombits(old) + ewmaAlpha*seconds
		}
		if r.ewma.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// score is the routing load estimate: EWMA latency scaled by queue
// depth. Unobserved replicas score near zero, so fresh backends attract
// their first queries immediately.
func (r *replica) score() float64 {
	lat := math.Float64frombits(r.ewma.Load())
	if lat <= 0 {
		lat = 1e-9
	}
	return lat * float64(r.inflight.Load()+1)
}

// Pool is an llm.ContextPredictor that routes every query to one of N
// replica backends. It is safe for concurrent use.
type Pool struct {
	replicas []*replica
	cfg      Config
	rec      obs.Recorder
	seq      atomic.Uint64
	name     string
	identity string
	scorer   Scorer
	// keyed marks that the configured scorer wants prompt-cache keys;
	// ns is the pool's promptcache namespace those keys are derived in
	// (identical to the namespace the disk-cache layers derive, so the
	// scorer places exactly the keys the caches store).
	keyed bool
	ns    string
}

// New builds a pool over the given replicas. The same predictor value
// may appear several times (e.g. one *llm.Sim as N replicas); each
// slot still gets its own breaker and health state.
func New(replicas []llm.Predictor, cfg Config) (*Pool, error) {
	if len(replicas) == 0 {
		return nil, errors.New("pool: no replicas")
	}
	if cfg.Hedge && cfg.HedgeAfter <= 0 {
		cfg.HedgeAfter = DefaultHedgeAfter
	}
	rec := obs.Active(cfg.Obs)
	p := &Pool{cfg: cfg, rec: rec, name: replicas[0].Name()}
	for i, r := range replicas {
		if r == nil {
			return nil, fmt.Errorf("pool: replica %d is nil", i)
		}
		rep := &replica{p: r, label: fmt.Sprintf("%d", i)}
		rep.brk = batch.NewBreaker(cfg.Breaker, rec, "replica", rep.label)
		p.replicas = append(p.replicas, rep)
	}
	p.identity = IdentityOf(replicas)
	p.scorer = cfg.Scorer
	p.keyed = cfg.Scorer != nil
	if p.scorer == nil {
		p.scorer = P2C{}
	}
	p.ns = promptcache.Namespace(p)
	seen := make(map[string]int, len(p.replicas))
	for _, rep := range p.replicas {
		id := llm.IdentityOf(rep.p)
		if n := seen[id]; n > 0 {
			rep.rid = fmt.Sprintf("%s#%d", id, n)
		} else {
			rep.rid = id
		}
		seen[id]++
	}
	return p, nil
}

// IdentityOf derives the answer-function identity of a pool over
// replicas. Replicas sharing one identity answer identically, so the
// pool is transparent (same identity, same promptcache namespace — a
// warm cache stays warm across replica counts). Distinct identities
// mean the answer depends on routing, so the namespace must fold in the
// whole sorted set.
func IdentityOf(replicas []llm.Predictor) string {
	set := make(map[string]bool, len(replicas))
	ids := make([]string, 0, len(replicas))
	for _, r := range replicas {
		id := llm.IdentityOf(r)
		if !set[id] {
			set[id] = true
			ids = append(ids, id)
		}
	}
	if len(ids) == 1 {
		return ids[0]
	}
	sort.Strings(ids)
	return "pool(" + strings.Join(ids, "|") + ")"
}

// Name implements llm.Predictor.
func (p *Pool) Name() string { return p.name }

// Identity implements llm.Identifier; see IdentityOf.
func (p *Pool) Identity() string { return p.identity }

// Size reports the replica count.
func (p *Pool) Size() int { return len(p.replicas) }

// States reports each replica's breaker position (BreakerClosed for all
// when breakers are disabled). Index i is replica i.
func (p *Pool) States() []batch.BreakerState {
	out := make([]batch.BreakerState, len(p.replicas))
	for i, r := range p.replicas {
		if r.brk != nil {
			out[i] = r.brk.State()
		}
	}
	return out
}

// The pool is the View its scorer ranks against.

// Len implements View.
func (p *Pool) Len() int { return len(p.replicas) }

// Score implements View: the replica's latency×load estimate.
func (p *Pool) Score(i int) float64 { return p.replicas[i].score() }

// ID implements View: the replica's stable rendezvous identity.
func (p *Pool) ID(i int) string { return p.replicas[i].rid }

// Ready implements View: whether the replica's breaker would plausibly
// admit a request, without the side effects of Allow.
func (p *Pool) Ready(i int) bool {
	r := p.replicas[i]
	return r.brk == nil || r.brk.Ready()
}

// pick routes one attempt: the scorer ranks the candidates and the
// first replica whose breaker admits the request wins. Scorers express
// preference, breakers keep authority — a replica the scorer loves is
// still skipped while ejected — and when every candidate is refused,
// pick fails with batch.ErrCircuitOpen. The returned verdict labels
// the pick's affinity outcome ("hit" when it landed on the attempt's
// cache-affine replica, "miss" when it had to leave one, "none" for
// key-blind scorers) and is mirrored on the pool.pick span and the
// mqo_pool_affinity_* counters.
func (p *Pool) pick(a Attempt) (*replica, int, string, error) {
	rk := p.scorer.Rank(a, p)
	for _, i := range rk.Order {
		if i < 0 || i >= len(p.replicas) || i == a.Exclude {
			continue // a misbehaving scorer must not crash routing
		}
		r := p.replicas[i]
		if r.brk != nil && r.brk.Allow() != nil {
			continue
		}
		p.rec.Add(metricPicks, 1, "replica", r.label)
		verdict := "none"
		if rk.Affine >= 0 && rk.Affine < len(p.replicas) {
			if i == rk.Affine {
				verdict = "hit"
				p.rec.Add(metricAffinityHits, 1, "replica", r.label)
			} else {
				// Label the miss by the replica that *owns* the key, so
				// a dashboard shows which shard is bleeding tokens.
				verdict = "miss"
				p.rec.Add(metricAffinityMisses, 1, "replica", p.replicas[rk.Affine].label)
			}
		}
		return r, i, verdict, nil
	}
	return nil, -1, "", batch.ErrCircuitOpen
}

// attempt builds the routing Attempt for one query, deriving the
// prompt's cache key once when the scorer is key-aware (the hedge
// re-pick reuses it).
func (p *Pool) attempt(promptText string, rng *xrand.RNG) Attempt {
	a := Attempt{Prompt: promptText, Exclude: -1, RNG: rng}
	if p.keyed {
		a.Key = promptcache.KeyOf(p.ns, promptText)
	}
	return a
}

// do runs one attempt on r, updating health state and feeding the
// breaker. Cancellations (the caller gave up, or a hedge race was lost)
// and client-side API errors do not count against the backend. The
// attempt gets its own child span, which llm.Ask hands to
// context-aware replicas so a remote hop (llm.HTTPPredictor) can
// continue the trace; a Query-only replica finishes even when its
// hedge race is lost, so it still warms its cache.
func (p *Pool) do(ctx context.Context, r *replica, promptText string, hedge bool) (llm.Response, error) {
	actx, sp := obs.StartSpanCtx(ctx, p.rec, "pool.attempt", "replica", r.label, "hedge", fmt.Sprint(hedge))
	r.inflight.Add(1)
	start := time.Now()
	resp, err := llm.Ask(actx, r.p, promptText)
	r.inflight.Add(-1)
	if ctx.Err() == nil {
		// Only completed attempts teach the EWMA. A canceled attempt —
		// hedge loser, caller gave up — measures the cancellation
		// moment, not the backend: folding it in would score a
		// slow-but-healthy replica by how fast its races get called
		// off, poisoning routing against it.
		r.observe(time.Since(start).Seconds())
	}
	if err != nil {
		sp.SetAttr("outcome", "error")
	} else {
		sp.SetAttr("outcome", "ok")
	}
	sp.End()
	p.judge(ctx, r, err)
	return resp, err
}

// judge translates one attempt outcome into a breaker verdict,
// emitting the ejection metric when the verdict opens the circuit.
func (p *Pool) judge(ctx context.Context, r *replica, err error) {
	if r.brk == nil {
		return
	}
	switch {
	case err == nil:
		r.brk.Report(true)
	case ctx.Err() != nil:
		// Canceled or past its deadline: not the backend's fault.
		r.brk.Cancel()
	case llm.ClientFault(err):
		// The request's fault, not the replica's.
		r.brk.Cancel()
	default:
		before := r.brk.State()
		r.brk.Report(false)
		if before != batch.BreakerOpen && r.brk.State() == batch.BreakerOpen {
			p.rec.Add(metricEjected, 1, "replica", r.label)
		}
	}
}

// Query implements llm.Predictor.
func (p *Pool) Query(promptText string) (llm.Response, error) {
	return p.QueryContext(context.Background(), promptText)
}

// result is one attempt's outcome in a hedge race.
type result struct {
	resp  llm.Response
	err   error
	hedge bool
}

// hedgeRace settles the hedge-loss books for one query. Exactly one
// attempt may win (the first success); every other attempt's work is
// duplicate and must be ledgered as an unbilled StageHedgeLoss — but
// only if the race actually produced a winner. The subtle case is an
// attempt that *errors while the race is still open*: whether its work
// was a hedge loss is unknowable until the other attempt finishes, so
// the charge is parked in pending and posted the moment a winner
// appears. When no attempt ever wins, pending is dropped — a query
// where every attempt failed has no "winning path" to duplicate, and
// its cost surfaces as the query's error path, not as hedge waste. All
// transitions run under one mutex so a loss is charged exactly once no
// matter how the goroutines interleave.
type hedgeRace struct {
	ctx context.Context // the query context carrying the ledger

	mu      sync.Mutex
	won     bool
	pending []pendingLoss
}

// pendingLoss is a failed attempt's cost, awaiting a winner.
type pendingLoss struct {
	wall   time.Duration
	tokens int
}

// settle records one attempt's outcome and returns whether it won the
// race.
func (rc *hedgeRace) settle(err error, wall time.Duration, tokens int) (won bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if err == nil {
		if !rc.won {
			rc.won = true
			// A winner exists: every earlier failed attempt's work is
			// now known to be duplicate. Post the parked charges.
			for _, pl := range rc.pending {
				obs.Charge(rc.ctx, obs.StageHedgeLoss, pl.wall, pl.tokens, false)
			}
			rc.pending = nil
			return true
		}
		obs.Charge(rc.ctx, obs.StageHedgeLoss, wall, tokens, false)
		return false
	}
	if rc.won {
		obs.Charge(rc.ctx, obs.StageHedgeLoss, wall, tokens, false)
		return false
	}
	rc.pending = append(rc.pending, pendingLoss{wall: wall, tokens: tokens})
	return false
}

// QueryContext implements llm.ContextPredictor: pick a replica, run the
// query, and — when hedging is on and the first attempt outlives
// HedgeAfter — race a second replica against it. The first success
// wins and the loser's context is canceled; the response is returned
// exactly once, so callers (token meters, caches) never see duplicate
// answers. When both attempts fail, the primary's error is returned.
func (p *Pool) QueryContext(ctx context.Context, promptText string) (llm.Response, error) {
	rng := xrand.New(p.cfg.Seed ^ p.seq.Add(1))
	att := p.attempt(promptText, rng)
	_, psp := obs.StartSpanCtx(ctx, p.rec, "pool.pick", "kind", "primary", "scorer", p.scorer.Name())
	first, firstIdx, verdict, err := p.pick(att)
	if err != nil {
		psp.SetAttr("verdict", "all_ejected")
		psp.End()
		return llm.Response{}, err
	}
	psp.SetAttr("replica", first.label)
	psp.SetAttr("affinity", verdict)
	psp.End()
	if !p.cfg.Hedge || len(p.replicas) < 2 {
		return p.do(ctx, first, promptText, false)
	}

	// Buffered to the maximum number of attempts: a losing goroutine
	// completes its send and exits even after the winner returned, so a
	// hedge race can never leak a goroutine. The hedgeRace settles loss
	// charges in the attempt goroutine, so a loser finishing after the
	// caller moved on still books against the query's ledger —
	// Ledger.Close drops charges that arrive after the books are
	// published.
	ch := make(chan result, 2)
	rc := &hedgeRace{ctx: ctx}
	launch := func(actx context.Context, rep *replica, hedge bool) {
		go func() {
			start := time.Now()
			resp, err := p.do(actx, rep, promptText, hedge)
			rc.settle(err, time.Since(start), resp.InputTokens+resp.OutputTokens)
			ch <- result{resp, err, hedge}
		}()
	}
	ctx1, cancel1 := context.WithCancel(ctx)
	defer cancel1()
	launch(ctx1, first, false)

	timer := time.NewTimer(p.cfg.HedgeAfter)
	defer timer.Stop()
	timerC := timer.C

	var cancel2 context.CancelFunc
	pending := 1
	var firstErr error
	for {
		select {
		case <-timerC:
			timerC = nil
			// The hedge excludes the primary's replica; under the
			// Affinity scorer the ranking then starts at the key's
			// second hash choice, so hedges stay on a replica that may
			// have the prompt warm instead of a random cold one.
			hatt := att
			hatt.Hedge = true
			hatt.Exclude = firstIdx
			_, hsp := obs.StartSpanCtx(ctx, p.rec, "pool.pick", "kind", "hedge", "scorer", p.scorer.Name())
			second, _, hverdict, perr := p.pick(hatt)
			if perr != nil {
				// No healthy second replica; keep waiting on the first.
				hsp.SetAttr("verdict", "all_ejected")
				hsp.End()
				continue
			}
			hsp.SetAttr("replica", second.label)
			hsp.SetAttr("affinity", hverdict)
			hsp.End()
			p.rec.Add(metricHedges, 1)
			var ctx2 context.Context
			ctx2, cancel2 = context.WithCancel(ctx)
			defer cancel2()
			pending++
			launch(ctx2, second, true)
		case r := <-ch:
			pending--
			if r.err == nil {
				if r.hedge {
					p.rec.Add(metricHedgeWins, 1)
					cancel1()
				} else if cancel2 != nil {
					cancel2()
				}
				return r.resp, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if pending == 0 {
				// Every launched attempt failed. Retries belong to the
				// batch executor above, not the pool.
				return llm.Response{}, firstErr
			}
		}
	}
}

var (
	_ llm.Predictor        = (*Pool)(nil)
	_ llm.ContextPredictor = (*Pool)(nil)
	_ llm.Identifier       = (*Pool)(nil)
)
