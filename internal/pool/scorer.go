package pool

import (
	"hash/fnv"
	"sort"

	"repro/internal/promptcache"
	"repro/internal/xrand"
)

// This file is the pool's routing brain, split out from the mechanics
// of running attempts. A Scorer turns one routing decision into a
// ranked preference list over the replica set; the pool walks that
// list and the per-replica breakers keep the final say on admission.
// Two scorers ship: P2C (the historical latency×load power-of-two-
// choices policy) and Affinity (rendezvous placement of prompt-cache
// keys, so a warm cache shard is owned by exactly one replica and a
// repeated prompt never pays cold-replica tokens).

// Attempt describes one routing decision: which prompt is being
// placed, whether this is a query's second leg, and which replica
// index (if any) must be avoided because it already ran the prompt.
type Attempt struct {
	// Prompt is the full prompt text being routed.
	Prompt string
	// Key is the prompt's cache key (promptcache.KeyOf over the pool's
	// namespace), precomputed once per query so a second-leg re-pick
	// does not re-hash. Zero when the configured scorer is key-blind.
	Key promptcache.Key
	// Hedge marks a query's second leg: the hedge, or the failover
	// after the primary failed.
	Hedge bool
	// Exclude is a replica index that must not be returned (the primary
	// attempt's replica, during a second-leg pick); -1 excludes nothing.
	Exclude int
	// RNG is the per-query deterministic stream scorers draw candidate
	// picks from. Scorers must consume it identically for identical
	// (Attempt, View) inputs or routing stops being replayable.
	RNG *xrand.RNG
}

// View is the read-only replica state a Scorer ranks against. The pool
// implements it; tests may substitute fixtures.
type View interface {
	// Len is the replica count; valid indices are [0, Len).
	Len() int
	// Score is the load estimate (EWMA latency × queue depth) — lower
	// is better.
	Score(i int) float64
	// ID is the replica's stable rendezvous identity: derived from the
	// backend's answer-function identity, so the key→replica placement
	// survives pool reconstruction and (for distinct backends) replica
	// reordering.
	ID(i int) string
	// Ready reports whether the replica's breaker would plausibly admit
	// a request right now, without the side effects of asking it to.
	Ready(i int) bool
}

// Ranking is a Scorer's verdict: Order lists candidate replica indices
// most-preferred first (the excluded index never appears), and Affine
// names the replica that structurally *owns* the attempt's cache key,
// or -1 for scorers with no affinity notion. Affine may legitimately
// sit behind other replicas in Order (an ejected owner) — the pool
// still uses it to account the pick as an affinity hit or miss.
type Ranking struct {
	Order  []int
	Affine int
}

// Scorer ranks the replica set for one attempt. Implementations must
// be safe for concurrent use and must not mutate the View. Scorers
// express preference only: the pool walks Order and the per-replica
// breakers keep authority over admission, so a scorer can never force
// traffic into an open circuit.
type Scorer interface {
	// Name labels the scorer on pool.pick spans.
	Name() string
	Rank(a Attempt, v View) Ranking
}

// P2C is the default scorer: power-of-two-choices between two random
// candidates by latency×load score, near-optimal spread with no
// coordination. The remaining candidates are ordered ready-first by
// ascending score, so when the winner's breaker refuses, spill load
// spreads across the healthy replicas instead of piling onto the
// lowest index.
type P2C struct{}

// Name implements Scorer.
func (P2C) Name() string { return "p2c" }

// Rank implements Scorer.
func (P2C) Rank(a Attempt, v View) Ranking {
	return Ranking{Order: p2cOrder(a, v, -1), Affine: -1}
}

// p2cOrder is the shared power-of-two-choices ordering: draw two
// distinct candidates from the RNG, put the lower-scored one first,
// then append every other candidate ready-first by ascending score.
// Both a.Exclude and skip are left out entirely. The two RNG draws are
// made exactly as the pre-scorer pool made them, so routing traces
// replay bit-for-bit across the refactor.
func p2cOrder(a Attempt, v View, skip int) []int {
	n := v.Len()
	excluded := func(i int) bool { return i == a.Exclude || i == skip }
	m := 0
	for i := 0; i < n; i++ {
		if !excluded(i) {
			m++
		}
	}
	if m == 0 {
		return nil
	}
	// idx maps a candidate position in [0, m) to a replica index,
	// skipping the excluded ones.
	idx := func(k int) int {
		for i := 0; i < n; i++ {
			if excluded(i) {
				continue
			}
			if k == 0 {
				return i
			}
			k--
		}
		return -1
	}
	x := a.RNG.Intn(m)
	chosen := idx(x)
	if m > 1 {
		y := a.RNG.Intn(m - 1)
		if y >= x {
			y++ // shift past the first pick so the candidates differ
		}
		if cand := idx(y); v.Score(cand) < v.Score(chosen) {
			chosen = cand
		}
	}
	order := make([]int, 0, m)
	order = append(order, chosen)
	rest := make([]int, 0, m-1)
	for i := 0; i < n; i++ {
		if !excluded(i) && i != chosen {
			rest = append(rest, i)
		}
	}
	sort.SliceStable(rest, func(p, q int) bool {
		rp, rq := v.Ready(rest[p]), v.Ready(rest[q])
		if rp != rq {
			return rp // admitted-looking replicas before ejected ones
		}
		return v.Score(rest[p]) < v.Score(rest[q])
	})
	return append(order, rest...)
}

// Affinity routes each prompt to the replica that rendezvous hashing
// (highest random weight over the prompt-cache key) assigns as the
// owner of that key. Every replica whose disk cache saw the prompt
// once keeps answering it for free; adding or removing a replica moves
// only ~1/n of the key space (no modulo reshuffle). The full ranking
// is the rendezvous order, so:
//
//   - the owner keeps its prompts for as long as its breaker looks
//     ready, however busy it is: a momentary in-flight count cannot
//     tell a convoy from goroutines the scheduler merely parked, and
//     every spill re-buys tokens the owner already holds. A slow owner
//     is the hedge's job, a dead one the failover's and the breakers';
//   - a hedge or failover attempt, which excludes the primary, lands
//     on the key's *second* hash choice — the replica most likely to
//     have the prompt warm from a previous degraded pick — instead of
//     a random cold one;
//   - when the owner's breaker refuses, traffic for its shard degrades
//     to P2C over the rest (the owner is kept last in the order so a
//     half-open probe can still reach it when everything else is down
//     too).
//
// The zero value is ready to use.
type Affinity struct{}

// Name implements Scorer.
func (s *Affinity) Name() string { return "affinity" }

// Rank implements Scorer.
func (s *Affinity) Rank(a Attempt, v View) Ranking {
	ord := rendezvousOrder(a.Key, v, a.Exclude)
	if len(ord) == 0 {
		return Ranking{Affine: -1}
	}
	affine := ord[0]
	if v.Ready(affine) {
		return Ranking{Order: ord, Affine: affine}
	}
	// Degraded path: the key's owner is ejected. Spread its shard by
	// P2C over the rest — concentrating a dead owner's load on the
	// second hash choice would just knock replicas over in rendezvous
	// order — but keep the owner last so a recovering breaker still
	// sees probes. Affine stays set: these picks are the misses the
	// mqo_pool_affinity_misses_total counter exists to show.
	rest := p2cOrder(a, v, affine)
	return Ranking{Order: append(rest, affine), Affine: affine}
}

// rendezvousOrder returns every non-excluded replica index by
// descending highest-random-weight for key: position 0 is the key's
// owner, position 1 the second hash choice a hedge should stay warm
// on, and so on. Ties (possible only with colliding hashes) break by
// index for determinism.
func rendezvousOrder(key promptcache.Key, v View, exclude int) []int {
	n := v.Len()
	ord := make([]int, 0, n)
	w := make([]uint64, n)
	for i := 0; i < n; i++ {
		if i == exclude {
			continue
		}
		ord = append(ord, i)
		w[i] = rendezvousWeight(key, v.ID(i))
	}
	sort.SliceStable(ord, func(p, q int) bool { return w[ord[p]] > w[ord[q]] })
	return ord
}

// rendezvousWeight hashes (key, replica identity) to the replica's
// weight for that key — FNV-1a 64, cheap and stable across processes.
func rendezvousWeight(key promptcache.Key, id string) uint64 {
	h := fnv.New64a()
	h.Write(key[:])
	h.Write([]byte(id))
	return h.Sum64()
}

var (
	_ Scorer = P2C{}
	_ Scorer = (*Affinity)(nil)
)
