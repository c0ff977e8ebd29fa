package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/batch"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/predictors"
	"repro/internal/tag"
)

// BoostConfig configures the query boosting strategy (Algorithm 2).
type BoostConfig struct {
	// Gamma1 is the neighbor-label threshold |N_i^L| >= γ1; the paper
	// uses 3 for all datasets.
	Gamma1 int
	// Gamma2 is the conflicting-label threshold LC_i <= γ2; the paper
	// uses 2.
	Gamma2 int
}

// DefaultBoostConfig returns the paper's setting γ1 = 3, γ2 = 2.
func DefaultBoostConfig() BoostConfig {
	return BoostConfig{Gamma1: 3, Gamma2: 2}
}

// RoundTrace records one boosting round for analysis and examples.
type RoundTrace struct {
	Round        int
	Gamma1       int
	Gamma2       int
	Executed     int
	PseudoUses   int // pseudo-labels appearing in this round's prompts
	KnownEntries int // size of the visible-label set after the round
}

// Boost executes the query set with Algorithm 2: each round selects the
// candidate queries whose refreshed neighbor selections carry at least
// γ1 labels with at most γ2 distinct values, executes them, feeds their
// pseudo-labels back into the visible-label set, and relaxes (γ1, γ2)
// whenever no query qualifies. Queries in plan.Prune run without
// neighbor text (the joint strategy of Section VI-H) but still emit
// pseudo-labels and still obey the scheduling order.
//
// ctx.Known is mutated: executed queries are added with their predicted
// labels, exactly as the paper expands V_L and Y_L. Callers who need
// the original map must copy it first.
func Boost(ctx *predictors.Context, m predictors.Method, p llm.Predictor, plan Plan, cfg BoostConfig) (*Results, []RoundTrace, error) {
	return BoostWith(ctx, m, p, plan, cfg, ExecConfig{})
}

// BoostWith is Boost with bounded concurrency inside each round. Rounds
// are already barriers — neighbor selections are fixed before a round
// executes and pseudo-labels are applied only after it — so planning a
// round's queries and running them in parallel is semantics-preserving:
// selections are made on up to ecfg.Workers goroutines, each candidate
// is then built, compressed and asked by the worker that takes it, and
// with an order-independent predictor any worker count produces
// bit-identical rounds, predictions and token totals.
//
// A query whose dispatch fails permanently is dropped from the pending
// set (its pseudo-label never appears) and reported in the aggregated
// *QueryErrors returned alongside the partial results.
func BoostWith(ctx *predictors.Context, m predictors.Method, p llm.Predictor, plan Plan, cfg BoostConfig, ecfg ExecConfig) (*Results, []RoundTrace, error) {
	if err := validatePlan(plan); err != nil {
		return nil, nil, err
	}
	if cfg.Gamma1 < 0 || cfg.Gamma2 < 0 {
		return nil, nil, fmt.Errorf("core: negative boosting thresholds")
	}
	// A safety net on the outer loop: enough rounds for full relaxation
	// plus one round per node.
	maxRounds := len(plan.Queries) + len(ctx.Graph.Classes) + cfg.Gamma1 + 8

	rec := obs.Active(ctx.Obs)
	// One executor serves every round, so BudgetTokens, the breaker and
	// the pool span the whole run.
	e, err := NewExecutor(p, ecfg, rec)
	if err != nil {
		return nil, nil, err
	}
	// The boost plan and its rounds share one trace (rounds are children
	// of the plan span); each query roots its own trace linked back via
	// plan_trace/round attributes on its root span.
	planSpan := rec.StartSpan("core.plan", "mode", "boost", "queries", strconv.Itoa(len(plan.Queries)))
	defer planSpan.End()
	var qerrs QueryErrors

	// isPseudo marks labels added during boosting, to count utilization.
	isPseudo := map[tag.NodeID]bool{}

	pending := append([]tag.NodeID(nil), plan.Queries...)
	res := &Results{Pred: make(map[tag.NodeID]string, len(pending))}
	var trace []RoundTrace

	g1, g2 := cfg.Gamma1, cfg.Gamma2
	relaxG1Next := true
	for round := 1; len(pending) > 0; round++ {
		if round > maxRounds {
			return nil, nil, fmt.Errorf("core: boosting exceeded %d rounds with %d queries pending", maxRounds, len(pending))
		}

		// Step 1: candidate selection with refreshed neighbor text,
		// relaxing thresholds until candidates exist. Selections depend
		// on Known, not on (γ1, γ2), so each round selects once, fanned
		// out over the workers, and relaxing only re-filters.
		type cand struct {
			v                  tag.NodeID
			sel                []predictors.Selected
			labeled, conflicts int
		}
		all := make([]cand, len(pending))
		selectAll := func() {
			batch.FanOut(len(pending), ecfg.Workers, func(i int) {
				c := cand{v: pending[i]}
				if !plan.Prune[c.v] {
					c.sel = m.Select(ctx, c.v)
				}
				c.labeled = predictors.CountLabeled(c.sel)
				c.conflicts = predictors.LabelConflicts(c.sel)
				all[i] = c
			})
		}
		if round == 1 {
			// Every pending query selects over the starting labels, so
			// SNS may index them once for the round: the scope ends
			// before Step 3 first writes Known.
			ctx.WithFixedLabels(selectAll)
		} else {
			selectAll()
		}
		var cands []cand
		for {
			for _, c := range all {
				if c.labeled >= g1 && c.conflicts <= g2 {
					cands = append(cands, c)
				}
			}
			if len(cands) > 0 {
				break
			}
			// Relax alternately; when γ1 hits zero every query
			// qualifies, so progress is guaranteed.
			if relaxG1Next && g1 > 0 {
				g1--
			} else {
				g2++
			}
			relaxG1Next = !relaxG1Next
		}

		// Step 2: execute this round's candidates. Their selections are
		// fixed, and Known does not change until Step 3, so each worker
		// builds, compresses and asks the candidate it takes without
		// changing what is asked.
		_, roundSpan := obs.StartSpanCtx(obs.ContextWithSpan(context.Background(), planSpan), rec,
			"core.round", "round", strconv.Itoa(round),
			"gamma1", strconv.Itoa(g1), "gamma2", strconv.Itoa(g2))
		roundPseudo := 0
		for _, c := range cands {
			for _, s := range c.sel {
				if s.Label != "" && isPseudo[s.ID] {
					roundPseudo++
				}
			}
		}
		link := append(planLink(planSpan), "round", strconv.Itoa(round))
		outs := make([]QueryOutcome, len(cands))
		batch.FanOut(len(cands), ecfg.Workers, func(i int) {
			c := cands[i]
			outs[i] = e.ask(ctx.Graph, planQuery(ctx, m, c.v, c.sel, plan.Prune[c.v], ecfg.Compress, rec, "boost"), "boost", link, true)
		})
		executedSet := make(map[tag.NodeID]bool, len(outs))
		answered := outs[:0]
		// Apply results in candidate order, regardless of completion
		// order across workers.
		for _, out := range outs {
			executedSet[out.Node] = true
			// With a Fallback, a failed query degrades instead of
			// dropping: the surrogate's answer stands in for the LLM's
			// and — like any answer — becomes a pseudo-label for later
			// rounds, so one dead query does not starve its neighbors of
			// label signal.
			if !res.add(out) {
				qerrs.add(out.Node, fmt.Errorf("core: boosting query for node %d: %w", out.Node, out.Err))
				continue
			}
			answered = append(answered, out)
		}

		// Step 3: add pseudo-labels after the whole round, so queries
		// within one round do not see each other's answers (the rounds
		// of Algorithm 2 are the units of label propagation). This is
		// the only write to Known: Steps 1 and 2 read it from several
		// goroutines and have all returned by now.
		for _, o := range answered {
			ctx.Known[o.Node] = o.Category
			isPseudo[o.Node] = true
		}
		next := pending[:0]
		for _, v := range pending {
			if !executedSet[v] {
				next = append(next, v)
			}
		}
		pending = next

		res.PseudoLabelUses += roundPseudo
		res.Rounds = round
		rec.Add(metricBoostRounds, 1)
		rec.Add(metricPseudoUses, float64(roundPseudo))
		rec.Set(metricBoostRound, float64(round))
		rec.Set(metricBoostPending, float64(len(pending)))
		trace = append(trace, RoundTrace{
			Round: round, Gamma1: g1, Gamma2: g2,
			Executed: len(answered), PseudoUses: roundPseudo,
			KnownEntries: len(ctx.Known),
		})
		roundSpan.SetAttr("executed", strconv.Itoa(len(answered)))
		roundSpan.End()
	}
	if len(qerrs.Errs) > 0 {
		return res, trace, &qerrs
	}
	return res, trace, nil
}

// SchedulePolicy selects the execution-order policy for the Fig. 8
// pseudo-label-utilization simulation.
type SchedulePolicy int

const (
	// ScheduleRandom splits queries into fixed rounds at random — the
	// paper's "w/o query scheduling" baseline.
	ScheduleRandom SchedulePolicy = iota
	// ScheduleGreedy orders each round by descending neighbor-label
	// count among all unexecuted queries — the paper's "w/ query
	// scheduling" variant for this experiment (footnote 3: the conflict
	// threshold is omitted under simulated pseudo-labels).
	ScheduleGreedy
)

// String implements fmt.Stringer.
func (p SchedulePolicy) String() string {
	switch p {
	case ScheduleRandom:
		return "w/o scheduling"
	case ScheduleGreedy:
		return "w/ scheduling"
	default:
		return fmt.Sprintf("SchedulePolicy(%d)", int(p))
	}
}

// SimulateScheduling reproduces the Fig. 8 protocol: execute the
// queries in `rounds` rounds without any LLM (pseudo-labels are
// simulated), and count how many times pseudo-labels generated by
// earlier rounds appear in the neighbor selections of later rounds.
// ctx.Known is restored before returning.
func SimulateScheduling(ctx *predictors.Context, m predictors.Method, queries []tag.NodeID, rounds int, policy SchedulePolicy, seed uint64) (utilization int) {
	if rounds <= 0 {
		rounds = 1
	}
	// Preserve and restore the caller's label map.
	saved := make(map[tag.NodeID]string, len(ctx.Known))
	for k, v := range ctx.Known {
		saved[k] = v
	}
	defer func() { ctx.Known = saved }()
	working := make(map[tag.NodeID]string, len(saved))
	for k, v := range saved {
		working[k] = v
	}
	ctx.Known = working

	isPseudo := map[tag.NodeID]bool{}
	pending := append([]tag.NodeID(nil), queries...)
	perRound := (len(pending) + rounds - 1) / rounds
	if perRound == 0 {
		perRound = 1
	}

	rng := newSeeded(seed, "core/schedule")
	if policy == ScheduleRandom {
		rng.Shuffle(len(pending), func(i, j int) { pending[i], pending[j] = pending[j], pending[i] })
	}

	for first := true; len(pending) > 0; first = false {
		// Refresh selections for all unexecuted queries. The first
		// round selects over the starting labels, which SNS may index
		// once for it.
		sels := make(map[tag.NodeID][]predictors.Selected, len(pending))
		selectAll := func() {
			for _, v := range pending {
				sels[v] = m.Select(ctx, v)
			}
		}
		if first {
			ctx.WithFixedLabels(selectAll)
		} else {
			selectAll()
		}
		if policy == ScheduleGreedy {
			sort.SliceStable(pending, func(i, j int) bool {
				li := predictors.CountLabeled(sels[pending[i]])
				lj := predictors.CountLabeled(sels[pending[j]])
				if li != lj {
					return li > lj
				}
				return pending[i] < pending[j]
			})
		}
		n := perRound
		if n > len(pending) {
			n = len(pending)
		}
		batch := pending[:n]
		for _, v := range batch {
			for _, s := range sels[v] {
				if s.Label != "" && isPseudo[s.ID] {
					utilization++
				}
			}
		}
		// Simulated pseudo-labels: ground truth stands in for the LLM
		// answer; only label presence matters for utilization counting.
		for _, v := range batch {
			ctx.Known[v] = ctx.Graph.Classes[ctx.Graph.Nodes[v].Label]
			isPseudo[v] = true
		}
		pending = pending[n:]
	}
	return utilization
}
