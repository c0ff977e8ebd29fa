package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"

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
	// RelaxGamma2First flips the relaxation order from the default
	// (γ1 first, then γ2, alternating) — an ablation knob.
	RelaxGamma2First bool
	// MaxRounds caps the outer loop as a safety net; 0 means |V_Q|+K
	// rounds, enough for full relaxation plus one round per node.
	MaxRounds int
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
// are already barriers — neighbor selections and prompts are fixed
// before a round executes and pseudo-labels are applied only after it —
// so running a round's queries in parallel is semantics-preserving:
// with an order-independent predictor, any worker count produces
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
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = len(plan.Queries) + len(ctx.Graph.Classes) + cfg.Gamma1 + 8
	}

	rec := obs.Active(ctx.Obs)
	// One executor serves every round, so BudgetTokens caps the whole
	// run. Identical prompts are asked once per round (Cache/Disk); no
	// answer is kept between rounds, which never repeat a node. The
	// OnResult stream (if any) is rebound to each round's planned
	// queries before that round dispatches; rounds are barriers, so the
	// rebind is race-free.
	var rs *resultStream
	if ecfg.OnResult != nil {
		rs = &resultStream{g: ctx.Graph, fb: ecfg.Fallback, hook: ecfg.OnResult}
		ecfg.onOutcome = rs.onOutcome
	}
	ex, err := newPlanExecutor(p, ecfg, rec, "boost")
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
	relaxG1Next := !cfg.RelaxGamma2First
	for round := 1; len(pending) > 0; round++ {
		if round > maxRounds {
			return nil, nil, fmt.Errorf("core: boosting exceeded %d rounds with %d queries pending", maxRounds, len(pending))
		}

		// Step 1: candidate selection with refreshed neighbor text,
		// relaxing thresholds until candidates exist. Selections depend
		// on Known, not on (γ1, γ2), so each round selects once and
		// relaxing only re-filters.
		type cand struct {
			v                  tag.NodeID
			sel                []predictors.Selected
			labeled, conflicts int
		}
		all := make([]cand, len(pending))
		for i, v := range pending {
			all[i].v = v
			if !plan.Prune[v] {
				all[i].sel = m.Select(ctx, v)
			}
			all[i].labeled = predictors.CountLabeled(all[i].sel)
			all[i].conflicts = predictors.LabelConflicts(all[i].sel)
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

		// Step 2: execute this round's candidates. Their prompts are
		// fixed here — before any of them runs — so the round can fan
		// out across workers without changing what is asked.
		_, roundSpan := obs.StartSpanCtx(obs.ContextWithSpan(context.Background(), planSpan), rec,
			"core.round", "round", strconv.Itoa(round),
			"gamma1", strconv.Itoa(g1), "gamma2", strconv.Itoa(g2))
		roundPseudo := 0
		planned := make([]plannedQuery, 0, len(cands))
		for _, c := range cands {
			for _, s := range c.sel {
				if s.Label != "" && isPseudo[s.ID] {
					roundPseudo++
				}
			}
			planned = append(planned, plannedQuery{
				v:        c.v,
				pruned:   plan.Prune[c.v],
				equipped: len(c.sel) > 0,
				prompt:   predictors.BuildPrompt(ctx, c.v, c.sel, m.Ranked() && len(c.sel) > 0),
			})
			if ecfg.Compress.Enabled() {
				planned[len(planned)-1].compress(ecfg.Compress, rec, "boost")
			}
		}
		if rs != nil {
			rs.bind(planned)
		}
		link := append(planLink(planSpan), "round", strconv.Itoa(round))
		batchOut, err := dispatch(ex, planned, rec, "boost", link...)
		if err != nil {
			roundSpan.End()
			return nil, nil, err
		}
		executedSet := make(map[tag.NodeID]bool, len(planned))
		type outcome struct {
			v        tag.NodeID
			category string
		}
		outcomes := make([]outcome, 0, len(planned))
		// Apply results in candidate order, regardless of completion
		// order across workers.
		for _, q := range planned {
			executedSet[q.v] = true
			o := batchOut[q.v]
			if o.Err != nil {
				rec.Add(metricQueryErrors, 1, "mode", "boost")
				if ecfg.Fallback != nil {
					// Degrade instead of dropping: the surrogate's answer
					// stands in for the LLM's, and — like any answer — it
					// becomes a pseudo-label for later rounds, so one dead
					// query does not starve its neighbors of label signal.
					c := ecfg.Fallback.PredictNode(ctx.Graph, q.v)
					res.Pred[q.v] = c
					res.markFallback(q.v)
					rec.Add(metricFallback, 1, "mode", "boost")
					outcomes = append(outcomes, outcome{v: q.v, category: c})
					continue
				}
				qerrs.add(q.v, fmt.Errorf("core: boosting query for node %d: %w", q.v, o.Err))
				continue
			}
			recordQuery(rec, "boost", o.Response, q.pruned, q.equipped)
			if q.equipped {
				res.Equipped++
			}
			res.Meter.AddQuery(o.Response.InputTokens, o.Response.OutputTokens)
			res.Pred[q.v] = o.Response.Category
			outcomes = append(outcomes, outcome{v: q.v, category: o.Response.Category})
		}

		// Step 3: add pseudo-labels after the whole round, so queries
		// within one round do not see each other's answers (the rounds
		// of Algorithm 2 are the units of label propagation).
		for _, o := range outcomes {
			ctx.Known[o.v] = o.category
			isPseudo[o.v] = true
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
			Executed: len(outcomes), PseudoUses: roundPseudo,
			KnownEntries: len(ctx.Known),
		})
		roundSpan.SetAttr("executed", strconv.Itoa(len(outcomes)))
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

	for len(pending) > 0 {
		// Refresh selections for all unexecuted queries.
		sels := make(map[tag.NodeID][]predictors.Selected, len(pending))
		for _, v := range pending {
			sels[v] = m.Select(ctx, v)
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
