package core

import (
	"fmt"

	"repro/internal/llm"
	"repro/internal/predictors"
	"repro/internal/tag"
	"repro/internal/xrand"
)

// newSeeded derives a named deterministic stream.
func newSeeded(seed uint64, name string) *xrand.RNG {
	return xrand.New(seed).SplitString(name)
}

// PrunePlan builds Algorithm 1's execution plan: rank queries by
// ascending text inadequacy and mark the top fraction tau for neighbor-
// text omission. tau is clamped to [0, 1].
func PrunePlan(iq *Inadequacy, g *tag.Graph, queries []tag.NodeID, tau float64) Plan {
	if tau < 0 {
		tau = 0
	}
	if tau > 1 {
		tau = 1
	}
	order, _ := iq.Rank(g, queries)
	nPrune := int(tau*float64(len(order)) + 0.5)
	plan := Plan{Queries: order, Prune: make(map[tag.NodeID]bool, nPrune)}
	for _, v := range order[:nPrune] {
		plan.Prune[v] = true
	}
	return plan
}

// RandomPrunePlan marks a uniformly random tau-fraction of queries for
// pruning — the baseline strategy of Fig. 7 and Table IX ("w/ random").
// The choice is keyed by seed for reproducibility.
func RandomPrunePlan(queries []tag.NodeID, tau float64, seed uint64) Plan {
	if tau < 0 {
		tau = 0
	}
	if tau > 1 {
		tau = 1
	}
	plan := Plan{Queries: append([]tag.NodeID(nil), queries...), Prune: map[tag.NodeID]bool{}}
	nPrune := int(tau*float64(len(queries)) + 0.5)
	rng := newSeeded(seed, "core/randomprune")
	for _, i := range rng.Sample(len(queries), nPrune) {
		plan.Prune[queries[i]] = true
	}
	return plan
}

// OraclePrunePlan prunes, with priority, exactly the queries the
// predictor already answers correctly zero-shot — the information-
// theoretic upper bound of Algorithm 1. It reads ground-truth labels
// and spends one vanilla query per node (a serial ExecuteWith of the
// vanilla method), so it is an analysis tool (the headroom line in
// Fig. 7 ablations), never a deployable strategy.
func OraclePrunePlan(ctx *predictors.Context, p llm.Predictor, queries []tag.NodeID, tau float64) (Plan, error) {
	if tau < 0 {
		tau = 0
	}
	if tau > 1 {
		tau = 1
	}
	probe, err := ExecuteWith(ctx, predictors.Vanilla{}, p, Plan{Queries: queries}, ExecConfig{})
	if err != nil {
		return Plan{}, fmt.Errorf("core: oracle probe: %w", err)
	}
	var saturated, rest []tag.NodeID
	for _, v := range queries {
		if probe.Pred[v] == ctx.Graph.Classes[ctx.Graph.Nodes[v].Label] {
			saturated = append(saturated, v)
		} else {
			rest = append(rest, v)
		}
	}
	order := append(saturated, rest...)
	nPrune := int(tau*float64(len(order)) + 0.5)
	plan := Plan{Queries: order, Prune: make(map[tag.NodeID]bool, nPrune)}
	for _, v := range order[:nPrune] {
		plan.Prune[v] = true
	}
	return plan, nil
}

// validatePlan checks a plan only prunes its own queries; used in tests
// and by Boost.
func validatePlan(plan Plan) error {
	in := make(map[tag.NodeID]bool, len(plan.Queries))
	for _, v := range plan.Queries {
		if in[v] {
			return fmt.Errorf("core: duplicate query %d in plan", v)
		}
		in[v] = true
	}
	for v := range plan.Prune {
		if !in[v] {
			return fmt.Errorf("core: plan prunes non-query node %d", v)
		}
	}
	return nil
}
