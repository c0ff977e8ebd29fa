package core

import (
	"testing"

	"repro/internal/predictors"
)

// TestOraclePrunePlanPrunesSaturatedFirst: the oracle plan's pruned set
// must consist of zero-shot-correct queries whenever enough of them
// exist, and pruning them must not reduce accuracy relative to keeping
// all neighbor text.
func TestOraclePrunePlanPrunesSaturatedFirst(t *testing.T) {
	f := newFixture(t, 600, 150, 53)
	plan, err := OraclePrunePlan(f.ctx, f.sim, f.split.Query, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(plan.Prune), 150/5; got != want {
		t.Fatalf("pruned %d, want %d", got, want)
	}
	// Every pruned node must be zero-shot-correct (the query set's
	// saturated share exceeds 20% on this fixture).
	vanilla, err := Execute(f.ctx, predictors.Vanilla{}, f.sim, Plan{Queries: f.split.Query})
	if err != nil {
		t.Fatal(err)
	}
	for v := range plan.Prune {
		if vanilla.Pred[v] != f.g.Classes[f.g.Nodes[v].Label] {
			t.Fatalf("oracle pruned node %d which zero-shot gets wrong", v)
		}
	}

	m := predictors.KHopRandom{K: 1}
	resOracle, err := Execute(f.ctx, m, f.sim, plan)
	if err != nil {
		t.Fatal(err)
	}
	resFull, err := Execute(f.ctx, m, f.sim, Plan{Queries: f.split.Query})
	if err != nil {
		t.Fatal(err)
	}
	if Accuracy(f.g, resOracle.Pred) < Accuracy(f.g, resFull.Pred)-0.03 {
		t.Errorf("oracle pruning lost accuracy: %.3f vs full %.3f",
			Accuracy(f.g, resOracle.Pred), Accuracy(f.g, resFull.Pred))
	}
}

func TestOraclePrunePlanClampsTau(t *testing.T) {
	f := newFixture(t, 400, 60, 59)
	plan, err := OraclePrunePlan(f.ctx, f.sim, f.split.Query, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Prune) != len(f.split.Query) {
		t.Errorf("τ=2 pruned %d of %d", len(plan.Prune), len(f.split.Query))
	}
	plan, err = OraclePrunePlan(f.ctx, f.sim, f.split.Query, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Prune) != 0 {
		t.Errorf("τ=-1 pruned %d, want 0", len(plan.Prune))
	}
}
