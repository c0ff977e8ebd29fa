package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/predictors"
	"repro/internal/tag"
)

func TestBoostCompletesAllQueries(t *testing.T) {
	f := newFixture(t, 800, 200, 51)
	m := predictors.KHopRandom{K: 2}
	ctx := f.freshCtx()
	res, trace, err := Boost(ctx, m, f.sim, Plan{Queries: f.split.Query}, DefaultBoostConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pred) != len(f.split.Query) {
		t.Fatalf("predicted %d of %d", len(res.Pred), len(f.split.Query))
	}
	if res.Rounds < 2 {
		t.Fatalf("boosting ran in %d rounds; scheduling had no effect", res.Rounds)
	}
	if len(trace) != res.Rounds {
		t.Fatalf("trace has %d rounds, results say %d", len(trace), res.Rounds)
	}
	total := 0
	for _, tr := range trace {
		total += tr.Executed
	}
	if total != len(f.split.Query) {
		t.Fatalf("trace executed %d total", total)
	}
}

func TestBoostAddsPseudoLabels(t *testing.T) {
	f := newFixture(t, 800, 200, 53)
	ctx := f.freshCtx()
	before := len(ctx.Known)
	res, _, err := Boost(ctx, predictors.KHopRandom{K: 2}, f.sim, Plan{Queries: f.split.Query}, DefaultBoostConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(ctx.Known) != before+len(f.split.Query) {
		t.Fatalf("known grew %d -> %d, want +%d", before, len(ctx.Known), len(f.split.Query))
	}
	for v, c := range res.Pred {
		if ctx.Known[v] != c {
			t.Fatalf("pseudo-label for %d is %q, predicted %q", v, ctx.Known[v], c)
		}
	}
}

func TestBoostUsesPseudoLabels(t *testing.T) {
	f := newFixture(t, 800, 250, 57)
	res, _, err := Boost(f.freshCtx(), predictors.KHopRandom{K: 2}, f.sim, Plan{Queries: f.split.Query}, DefaultBoostConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.PseudoLabelUses == 0 {
		t.Fatal("boosting never used a pseudo-label")
	}
}

// Table VII property: boosting should not hurt — and usually helps —
// versus plain execution of the same method.
func TestBoostImprovesAccuracy(t *testing.T) {
	f := newFixture(t, 1500, 400, 59)
	m := predictors.KHopRandom{K: 2}
	base, err := Execute(f.freshCtx(), m, f.sim, Plan{Queries: f.split.Query})
	if err != nil {
		t.Fatal(err)
	}
	boosted, _, err := Boost(f.freshCtx(), m, f.sim, Plan{Queries: f.split.Query}, DefaultBoostConfig())
	if err != nil {
		t.Fatal(err)
	}
	baseAcc, boostAcc := Accuracy(f.g, base.Pred), Accuracy(f.g, boosted.Pred)
	if boostAcc < baseAcc-0.02 {
		t.Fatalf("boosting hurt: base %.3f, boosted %.3f", baseAcc, boostAcc)
	}
}

func TestBoostWithPruneOmitsNeighborText(t *testing.T) {
	f := newFixture(t, 800, 200, 61)
	iq, err := FitInadequacy(f.g, f.split.Labeled, f.sim, "paper", fastInadequacy(61))
	if err != nil {
		t.Fatal(err)
	}
	plan := PrunePlan(iq, f.g, f.split.Query, 0.2)
	res, _, err := Boost(f.freshCtx(), predictors.KHopRandom{K: 2}, f.sim, plan, DefaultBoostConfig())
	if err != nil {
		t.Fatal(err)
	}
	maxEquipped := len(f.split.Query) - len(plan.Prune)
	if res.Equipped > maxEquipped {
		t.Fatalf("equipped %d exceeds unpruned count %d", res.Equipped, maxEquipped)
	}
	if len(res.Pred) != len(f.split.Query) {
		t.Fatal("pruned queries not executed")
	}
}

func TestBoostRelaxationTerminatesWithImpossibleGammas(t *testing.T) {
	f := newFixture(t, 500, 120, 67)
	cfg := BoostConfig{Gamma1: 50, Gamma2: 0} // impossible: must relax
	res, trace, err := Boost(f.freshCtx(), predictors.KHopRandom{K: 1}, f.sim, Plan{Queries: f.split.Query}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pred) != len(f.split.Query) {
		t.Fatal("relaxation did not complete all queries")
	}
	if trace[0].Gamma1 >= 50 {
		t.Fatalf("thresholds never relaxed: %+v", trace[0])
	}
}

func TestBoostRelaxationOrderAblation(t *testing.T) {
	f := newFixture(t, 500, 120, 71)
	a, _, err := Boost(f.freshCtx(), predictors.KHopRandom{K: 1}, f.sim, Plan{Queries: f.split.Query},
		BoostConfig{Gamma1: 3, Gamma2: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Boost(f.freshCtx(), predictors.KHopRandom{K: 1}, f.sim, Plan{Queries: f.split.Query},
		BoostConfig{Gamma1: 3, Gamma2: 2, RelaxGamma2First: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Pred) != len(b.Pred) {
		t.Fatal("relaxation order changed completion")
	}
}

func TestBoostRejectsNegativeGammas(t *testing.T) {
	f := newFixture(t, 200, 40, 73)
	if _, _, err := Boost(f.freshCtx(), predictors.KHopRandom{K: 1}, f.sim, Plan{Queries: f.split.Query},
		BoostConfig{Gamma1: -1, Gamma2: 2}); err == nil {
		t.Fatal("negative gamma accepted")
	}
}

func TestBoostRejectsBadPlan(t *testing.T) {
	f := newFixture(t, 200, 40, 79)
	bad := Plan{Queries: []tag.NodeID{f.split.Query[0], f.split.Query[0]}}
	if _, _, err := Boost(f.freshCtx(), predictors.KHopRandom{K: 1}, f.sim, bad, DefaultBoostConfig()); err == nil {
		t.Fatal("duplicate plan accepted")
	}
}

// Early rounds should carry queries with many reliable neighbor labels;
// the first round must execute at the initial thresholds when any query
// qualifies.
func TestBoostFirstRoundAtInitialThresholds(t *testing.T) {
	f := newFixture(t, 1500, 300, 83)
	cfg := BoostConfig{Gamma1: 2, Gamma2: 2}
	_, trace, err := Boost(f.freshCtx(), predictors.KHopRandom{K: 2}, f.sim, Plan{Queries: f.split.Query}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if trace[0].Gamma1 > cfg.Gamma1 || trace[0].Executed == 0 {
		t.Fatalf("first round odd: %+v", trace[0])
	}
	// Gammas never tighten over rounds.
	for i := 1; i < len(trace); i++ {
		if trace[i].Gamma1 > trace[i-1].Gamma1 {
			t.Fatal("gamma1 tightened mid-run")
		}
		if trace[i].Gamma2 < trace[i-1].Gamma2 {
			t.Fatal("gamma2 tightened mid-run")
		}
	}
}

// Fig 8 property: greedy scheduling increases pseudo-label utilization
// versus random rounds. The gap is widest where the M cap binds
// (2-hop, M = 4); with 1-hop M = 4 the paper itself reports only a
// modest improvement.
func TestSchedulingIncreasesUtilization(t *testing.T) {
	f := newFixture(t, 1500, 600, 89)
	m := predictors.KHopRandom{K: 2}
	ctx := f.freshCtx()
	ctx.M = 4
	randomU := SimulateScheduling(ctx, m, f.split.Query, 50, ScheduleRandom, 1)
	greedyU := SimulateScheduling(ctx, m, f.split.Query, 50, ScheduleGreedy, 1)
	if randomU == 0 {
		t.Fatal("random scheduling found no pseudo-label uses; graph too sparse for the test")
	}
	if float64(greedyU) < 1.15*float64(randomU) {
		t.Fatalf("greedy %d not clearly above random %d", greedyU, randomU)
	}
}

func TestSimulateSchedulingRestoresKnown(t *testing.T) {
	f := newFixture(t, 500, 100, 97)
	ctx := f.freshCtx()
	before := len(ctx.Known)
	SimulateScheduling(ctx, predictors.KHopRandom{K: 1}, f.split.Query, 10, ScheduleGreedy, 2)
	if len(ctx.Known) != before {
		t.Fatalf("Known leaked: %d -> %d", before, len(ctx.Known))
	}
}

func TestSimulateSchedulingDeterministic(t *testing.T) {
	f := newFixture(t, 500, 100, 101)
	ctx := f.freshCtx()
	a := SimulateScheduling(ctx, predictors.KHopRandom{K: 2}, f.split.Query, 20, ScheduleRandom, 3)
	b := SimulateScheduling(ctx, predictors.KHopRandom{K: 2}, f.split.Query, 20, ScheduleRandom, 3)
	if a != b {
		t.Fatalf("utilization not deterministic: %d vs %d", a, b)
	}
}

func TestSchedulePolicyString(t *testing.T) {
	if ScheduleRandom.String() != "w/o scheduling" || ScheduleGreedy.String() != "w/ scheduling" {
		t.Fatal("policy names wrong")
	}
	if SchedulePolicy(9).String() == "" {
		t.Fatal("unknown policy name empty")
	}
}

// countingMethod counts Select calls, which may run concurrently.
type countingMethod struct {
	predictors.Method
	calls *atomic.Int64
}

func (m countingMethod) Select(ctx *predictors.Context, v tag.NodeID) []predictors.Selected {
	m.calls.Add(1)
	return m.Method.Select(ctx, v)
}

// Selections depend on Known, which changes only between rounds, so a
// round selects each pending query once, however many times it relaxes
// (γ1, γ2) before a query qualifies — serially or fanned out.
func TestBoostSelectsOncePerRound(t *testing.T) {
	f := newFixture(t, 500, 120, 67)
	for _, workers := range []int{1, 8} {
		var calls atomic.Int64
		m := countingMethod{Method: predictors.KHopRandom{K: 2}, calls: &calls}
		cfg := BoostConfig{Gamma1: 8, Gamma2: 0} // the first round must relax
		_, trace, err := BoostWith(f.freshCtx(), m, f.sim, Plan{Queries: f.split.Query}, cfg, ExecConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if trace[0].Gamma1 == cfg.Gamma1 && trace[0].Gamma2 == cfg.Gamma2 {
			t.Fatalf("first round did not relax: %+v", trace[0])
		}
		want, pending := int64(0), len(f.split.Query)
		for _, r := range trace {
			want += int64(pending)
			pending -= r.Executed
		}
		if got := calls.Load(); got != want {
			t.Fatalf("workers %d: Select called %d times over %d rounds, want %d (once per pending query per round)", workers, got, len(trace), want)
		}
	}
}
