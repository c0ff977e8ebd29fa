package core

import (
	"math"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/llm"
	"repro/internal/predictors"
	"repro/internal/prompt"
	"repro/internal/tag"
	"repro/internal/xrand"
)

// fixture bundles one generated dataset with a context and simulated
// LLM, shared across core tests.
type fixture struct {
	g     *tag.Graph
	spec  tag.Spec
	split tag.Split
	ctx   *predictors.Context
	sim   *llm.Sim
}

func newFixture(t testing.TB, nodes, queries int, seed uint64) *fixture {
	t.Helper()
	spec, err := tag.SmallSpec("cora", nodes)
	if err != nil {
		t.Fatal(err)
	}
	g := tag.Generate(spec, seed, tag.Options{})
	split := g.SplitPerClass(xrand.New(seed+1), 20, queries)
	ctx := &predictors.Context{
		Graph: g,
		Known: predictors.KnownFromSplit(g, split),
		M:     4,
		Seed:  seed,
	}
	sim := llm.NewSim(llm.GPT35(), g.Vocab, g.Classes, seed+2)
	return &fixture{g: g, spec: spec, split: split, ctx: ctx, sim: sim}
}

func (f *fixture) freshCtx() *predictors.Context {
	known := make(map[tag.NodeID]string, len(f.ctx.Known))
	for _, v := range f.split.Labeled {
		known[v] = f.g.Classes[f.g.Nodes[v].Label]
	}
	return &predictors.Context{Graph: f.g, Known: known, M: f.ctx.M, Seed: f.ctx.Seed}
}

func fastInadequacy(seed uint64) InadequacyConfig {
	cfg := DefaultInadequacyConfig()
	cfg.MLP.Epochs = 40
	cfg.MaxFeatures = 256
	cfg.Seed = seed
	return cfg
}

func TestAccuracyHelper(t *testing.T) {
	f := newFixture(t, 300, 50, 1)
	pred := map[tag.NodeID]string{}
	for _, v := range f.split.Query[:10] {
		pred[v] = f.g.Classes[f.g.Nodes[v].Label]
	}
	if got := Accuracy(f.g, pred); got != 1 {
		t.Fatalf("all-correct accuracy = %v", got)
	}
	pred[f.split.Query[0]] = "definitely-wrong"
	if got := Accuracy(f.g, pred); math.Abs(got-0.9) > 1e-9 {
		t.Fatalf("accuracy = %v, want 0.9", got)
	}
	if got := Accuracy(f.g, nil); got != 0 {
		t.Fatalf("empty accuracy = %v", got)
	}
}

func TestTauForBudget(t *testing.T) {
	// 100 queries, 1000 tokens each of which 600 are neighbor text.
	if got, ok := TauForBudget(100_000, 100, 1000, 600); got != 0 || !ok {
		t.Fatalf("full budget tau = %v ok = %v, want 0 true", got, ok)
	}
	// All-pruned cost is 40,000: exactly attainable at τ=1.
	if got, ok := TauForBudget(40_000, 100, 1000, 600); got != 1 || !ok {
		t.Fatalf("starvation tau = %v ok = %v, want 1 true", got, ok)
	}
	// Below the all-pruned cost: τ=1 still, but flagged infeasible.
	if got, ok := TauForBudget(39_999, 100, 1000, 600); got != 1 || ok {
		t.Fatalf("infeasible tau = %v ok = %v, want 1 false", got, ok)
	}
	// Budget exactly halfway: B = 100*1000 - tau*100*600 => tau = 0.5
	// at B = 70,000.
	if got, _ := TauForBudget(70_000, 100, 1000, 600); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("midpoint tau = %v, want 0.5", got)
	}
	if got, ok := TauForBudget(1000, 0, 1000, 600); got != 0 || !ok {
		t.Fatalf("zero queries tau = %v ok = %v", got, ok)
	}
}

func TestTauBudgetConsistency(t *testing.T) {
	// Executing a plan pruned at TauForBudget's τ must land at or under
	// the budget (up to per-query variance around the means).
	f := newFixture(t, 600, 120, 3)
	m := predictors.KHopRandom{K: 1}
	perQ, perN := EstimateQueryTokens(f.ctx, m, f.split.Query, 0)
	if perQ <= 0 || perN <= 0 || perN >= perQ {
		t.Fatalf("token estimates implausible: perQ=%v perN=%v", perQ, perN)
	}
	budget := 0.8 * perQ * float64(len(f.split.Query))
	tau, ok := TauForBudget(budget, len(f.split.Query), perQ, perN)
	if tau <= 0 || tau >= 1 || !ok {
		t.Fatalf("tau = %v ok = %v for a 20%% cut", tau, ok)
	}
	plan := RandomPrunePlan(f.split.Query, tau, 9)
	res, err := Execute(f.ctx, m, f.sim, plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(res.Meter.InputTokens()); got > budget*1.05 {
		t.Fatalf("spent %v input tokens, budget %v", got, budget)
	}
}

func TestExecuteCompletes(t *testing.T) {
	f := newFixture(t, 500, 100, 5)
	m := predictors.KHopRandom{K: 1}
	plan := Plan{Queries: f.split.Query}
	res, err := Execute(f.ctx, m, f.sim, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pred) != len(f.split.Query) {
		t.Fatalf("predicted %d of %d queries", len(res.Pred), len(f.split.Query))
	}
	if res.Meter.Queries() != len(f.split.Query) {
		t.Fatalf("meter queries %d", res.Meter.Queries())
	}
	if acc := Accuracy(f.g, res.Pred); acc < 0.5 {
		t.Fatalf("baseline accuracy %v implausibly low", acc)
	}
}

// TestAnswersShareClassNames checks that recorded answers are the
// graph's own class-name strings, not per-answer copies, so results a
// caller keeps hold no string per answer.
func TestAnswersShareClassNames(t *testing.T) {
	f := newFixture(t, 300, 60, 6)
	res, err := Execute(f.ctx, predictors.KHopRandom{K: 1}, f.sim, Plan{Queries: f.split.Query})
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range res.Pred {
		i := slices.Index(f.g.Classes, c)
		if i < 0 || unsafe.StringData(c) != unsafe.StringData(f.g.Classes[i]) {
			t.Fatalf("node %d: answer %q is not the graph's class-name string", v, c)
		}
	}
}

func TestExecutePruneReducesTokens(t *testing.T) {
	f := newFixture(t, 500, 100, 7)
	m := predictors.KHopRandom{K: 1}
	full, err := Execute(f.ctx, m, f.sim, Plan{Queries: f.split.Query})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Execute(f.ctx, m, f.sim, RandomPrunePlan(f.split.Query, 0.5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Meter.InputTokens() >= full.Meter.InputTokens() {
		t.Fatal("pruning did not reduce input tokens")
	}
	if pruned.Equipped >= full.Equipped {
		t.Fatalf("equipped counts: pruned %d, full %d", pruned.Equipped, full.Equipped)
	}
}

func TestFitInadequacy(t *testing.T) {
	f := newFixture(t, 800, 150, 11)
	iq, err := FitInadequacy(f.g, f.split.Labeled, f.sim, "paper", fastInadequacy(11))
	if err != nil {
		t.Fatal(err)
	}
	if iq.CalibrationQueries != 10*len(f.g.Classes) {
		t.Fatalf("calibration used %d queries, want %d", iq.CalibrationQueries, 10*len(f.g.Classes))
	}
	w := iq.Weights()
	if len(w) != len(f.g.Classes) {
		t.Fatalf("weights len %d", len(w))
	}
	for k, wk := range w {
		if wk < 0 || wk > 1 {
			t.Fatalf("w[%d] = %v", k, wk)
		}
	}
	// Scores must be finite for all queries.
	for _, v := range f.split.Query[:30] {
		d := iq.ScoreNode(f.g, v)
		if math.IsNaN(d) || math.IsInf(d, 0) {
			t.Fatalf("D(t) not finite for node %d", v)
		}
	}
}

// TestInadequacySurrogateMatchesFitSurrogate: step 1 of FitInadequacy
// is FitSurrogate's fit, so the surrogate the measure hands out answers
// every node exactly as FitSurrogate with the same MLP, folds, feature
// cap and seed does.
func TestInadequacySurrogateMatchesFitSurrogate(t *testing.T) {
	f := newFixture(t, 400, 60, 7)
	cfg := fastInadequacy(7)
	cfg.Folds = 2
	iq, err := FitInadequacy(f.g, f.split.Labeled, f.sim, "paper", cfg)
	if err != nil {
		t.Fatal(err)
	}
	sur, err := FitSurrogate(f.g, f.split.Labeled, SurrogateConfig{
		MLP: cfg.MLP, Folds: cfg.Folds, MaxFeatures: cfg.MaxFeatures, Seed: cfg.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	fitted := iq.Surrogate(f.g)
	for v := range f.g.Nodes {
		id := tag.NodeID(v)
		if got, want := fitted.PredictNode(f.g, id), sur.PredictNode(f.g, id); got != want {
			t.Fatalf("node %d: inadequacy surrogate predicts %q, FitSurrogate %q", v, got, want)
		}
	}
}

func TestFitInadequacyErrors(t *testing.T) {
	f := newFixture(t, 200, 30, 13)
	if _, err := FitInadequacy(f.g, nil, f.sim, "paper", fastInadequacy(1)); err == nil {
		t.Fatal("expected error on empty labeled set")
	}
	bad := fastInadequacy(1)
	bad.Folds = 0
	if _, err := FitInadequacy(f.g, f.split.Labeled, f.sim, "paper", bad); err == nil {
		t.Fatal("expected error on zero folds")
	}
}

// Table VI property: mean D(t) of saturated nodes (zero-shot correct)
// must be below mean D(t) of non-saturated nodes.
func TestInadequacySeparatesSaturation(t *testing.T) {
	f := newFixture(t, 1000, 250, 17)
	iq, err := FitInadequacy(f.g, f.split.Labeled, f.sim, "paper", fastInadequacy(17))
	if err != nil {
		t.Fatal(err)
	}
	var satSum, nonSum float64
	var satN, nonN int
	for _, v := range f.split.Query {
		resp, err := f.sim.Query(prompt.Build(prompt.Request{
			TargetTitle:    f.g.Title(v),
			TargetAbstract: f.g.Abstract(v),
			Categories:     f.g.Classes,
			NodeType:       "paper",
		}))
		if err != nil {
			t.Fatal(err)
		}
		d := iq.ScoreNode(f.g, v)
		if resp.Category == f.g.Classes[f.g.Nodes[v].Label] {
			satSum += d
			satN++
		} else {
			nonSum += d
			nonN++
		}
	}
	if satN == 0 || nonN == 0 {
		t.Skip("degenerate split")
	}
	satMean, nonMean := satSum/float64(satN), nonSum/float64(nonN)
	if satMean >= nonMean {
		t.Fatalf("saturated mean D %.4f not below non-saturated %.4f", satMean, nonMean)
	}
}

func TestRankAscending(t *testing.T) {
	f := newFixture(t, 600, 120, 19)
	iq, err := FitInadequacy(f.g, f.split.Labeled, f.sim, "paper", fastInadequacy(19))
	if err != nil {
		t.Fatal(err)
	}
	order, scores := iq.Rank(f.g, f.split.Query)
	if len(order) != len(f.split.Query) {
		t.Fatalf("rank returned %d ids", len(order))
	}
	for i := 1; i < len(order); i++ {
		if scores[order[i-1]] > scores[order[i]]+1e-12 {
			t.Fatalf("rank not ascending at %d", i)
		}
	}
}

func TestPrunePlanCounts(t *testing.T) {
	f := newFixture(t, 600, 120, 23)
	iq, err := FitInadequacy(f.g, f.split.Labeled, f.sim, "paper", fastInadequacy(23))
	if err != nil {
		t.Fatal(err)
	}
	for _, tau := range []float64{0, 0.2, 0.5, 1} {
		plan := PrunePlan(iq, f.g, f.split.Query, tau)
		want := int(tau*float64(len(f.split.Query)) + 0.5)
		if len(plan.Prune) != want {
			t.Fatalf("tau %v pruned %d, want %d", tau, len(plan.Prune), want)
		}
		if err := validatePlan(plan); err != nil {
			t.Fatal(err)
		}
	}
	// Clamping.
	if got := len(PrunePlan(iq, f.g, f.split.Query, -1).Prune); got != 0 {
		t.Fatalf("tau<0 pruned %d", got)
	}
	if got := len(PrunePlan(iq, f.g, f.split.Query, 2).Prune); got != len(f.split.Query) {
		t.Fatalf("tau>1 pruned %d", got)
	}
}

func TestPrunePlanPrunesLowestScores(t *testing.T) {
	f := newFixture(t, 600, 120, 29)
	iq, err := FitInadequacy(f.g, f.split.Labeled, f.sim, "paper", fastInadequacy(29))
	if err != nil {
		t.Fatal(err)
	}
	plan := PrunePlan(iq, f.g, f.split.Query, 0.25)
	_, scores := iq.Rank(f.g, f.split.Query)
	maxPruned, minKept := math.Inf(-1), math.Inf(1)
	for _, v := range plan.Queries {
		if plan.Prune[v] {
			if scores[v] > maxPruned {
				maxPruned = scores[v]
			}
		} else if scores[v] < minKept {
			minKept = scores[v]
		}
	}
	if maxPruned > minKept+1e-12 {
		t.Fatalf("pruned max %v exceeds kept min %v", maxPruned, minKept)
	}
}

func TestRandomPrunePlanDeterministic(t *testing.T) {
	f := newFixture(t, 300, 60, 31)
	a := RandomPrunePlan(f.split.Query, 0.3, 5)
	b := RandomPrunePlan(f.split.Query, 0.3, 5)
	if len(a.Prune) != len(b.Prune) {
		t.Fatal("sizes differ")
	}
	for v := range a.Prune {
		if !b.Prune[v] {
			t.Fatal("random prune plan not deterministic by seed")
		}
	}
	c := RandomPrunePlan(f.split.Query, 0.3, 6)
	diff := false
	for v := range a.Prune {
		if !c.Prune[v] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical random plans")
	}
}

// Table IV property: pruning 20% by inadequacy keeps accuracy within a
// small band of the unpruned method.
func TestPrune20PreservesAccuracy(t *testing.T) {
	f := newFixture(t, 1200, 300, 37)
	m := predictors.KHopRandom{K: 1}
	base, err := Execute(f.freshCtx(), m, f.sim, Plan{Queries: f.split.Query})
	if err != nil {
		t.Fatal(err)
	}
	iq, err := FitInadequacy(f.g, f.split.Labeled, f.sim, "paper", fastInadequacy(37))
	if err != nil {
		t.Fatal(err)
	}
	plan := PrunePlan(iq, f.g, f.split.Query, 0.2)
	pruned, err := Execute(f.freshCtx(), m, f.sim, plan)
	if err != nil {
		t.Fatal(err)
	}
	baseAcc, prunedAcc := Accuracy(f.g, base.Pred), Accuracy(f.g, pruned.Pred)
	if prunedAcc < baseAcc-0.04 {
		t.Fatalf("pruning 20%% dropped accuracy %.3f -> %.3f", baseAcc, prunedAcc)
	}
	if pruned.Meter.InputTokens() >= base.Meter.InputTokens() {
		t.Fatal("pruning did not save tokens")
	}
}

// Fig 7 property: across constrained budgets, inadequacy-guided
// pruning beats random pruning on aggregate. (Per-tau margins are a
// couple of points in the paper too, so a single tau on a 300-query
// fixture would be noise-dominated; the sum over taus is the stable
// signal.)
func TestPruneBeatsRandomAcrossBudgets(t *testing.T) {
	f := newFixture(t, 1200, 300, 41)
	m := predictors.KHopRandom{K: 1}
	iq, err := FitInadequacy(f.g, f.split.Labeled, f.sim, "paper", fastInadequacy(41))
	if err != nil {
		t.Fatal(err)
	}
	var smartSum, randSum float64
	for _, tau := range []float64{0.4, 0.6, 0.8} {
		smart, err := Execute(f.freshCtx(), m, f.sim, PrunePlan(iq, f.g, f.split.Query, tau))
		if err != nil {
			t.Fatal(err)
		}
		smartSum += Accuracy(f.g, smart.Pred)
		// Average several random baselines to reduce variance.
		const reps = 3
		var randAcc float64
		for r := uint64(0); r < reps; r++ {
			res, err := Execute(f.freshCtx(), m, f.sim, RandomPrunePlan(f.split.Query, tau, 100+r))
			if err != nil {
				t.Fatal(err)
			}
			randAcc += Accuracy(f.g, res.Pred)
		}
		randSum += randAcc / reps
	}
	if smartSum <= randSum-0.005 {
		t.Fatalf("inadequacy pruning (Σacc %.3f) fell below random (Σacc %.3f) across budgets",
			smartSum, randSum)
	}
}

func TestValidatePlan(t *testing.T) {
	good := Plan{Queries: []tag.NodeID{1, 2, 3}, Prune: map[tag.NodeID]bool{2: true}}
	if err := validatePlan(good); err != nil {
		t.Fatal(err)
	}
	dup := Plan{Queries: []tag.NodeID{1, 1}}
	if err := validatePlan(dup); err == nil {
		t.Fatal("duplicate queries accepted")
	}
	stray := Plan{Queries: []tag.NodeID{1}, Prune: map[tag.NodeID]bool{9: true}}
	if err := validatePlan(stray); err == nil {
		t.Fatal("stray prune accepted")
	}
}
