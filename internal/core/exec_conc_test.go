package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/predictors"
	"repro/internal/prompt"
	"repro/internal/tag"
	"repro/internal/token"
)

// failing wraps a predictor and permanently fails every prompt that
// contains the match string.
type failing struct {
	inner llm.Predictor
	match string
}

func (p failing) Name() string { return "failing" }

func (p failing) Query(prompt string) (llm.Response, error) {
	if strings.Contains(prompt, p.match) {
		return llm.Response{}, errors.New("injected permanent failure")
	}
	return p.inner.Query(prompt)
}

func assertSameResults(t *testing.T, label string, a, b *Results) {
	t.Helper()
	if len(a.Pred) != len(b.Pred) {
		t.Fatalf("%s: prediction counts differ: %d vs %d", label, len(a.Pred), len(b.Pred))
	}
	for v, cat := range a.Pred {
		if b.Pred[v] != cat {
			t.Fatalf("%s: node %d predicted %q vs %q", label, v, cat, b.Pred[v])
		}
	}
	if a.Meter.Queries() != b.Meter.Queries() ||
		a.Meter.InputTokens() != b.Meter.InputTokens() ||
		a.Meter.OutputTokens() != b.Meter.OutputTokens() {
		t.Fatalf("%s: meters differ: (%d,%d,%d) vs (%d,%d,%d)", label,
			a.Meter.Queries(), a.Meter.InputTokens(), a.Meter.OutputTokens(),
			b.Meter.Queries(), b.Meter.InputTokens(), b.Meter.OutputTokens())
	}
	if a.Equipped != b.Equipped {
		t.Fatalf("%s: equipped %d vs %d", label, a.Equipped, b.Equipped)
	}
}

// planShape is what a determinism test plans with: a k-hop baseline
// without compression, or batch-boost's shape — SNS over a fresh
// Context (so the fanned-out planning builds the similarity index
// itself), neighbor abstracts and level-1 compression.
type planShape struct {
	name      string
	m         predictors.Method
	abstracts bool
	comp      prompt.Compressor
}

func planShapes(k int) []planShape {
	return []planShape{
		{name: fmt.Sprintf("%d-hop", k), m: predictors.KHopRandom{K: k}},
		{name: "sns-compressed", m: predictors.SNS{}, abstracts: true, comp: prompt.Compressor{Level: 1}},
	}
}

// shapedRun is one plan run, with everything the worker count must not
// change.
type shapedRun struct {
	res        *Results
	trace      []RoundTrace
	streamed   map[tag.NodeID]string // OnResult categories
	compressed float64               // mqo_prompt_compressed_tokens_total
}

// runShaped runs plan over a fresh Context with a fresh simulator
// seeded simSeed: boosted when boost is set, plain otherwise.
func runShaped(t *testing.T, f *fixture, sh planShape, plan Plan, simSeed uint64, boost bool, workers int) shapedRun {
	t.Helper()
	ctx := f.freshCtx()
	ctx.IncludeAbstracts = sh.abstracts
	reg := obs.NewRegistry()
	ctx.Obs = reg
	sim := llm.NewSim(llm.GPT35(), f.g.Vocab, f.g.Classes, simSeed)
	out := shapedRun{streamed: map[tag.NodeID]string{}}
	var mu sync.Mutex
	cfg := ExecConfig{
		Workers:  workers,
		Compress: sh.comp,
		OnResult: func(q QueryOutcome) {
			mu.Lock()
			out.streamed[q.Node] = q.Category
			mu.Unlock()
		},
	}
	mode := "plain"
	var err error
	if boost {
		mode = "boost"
		out.res, out.trace, err = BoostWith(ctx, sh.m, sim, plan, DefaultBoostConfig(), cfg)
	} else {
		out.res, err = ExecuteWith(ctx, sh.m, sim, plan, cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	out.compressed = reg.CounterValue(metricCompressedTokens, "mode", mode)
	return out
}

func assertSameRuns(t *testing.T, label string, sh planShape, a, b shapedRun) {
	t.Helper()
	assertSameResults(t, label, a.res, b.res)
	if a.res.PseudoLabelUses != b.res.PseudoLabelUses {
		t.Fatalf("%s: pseudo-label uses %d vs %d", label, a.res.PseudoLabelUses, b.res.PseudoLabelUses)
	}
	if !slices.Equal(a.trace, b.trace) {
		t.Fatalf("%s: round traces differ:\n%+v\n%+v", label, a.trace, b.trace)
	}
	if !maps.Equal(a.streamed, b.streamed) || len(a.streamed) != len(a.res.Pred) {
		t.Fatalf("%s: OnResult streamed %d and %d categories for %d predictions, or they differ",
			label, len(a.streamed), len(b.streamed), len(a.res.Pred))
	}
	if a.compressed != b.compressed || sh.comp.Enabled() && a.compressed <= 0 {
		t.Fatalf("%s: compression saved %v vs %v tokens", label, a.compressed, b.compressed)
	}
}

// holdingMethod is a Method whose Select for one node first runs
// hold, so a test can make planning that node wait on something.
type holdingMethod struct {
	predictors.Method
	node tag.NodeID
	hold func()
}

func (m holdingMethod) Select(ctx *predictors.Context, v tag.NodeID) []predictors.Selected {
	if v == m.node {
		m.hold()
	}
	return m.Method.Select(ctx, v)
}

// TestExecuteWithAsksWhileOthersPlan runs a 2-node plan on 2 workers
// whose second node's selection waits, for at most 2 s, until OnResult
// delivers the first node. It passes only when no barrier separates
// planning a plan from asking it: the worker that takes a node plans
// and asks it while the other is still planning. The answers still
// match a serial run.
func TestExecuteWithAsksWhileOthersPlan(t *testing.T) {
	f := newFixture(t, 300, 40, 3)
	first, second := f.split.Query[0], f.split.Query[1]
	plan := Plan{Queries: []tag.NodeID{first, second}}
	delivered := make(chan struct{})
	var once sync.Once
	var answeredFirst atomic.Bool
	m := holdingMethod{Method: predictors.KHopRandom{K: 1}, node: second, hold: func() {
		select {
		case <-delivered:
			answeredFirst.Store(true)
		case <-time.After(2 * time.Second):
		}
	}}
	res, err := ExecuteWith(f.freshCtx(), m, f.sim, plan, ExecConfig{Workers: 2, OnResult: func(o QueryOutcome) {
		if o.Node == first {
			once.Do(func() { close(delivered) })
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !answeredFirst.Load() {
		t.Error("the second node's selection waited 2 s and the first node was still unanswered: planning is a barrier before asking")
	}
	serial, err := ExecuteWith(f.freshCtx(), predictors.KHopRandom{K: 1}, f.sim, plan, ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "overlapped vs serial", serial, res)
}

func TestExecuteWithWorkersDeterministic(t *testing.T) {
	f := newFixture(t, 400, 120, 11)
	plan := RandomPrunePlan(f.split.Query, 0.3, 11)
	for _, sh := range planShapes(2) {
		serial := runShaped(t, f, sh, plan, 13, false, 1)
		for _, workers := range []int{2, 8} {
			res := runShaped(t, f, sh, plan, 13, false, workers)
			assertSameRuns(t, fmt.Sprintf("execute %s, %d workers", sh.name, workers), sh, serial, res)
		}
	}
}

func TestBoostWithWorkersDeterministic(t *testing.T) {
	f := newFixture(t, 400, 80, 17)
	plan := Plan{Queries: f.split.Query}
	for _, sh := range planShapes(1) {
		serial := runShaped(t, f, sh, plan, 19, true, 1)
		res := runShaped(t, f, sh, plan, 19, true, 8)
		assertSameRuns(t, "boost "+sh.name, sh, serial, res)
	}
}

// TestBoostWithBudgetCapsWholeRun: BudgetTokens caps a boosted run as
// a whole, not each round. With a quarter of a full boost's spend as
// the budget, the metered spend may exceed it only by the one query
// per worker the executor's guard admits before the cap trips.
func TestBoostWithBudgetCapsWholeRun(t *testing.T) {
	f := newFixture(t, 400, 80, 17)
	m := predictors.KHopRandom{K: 1}
	plan := Plan{Queries: f.split.Query}
	meter := f.sim.Meter()

	before := meter.Total()
	if _, _, err := BoostWith(f.freshCtx(), m, f.sim, plan, DefaultBoostConfig(), ExecConfig{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	budget := (meter.Total() - before) / 4

	const workers = 1
	maxQuery := 0
	before = meter.Total()
	_, _, err := BoostWith(f.freshCtx(), m, f.sim, plan, DefaultBoostConfig(), ExecConfig{
		Workers:      workers,
		BudgetTokens: budget,
		OnResult: func(q QueryOutcome) {
			maxQuery = max(maxQuery, q.Response.InputTokens+q.Response.OutputTokens)
		},
	})
	var qe *QueryErrors
	if !errors.As(err, &qe) {
		t.Fatalf("a quarter budget refused no query: %v", err)
	}
	if spent := meter.Total() - before; spent > budget+workers*maxQuery {
		t.Fatalf("boost spent %d tokens on a %d-token budget (largest query %d)", spent, budget, maxQuery)
	}
}

func TestExecuteWithAggregatesPerQueryErrors(t *testing.T) {
	f := newFixture(t, 400, 60, 23)
	m := predictors.KHopRandom{K: 1}
	bad := f.split.Query[7]
	p := failing{inner: f.sim, match: f.g.Nodes[bad].Title}

	res, err := ExecuteWith(f.freshCtx(), m, p, Plan{Queries: f.split.Query}, ExecConfig{Workers: 4})
	if err == nil {
		t.Fatal("expected aggregated error, got nil")
	}
	var qe *QueryErrors
	if !errors.As(err, &qe) {
		t.Fatalf("error is %T, want *QueryErrors: %v", err, err)
	}
	if _, ok := qe.Errs[bad]; !ok {
		t.Fatalf("node %d missing from aggregated errors: %v", bad, err)
	}
	if res == nil {
		t.Fatal("partial results must be returned alongside the error")
	}
	if len(res.Pred)+len(qe.Errs) != len(f.split.Query) {
		t.Fatalf("partial results incomplete: %d predictions + %d failures != %d queries",
			len(res.Pred), len(qe.Errs), len(f.split.Query))
	}
	if _, ok := res.Pred[bad]; ok {
		t.Fatalf("failed node %d must not appear in predictions", bad)
	}
}

func TestBoostWithDropsFailedQueries(t *testing.T) {
	f := newFixture(t, 400, 60, 29)
	m := predictors.KHopRandom{K: 1}
	bad := f.split.Query[3]
	p := failing{inner: f.sim, match: f.g.Nodes[bad].Title}

	ctx := f.freshCtx()
	res, _, err := BoostWith(ctx, m, p, Plan{Queries: f.split.Query}, DefaultBoostConfig(), ExecConfig{Workers: 4})
	if err == nil {
		t.Fatal("expected aggregated error, got nil")
	}
	var qe *QueryErrors
	if !errors.As(err, &qe) {
		t.Fatalf("error is %T, want *QueryErrors: %v", err, err)
	}
	if _, ok := qe.Errs[bad]; !ok {
		t.Fatalf("node %d missing from aggregated errors: %v", bad, err)
	}
	if res == nil {
		t.Fatal("partial results must be returned alongside the error")
	}
	if _, ok := res.Pred[bad]; ok {
		t.Fatal("failed query must not be predicted")
	}
	if _, ok := ctx.Known[bad]; ok {
		t.Fatal("failed query must not contribute a pseudo-label")
	}
	if len(res.Pred)+len(qe.Errs) != len(f.split.Query) {
		t.Fatalf("partial results incomplete: %d predictions + %d failures != %d queries",
			len(res.Pred), len(qe.Errs), len(f.split.Query))
	}
}

func TestEstimateQueryTokensSeededSample(t *testing.T) {
	f := newFixture(t, 500, 200, 31)
	m := predictors.KHopRandom{K: 1}

	// Order queries by ascending text length so a prefix sample is
	// maximally biased toward cheap prompts.
	queries := append([]tag.NodeID(nil), f.split.Query...)
	sort.Slice(queries, func(i, j int) bool {
		ti := token.Count(f.g.Text(queries[i]))
		tj := token.Count(f.g.Text(queries[j]))
		if ti != tj {
			return ti < tj
		}
		return queries[i] < queries[j]
	})
	sample := len(queries) / 4

	full, _ := EstimateQueryTokens(f.freshCtx(), m, queries, 0)
	prefix, _ := EstimateQueryTokens(f.freshCtx(), m, queries[:sample], 0)
	sampled, _ := EstimateQueryTokens(f.freshCtx(), m, queries, sample)
	again, _ := EstimateQueryTokens(f.freshCtx(), m, queries, sample)

	if sampled != again {
		t.Fatalf("sampled estimate not deterministic: %f vs %f", sampled, again)
	}
	if d1, d2 := abs(sampled-full), abs(prefix-full); d1 >= d2 {
		t.Fatalf("seeded sample (%.1f) no closer to the full estimate (%.1f) than the length-sorted prefix (%.1f)",
			sampled, full, prefix)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
