package mqo

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
)

// TestGNNFacade trains both GNN baselines and label propagation via
// the public wrappers.
func TestGNNFacade(t *testing.T) {
	g, err := GenerateDatasetScaled("cora", 12, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorkload(g, 15, 100, 4, 12)
	gcn, err := TrainGCN(g, w.Labeled, 128, GCNConfig{Epochs: 30, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	sage, err := TrainSAGE(g, w.Labeled, 128, GCNConfig{Epochs: 30, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	chance := 1.0 / float64(len(g.Classes))
	if acc := gcn.Accuracy(g, w.Queries); acc < 2*chance {
		t.Errorf("GCN facade accuracy %.3f near chance", acc)
	}
	if acc := sage.Accuracy(g, w.Queries); acc < 2*chance {
		t.Errorf("SAGE facade accuracy %.3f near chance", acc)
	}
	lp, err := LabelProp(g, w.Labeled, 20, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(lp) != g.NumNodes() {
		t.Errorf("LabelProp returned %d labels for %d nodes", len(lp), g.NumNodes())
	}
}

// TestLinkPredictionFacade runs the Table X variants via the public
// wrappers.
func TestLinkPredictionFacade(t *testing.T) {
	g, err := GenerateDatasetScaled("cora", 14, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewLinkDataset(g, 60, 14)
	if err != nil {
		t.Fatal(err)
	}
	pruner, err := FitPairInadequacy(d, 50, 14)
	if err != nil {
		t.Fatal(err)
	}
	res, err := LinkVariants(d, NewSimLink(g, 14), 4, 0.2, 3, pruner)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"vanilla", "base", "boost", "prune", "both"} {
		r, ok := res[name]
		if !ok {
			t.Fatalf("variant %q missing", name)
		}
		if r.Accuracy < 0.5 {
			t.Errorf("%s accuracy %.3f below coin flip", name, r.Accuracy)
		}
	}
	if res["prune"].Pruned == 0 {
		t.Error("prune variant pruned nothing")
	}
	one, err := RunLink(d, NewSimLink(g, 14), LinkRunConfig{WithLinks: true, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	if one.Meter.Total() == 0 {
		t.Error("RunLink metered no tokens")
	}
}

// TestBatchFacade drives the executor through the public wrappers and
// resumes a batch through a prompt cache: a second executor over the
// same cache answers every request from disk and pays no fresh tokens.
func TestBatchFacade(t *testing.T) {
	g, err := GenerateDatasetScaled("citeseer", 15, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorkload(g, 5, 20, 4, 15)
	ctx := w.Context()

	var reqs []BatchRequest
	for i, v := range w.Queries {
		reqs = append(reqs, BatchRequest{
			ID:     fmt.Sprint(i),
			Prompt: BuildPrompt(ctx, v, nil, false),
		})
	}
	cache, err := OpenPromptCache(t.TempDir(), PromptCacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	var logBuf bytes.Buffer
	sim := NewSim(GPT35(), g, 15)
	exec, err := NewBatchExecutor(sim, BatchConfig{Workers: 4, Disk: cache, Log: &logBuf})
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Execute(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || len(res.Outcomes) != len(reqs) || res.TokensUsed == 0 {
		t.Fatalf("batch result %+v", res)
	}
	if lines := strings.Count(logBuf.String(), "\n"); lines != len(reqs) {
		t.Errorf("audit log has %d lines, want %d", lines, len(reqs))
	}

	resumed, err := NewBatchExecutor(sim, BatchConfig{Workers: 4, Disk: cache})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := resumed.Execute(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res2.CacheHits != len(reqs) || res2.TokensUsed != 0 || res2.Failed != 0 {
		t.Errorf("resumed batch: %d cached of %d, %d fresh tokens, %d failed; want all cached, 0 tokens",
			res2.CacheHits, len(reqs), res2.TokensUsed, res2.Failed)
	}
	for id, o := range res2.Outcomes {
		if !o.Cached || o.Response != res.Outcomes[id].Response {
			t.Errorf("request %s: %+v, want the first run's answer, cached", id, o)
		}
	}
	if ErrBudgetExhausted == nil {
		t.Error("ErrBudgetExhausted unexported")
	}
}

// TestPrefixFacade exercises the prefix-sharing wrappers.
func TestPrefixFacade(t *testing.T) {
	g, err := GenerateDatasetScaled("cora", 16, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorkload(g, 5, 15, 4, 16)
	ctx := w.Context()
	var prompts []string
	for _, v := range w.Queries {
		prompts = append(prompts, BuildPrompt(ctx, v, nil, false))
	}
	before := AnalyzePrefixSharing(prompts)
	after := AnalyzePrefixSharing(ReorderSharedFirst(prompts))
	if after.SharedTokens <= before.SharedTokens {
		t.Errorf("reordering did not increase sharing: %d -> %d",
			before.SharedTokens, after.SharedTokens)
	}
	if !strings.Contains(before.String(), "prompts") {
		t.Errorf("Stats.String() = %q", before.String())
	}
}

// TestCostFacade prices a run through the public wrappers.
func TestCostFacade(t *testing.T) {
	p, err := LookupPricing("gpt-4o-mini")
	if err != nil {
		t.Fatal(err)
	}
	var base, opt TokenMeter
	base.AddQuery(10_000, 100)
	opt.AddQuery(8_000, 100)
	rep := CompareCost(p, base, opt)
	if rep.SavedUSD <= 0 || rep.SavedFraction <= 0 {
		t.Errorf("report %+v", rep)
	}
	proj, err := ProjectCost(p, 1000, 500)
	if err != nil || proj.TotalUSD <= 0 {
		t.Errorf("projection %+v, err %v", proj, err)
	}
	if CountTokens("three plain words") != 3 {
		t.Errorf("CountTokens = %d, want 3", CountTokens("three plain words"))
	}
}

// TestDatasetPersistenceFacade round-trips a graph through the public
// snapshot wrappers.
func TestDatasetPersistenceFacade(t *testing.T) {
	g, err := GenerateDatasetScaled("pubmed", 17, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveDataset(&buf, g); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumNodes() != g.NumNodes() || loaded.NumEdges() != g.NumEdges() {
		t.Errorf("round trip changed size: %d/%d -> %d/%d",
			g.NumNodes(), g.NumEdges(), loaded.NumNodes(), loaded.NumEdges())
	}
}

// TestWorkloadPromptWordsFollowDataset: a workload over ogbn-products
// names its nodes "product" and its edges "co-purchase", as the
// experiments do, and so does the same graph after a snapshot round
// trip; a citation graph keeps "paper" and "citation".
func TestWorkloadPromptWordsFollowDataset(t *testing.T) {
	products, err := GenerateDatasetScaled("ogbn-products", 3, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveDataset(&buf, products); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cora, err := GenerateDatasetScaled("cora", 3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name               string
		g                  *Graph
		nodeType, relation string
	}{
		{"generated ogbn-products", products, "product", "co-purchase"},
		{"loaded ogbn-products", loaded, "product", "co-purchase"},
		{"cora", cora, "paper", "citation"},
	} {
		w := NewWorkload(c.g, 1, 10, 4, 1)
		ctx := w.Context()
		if ctx.NodeType != c.nodeType || ctx.EdgeRelation != c.relation {
			t.Fatalf("%s: workload names nodes %q and edges %q, want %q and %q",
				c.name, ctx.NodeType, ctx.EdgeRelation, c.nodeType, c.relation)
		}
		v := w.Queries[0]
		want := "Target " + c.nodeType + " has the following important neighbors with " + c.relation + " relationships"
		if p := BuildPrompt(ctx, v, []Selected{{ID: w.Labeled[0]}}, false); !strings.Contains(p, want) {
			t.Fatalf("%s: prompt lacks %q:\n%s", c.name, want, p)
		}
	}
}

// TestNewSimWithoutVocabulary loads a two-node snapshot saved without
// a "vocab" object and asks the simulator a built prompt: it must
// answer one of the listed categories, resting on its class bias and
// the neighbor's label, since it knows no signal words.
func TestNewSimWithoutVocabulary(t *testing.T) {
	doc := `{"format":1,"name":"tiny","classes":["Alpha","Beta"],` +
		`"nodes":[{"ID":0,"Title":"graph methods","Abstract":"we study graphs.","Label":0},` +
		`{"ID":1,"Title":"more graphs","Abstract":"","Label":1}],"edges":[[0,1]]}`
	g, err := LoadDataset(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if g.Vocab != nil {
		t.Fatal("snapshot without vocab loaded a vocabulary")
	}
	sim := NewSim(GPT35(), g, 1)
	ctx := &Context{Graph: g, Known: map[NodeID]string{1: "Beta"}, M: 1}
	resp, err := sim.Query(BuildPrompt(ctx, 0, []Selected{{ID: 1, Label: "Beta"}}, false))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Category != "Alpha" && resp.Category != "Beta" {
		t.Fatalf("answered %q, not a listed category", resp.Category)
	}
}

// TestInadequacyRankFacade checks scoring helpers exposed for plan
// construction.
func TestInadequacyRankFacade(t *testing.T) {
	g, err := GenerateDatasetScaled("cora", 18, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorkload(g, 10, 50, 4, 18)
	p := NewSim(GPT35(), g, 18)
	iq, err := FitInadequacy(g, w.Labeled, p, "paper", DefaultInadequacyConfig())
	if err != nil {
		t.Fatal(err)
	}
	plan := PrunePlan(iq, g, w.Queries, 0.3)
	if len(plan.Prune) != 15 {
		t.Errorf("pruned %d, want 15", len(plan.Prune))
	}
	randPlan := RandomPrunePlan(w.Queries, 0.3, 18)
	if len(randPlan.Prune) != 15 {
		t.Errorf("random pruned %d, want 15", len(randPlan.Prune))
	}
	// Budget 1000 exactly covers 10 all-pruned queries at 100 tokens:
	// τ=1 and still feasible.
	tau, ok := TauForBudget(1000, 10, 200, 100)
	if tau != 1 || !ok {
		t.Errorf("all-pruned budget τ = %v ok = %v, want 1 true", tau, ok)
	}
	if tau, ok := TauForBudget(999, 10, 200, 100); tau != 1 || ok {
		t.Errorf("infeasible budget τ = %v ok = %v, want 1 false", tau, ok)
	}
}
