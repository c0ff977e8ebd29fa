// Benchmarks regenerating every table and figure of the paper's
// evaluation section (one testing.B per artifact), plus micro-benches
// for the primitives the strategies pay for at scale: prompt building,
// token counting, inadequacy scoring, plan construction and boosting
// rounds.
//
// Each BenchmarkTableN/BenchmarkFigN runs the corresponding experiment
// at reduced (Fast) scale — the same code path `mqobench -exp <id>`
// executes at paper scale — and reports tokens metered per query batch
// where meaningful.
package repro_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/internal/experiments"
	"repro/mqo"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := e.Run(experiments.Config{Seed: 1, Fast: true})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(out) == 0 {
			b.Fatalf("%s produced no output", id)
		}
	}
}

// Table II: dataset statistics (five generated datasets).
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// Fig. 2 / Section IV: empirical PID decomposition of I(t,N;y).
func BenchmarkFig2(b *testing.B) { benchExperiment(b, "fig2") }

// Fig. 3: information gain of neighbor labels (motivation experiment).
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }

// Table IV: token pruning across methods (Q1).
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// Fig. 7: pruning vs random under token budgets (Q2).
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// Table V: token reduction potential (Q3).
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }

// Table VI: text inadequacy of saturated vs non-saturated nodes (Q4).
func BenchmarkTable6(b *testing.B) { benchExperiment(b, "table6") }

// Fig. 8: pseudo-label utilization with/without scheduling (Q5).
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// Table VII: query boosting across methods (Q6).
func BenchmarkTable7(b *testing.B) { benchExperiment(b, "table7") }

// Table VIII: joint pruning + boosting (Q7).
func BenchmarkTable8(b *testing.B) { benchExperiment(b, "table8") }

// Table IX: strategies on instruction-tuned backbones (Q8).
func BenchmarkTable9(b *testing.B) { benchExperiment(b, "table9") }

// Table X: link prediction (Q9).
func BenchmarkTable10(b *testing.B) { benchExperiment(b, "table10") }

// Paradigm comparison: trained GNN baselines vs LLMs as predictors.
func BenchmarkGNNBaseline(b *testing.B) { benchExperiment(b, "gnn-baseline") }

// Ablation: inadequacy channels (entropy-only vs bias-only vs merged).
func BenchmarkAblationInadequacyChannels(b *testing.B) { benchExperiment(b, "ablation-channels") }

// Ablation: scheduling policies (paper criterion vs random vs greedy).
func BenchmarkAblationScheduling(b *testing.B) { benchExperiment(b, "ablation-scheduling") }

// Ablation: boosting threshold sensitivity (γ1 × γ2 sweep).
func BenchmarkAblationGamma(b *testing.B) { benchExperiment(b, "ablation-gamma") }

// Ablation: neighbor cap M — accuracy vs token cost.
func BenchmarkAblationM(b *testing.B) { benchExperiment(b, "ablation-m") }

// Ablation: SNS similarity backend (TF-IDF vs skip-gram vs BoW).
func BenchmarkAblationEncoder(b *testing.B) { benchExperiment(b, "ablation-encoder") }

// Section I: full-graph classification priced at the paper's rates.
func BenchmarkCostProjection(b *testing.B) { benchExperiment(b, "cost-projection") }

// Section II-C: serving-level prefix sharing vs graph-aware pruning.
func BenchmarkPrefixSharing(b *testing.B) { benchExperiment(b, "prefix-sharing") }

// --- Micro-benchmarks of the per-query primitives -------------------

func benchWorkload(b *testing.B) (*mqo.Workload, *mqo.Sim) {
	b.Helper()
	g, err := mqo.GenerateDatasetScaled("cora", 1, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	return mqo.NewWorkload(g, 20, 200, 4, 1), mqo.NewSim(mqo.GPT35(), g, 1)
}

// BenchmarkExecutePlain measures raw multi-query execution: neighbor
// selection + prompt build + simulated LLM call, per query batch.
func BenchmarkExecutePlain(b *testing.B) {
	w, _ := benchWorkload(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := mqo.NewSim(mqo.GPT35(), w.Graph, 1)
		res, err := mqo.Execute(w.Context(), mqo.KHopRandom{K: 1}, p, mqo.Plan{Queries: w.Queries})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Meter.InputTokens())/float64(len(w.Queries)), "tokens/query")
	}
}

// BenchmarkBoostRounds measures Algorithm 2's scheduling overhead on
// top of plain execution.
func BenchmarkBoostRounds(b *testing.B) {
	w, _ := benchWorkload(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := mqo.NewSim(mqo.GPT35(), w.Graph, 1)
		_, trace, err := mqo.Boost(w.Context(), mqo.KHopRandom{K: 2}, p,
			mqo.Plan{Queries: w.Queries}, mqo.DefaultBoostConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(trace)), "rounds")
	}
}

// BenchmarkBatchExecutor measures concurrent batch throughput over the
// bare simulator (workers + cache + budget accounting overhead).
func BenchmarkBatchExecutor(b *testing.B) {
	w, _ := benchWorkload(b)
	ctx := w.Context()
	reqs := make([]mqo.BatchRequest, len(w.Queries))
	for i, v := range w.Queries {
		reqs[i] = mqo.BatchRequest{ID: fmt.Sprint(v), Prompt: mqo.BuildPrompt(ctx, v, nil, false)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec, err := mqo.NewBatchExecutor(
			mqo.NewSim(mqo.GPT35(), w.Graph, 1),
			mqo.BatchConfig{Workers: 8})
		if err != nil {
			b.Fatal(err)
		}
		res, err := exec.Execute(context.Background(), reqs)
		if err != nil || res.Failed > 0 {
			b.Fatalf("batch failed: %v / %d", err, res.Failed)
		}
		b.ReportMetric(float64(len(reqs)), "queries/op")
	}
}

// BenchmarkExecuteColdVsWarm measures what the persistent prompt cache
// buys: the same batch against a cold disk cache (every query pays the
// simulated predictor and is written through) versus a warm one (every
// query answers from disk; the warm sub-benchmark fails if even one
// predictor call leaks through).
func BenchmarkExecuteColdVsWarm(b *testing.B) {
	w, _ := benchWorkload(b)
	ctx := w.Context()
	reqs := make([]mqo.BatchRequest, len(w.Queries))
	for i, v := range w.Queries {
		reqs[i] = mqo.BatchRequest{ID: fmt.Sprint(v), Prompt: mqo.BuildPrompt(ctx, v, nil, false)}
	}
	execOnce := func(b *testing.B, cache *mqo.PromptCache, wantHits int) {
		b.Helper()
		exec, err := mqo.NewBatchExecutor(
			mqo.NewSim(mqo.GPT35(), w.Graph, 1),
			mqo.BatchConfig{Workers: 8, Disk: cache})
		if err != nil {
			b.Fatal(err)
		}
		res, err := exec.Execute(context.Background(), reqs)
		if err != nil || res.Failed > 0 {
			b.Fatalf("batch failed: %v / %d", err, res.Failed)
		}
		if res.CacheHits < wantHits {
			b.Fatalf("%d cache hits, want >= %d", res.CacheHits, wantHits)
		}
	}

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cache, err := mqo.OpenPromptCache(b.TempDir(), mqo.PromptCacheConfig{})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			execOnce(b, cache, 0)
			b.StopTimer()
			cache.Close()
			b.StartTimer()
		}
		b.ReportMetric(float64(len(reqs)), "queries/op")
	})

	b.Run("warm", func(b *testing.B) {
		cache, err := mqo.OpenPromptCache(b.TempDir(), mqo.PromptCacheConfig{})
		if err != nil {
			b.Fatal(err)
		}
		defer cache.Close()
		execOnce(b, cache, 0) // populate
		before := cache.Stats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			execOnce(b, cache, len(reqs)) // every query must hit
		}
		b.StopTimer()
		// Zero predictor calls on the warm path: no new entries appeared,
		// and not a single disk lookup missed.
		after := cache.Stats()
		if after.Entries != before.Entries || after.Misses != before.Misses {
			b.Fatalf("warm runs changed the cache: %+v -> %+v", before, after)
		}
		b.ReportMetric(float64(len(reqs)), "queries/op")
	})
}

// BenchmarkHTTPRoundTrip measures one full chat-completions round trip
// (client encode → server → sim → decode) over a local socket.
func BenchmarkHTTPRoundTrip(b *testing.B) {
	w, _ := benchWorkload(b)
	srv := httptest.NewServer(mqo.NewSimHandler(mqo.NewSim(mqo.GPT35(), w.Graph, 1)))
	defer srv.Close()
	client, err := mqo.NewHTTPPredictor(mqo.HTTPConfig{BaseURL: srv.URL, Model: "sim"})
	if err != nil {
		b.Fatal(err)
	}
	promptText := mqo.BuildPrompt(w.Context(), w.Queries[0], nil, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Query(promptText); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitInadequacy measures Algorithm 1's fixed overhead:
// surrogate training, LLM bias calibration, channel merging.
func BenchmarkFitInadequacy(b *testing.B) {
	w, p := benchWorkload(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mqo.FitInadequacy(w.Graph, w.Labeled, p, "paper", mqo.DefaultInadequacyConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrunePlan measures plan construction (score + sort + mark)
// once the measure is fitted.
func BenchmarkPrunePlan(b *testing.B) {
	w, p := benchWorkload(b)
	iq, err := mqo.FitInadequacy(w.Graph, w.Labeled, p, "paper", mqo.DefaultInadequacyConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan := mqo.PrunePlan(iq, w.Graph, w.Queries, 0.2)
		if len(plan.Prune) == 0 {
			b.Fatal("empty prune set")
		}
	}
}
