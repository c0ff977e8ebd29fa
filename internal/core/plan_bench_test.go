package core_test

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/predictors"
	"repro/internal/prompt"
	"repro/internal/tag"
	"repro/internal/xrand"
)

// The plan-path benchmarks time the stages of the plan path on a
// full-size pubmed graph (19,717 nodes): generating it, building the
// SNS similarity index over it, SNS selection alone, level-1
// compression alone, the simulator answering the compressed prompts
// alone, planning and asking 200 SNS queries with neighbor
// abstracts at compression level 1, and boosting batch-boost's
// pruned 2,000-query SNS plan. They use only APIs that
// older releases also have, so the same file measures a before and an
// after. With MQO_BENCH_JSON set (the Makefile
// benchplan target points it at BENCH_plan.json), each appends one JSON
// line with its ns/op, B/op and allocs/op. The line is written for the
// measured run (b.N > 1), not for the single warm-up iteration the
// testing package runs first, so run them with -benchtime 3x or more.
// BenchmarkPlanSimilarity's rows also carry retained_bytes, the live
// heap the built index keeps, read from runtime.MemStats alone.

// pubmed generates the full-size pubmed graph at dataset seed 1.
func pubmed(b *testing.B) *tag.Graph {
	b.Helper()
	spec, err := tag.SpecByName("pubmed")
	if err != nil {
		b.Fatal(err)
	}
	return tag.Generate(spec, 1, tag.Options{})
}

// measure runs op b.N times under the timer, then has more (when not
// nil) check the result and add fields to the run's row. When
// MQO_BENCH_JSON names a file and this is the measured run, it appends
// the row.
func measure(b *testing.B, name string, op func(), more func(row map[string]any)) {
	b.Helper()
	b.ReportAllocs()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		op()
	}
	elapsed := time.Since(start)
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := uint64(b.N)
	row := map[string]any{
		"bench":         name,
		"n":             b.N,
		"ns_per_op":     elapsed.Nanoseconds() / int64(b.N),
		"bytes_per_op":  (after.TotalAlloc - before.TotalAlloc) / n,
		"allocs_per_op": (after.Mallocs - before.Mallocs) / n,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"time":          time.Now().UTC().Format(time.RFC3339),
	}
	if more != nil {
		more(row)
	}
	path := os.Getenv("MQO_BENCH_JSON")
	if path == "" || b.N <= 1 {
		return
	}
	line, err := json.Marshal(row)
	if err != nil {
		b.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(append(line, '\n')); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPlanGenerate times generating the pubmed graph, text and
// all.
func BenchmarkPlanGenerate(b *testing.B) {
	var g *tag.Graph
	measure(b, "BenchmarkPlanGenerate", func() { g = pubmed(b) }, nil)
	if g.NumNodes() != 19717 {
		b.Fatalf("pubmed has %d nodes", g.NumNodes())
	}
}

// BenchmarkPlanSimilarity times building the SNS TF-IDF similarity
// index over every pubmed node's text, and records the live heap the
// last index built keeps.
func BenchmarkPlanSimilarity(b *testing.B) {
	g := pubmed(b)
	var s *predictors.Similarity
	measure(b, "BenchmarkPlanSimilarity", func() { s = predictors.NewSimilarity(g) }, func(row map[string]any) {
		if s.Score(0, 0) <= 0 {
			b.Fatal("node 0 has no similarity to itself")
		}
		row["retained_bytes"] = retained(func() { s = nil })
	})
}

// retained returns the live heap drop lets go of: the live heap after a
// GC, minus the live heap after drop and a second GC.
func retained(drop func()) int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	live := int64(m.HeapAlloc)
	drop()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return live - int64(m.HeapAlloc)
}

// BenchmarkPlanExecuteSNS times ExecuteWith over 200 pubmed query
// nodes: SNS selection, prompt build with neighbor abstracts, level-1
// compression and the simulated predictor, at 2 workers. The
// similarity index is built once, outside the timer.
func BenchmarkPlanExecuteSNS(b *testing.B) {
	g := pubmed(b)
	split := g.SplitPerClass(xrand.New(1).SplitString("plan-bench"), 20, 200)
	ctx := &predictors.Context{
		Graph:            g,
		Known:            predictors.KnownFromSplit(g, split),
		M:                4,
		Seed:             1,
		IncludeAbstracts: true,
	}
	ctx.SetSimilarity(predictors.NewSimilarity(g))
	sim := llm.NewSim(llm.GPT35(), g.Vocab, g.Classes, 2)
	cfg := core.ExecConfig{Workers: 2, Compress: prompt.Compressor{Level: 1}}
	plan := core.Plan{Queries: split.Query}
	var res *core.Results
	measure(b, "BenchmarkPlanExecuteSNS", func() {
		var err error
		if res, err = core.ExecuteWith(ctx, predictors.SNS{}, sim, plan, cfg); err != nil {
			b.Fatal(err)
		}
	}, nil)
	if len(res.Pred) != len(split.Query) {
		b.Fatalf("%d answers for %d queries", len(res.Pred), len(split.Query))
	}
}

// snsContext is the benchmark's SNS context over g: the paper's 20
// labeled nodes per class, drawn as bench/ draws them, M = 4, and the
// similarity index built before any timer starts.
func snsContext(g *tag.Graph, abstracts bool) *predictors.Context {
	split := g.SplitPerClass(xrand.New(2), 20, 0)
	ctx := &predictors.Context{
		Graph:            g,
		Known:            predictors.KnownFromSplit(g, split),
		M:                4,
		Seed:             1,
		IncludeAbstracts: abstracts,
	}
	ctx.SetSimilarity(predictors.NewSimilarity(g))
	return ctx
}

// BenchmarkPlanSelectSNS times serial SNS selection of every tenth
// pubmed node (1,972 selections per op) over the 60-label split, where
// most selections walk all five hops.
func BenchmarkPlanSelectSNS(b *testing.B) {
	g := pubmed(b)
	ctx := snsContext(g, false)
	labeled := 0
	measure(b, "BenchmarkPlanSelectSNS", func() {
		labeled = 0
		for v := 0; v < g.NumNodes(); v += 10 {
			labeled += predictors.CountLabeled(predictors.SNS{}.Select(ctx, tag.NodeID(v)))
		}
	}, nil)
	if labeled == 0 {
		b.Fatal("SNS selected no labeled neighbor")
	}
}

// compressQueries returns the 200 SNS pubmed queries with neighbor
// abstracts that BenchmarkPlanCompress and BenchmarkPlanSimQuery read,
// selected and assembled before any timer starts.
func compressQueries(g *tag.Graph) []prompt.Query {
	ctx := snsContext(g, true)
	split := g.SplitPerClass(xrand.New(1).SplitString("plan-bench"), 20, 200)
	queries := make([]prompt.Query, len(split.Query))
	for i, v := range split.Query {
		queries[i] = predictors.PromptQuery(ctx, v, predictors.SNS{}.Select(ctx, v), true)
	}
	return queries
}

// BenchmarkPlanCompress times level-1 compression of 200 SNS pubmed
// prompts with neighbor abstracts, given as queries of the graph's
// word IDs; selection and prompt assembly run before the timer.
func BenchmarkPlanCompress(b *testing.B) {
	queries := compressQueries(pubmed(b))
	c := prompt.Compressor{Level: 1}
	saved := 0
	measure(b, "BenchmarkPlanCompress", func() {
		saved = 0
		for i := range queries {
			_, st := c.CompressQuery(&queries[i])
			saved += st.Saved()
		}
	}, nil)
	if saved == 0 {
		b.Fatal("compression saved no tokens")
	}
}

// BenchmarkPlanSimQuery times the GPT-3.5 simulator answering the 200
// prompts BenchmarkPlanCompress compresses, compressed before the
// timer: reading each prompt, scoring its evidence and counting its
// tokens.
func BenchmarkPlanSimQuery(b *testing.B) {
	g := pubmed(b)
	queries := compressQueries(g)
	prompts := make([]string, len(queries))
	for i := range queries {
		prompts[i], _ = prompt.Compressor{Level: 1}.CompressQuery(&queries[i])
	}
	sim := llm.NewSim(llm.GPT35(), g.Vocab, g.Classes, 2)
	tokens := 0
	measure(b, "BenchmarkPlanSimQuery", func() {
		tokens = 0
		for _, p := range prompts {
			resp, err := sim.Query(p)
			if err != nil {
				b.Fatal(err)
			}
			tokens += resp.InputTokens
		}
	}, nil)
	if tokens == 0 {
		b.Fatal("the simulator counted no tokens")
	}
}

// BenchmarkPlanBoostSNS times BoostWith over batch-boost's shape: full
// pubmed, the 60-label split, 2,000 unlabeled queries pruned at τ 0.2
// by a fitted inadequacy measure, SNS with neighbor abstracts, level-1
// compression and the simulator, at 2 workers. Fitting, pruning and
// the similarity index run before the timer; each op boosts from the
// starting labels.
func BenchmarkPlanBoostSNS(b *testing.B) {
	g := pubmed(b)
	split := g.SplitPerClass(xrand.New(2), 20, 2000)
	ctx := snsContext(g, true)
	start := ctx.Known
	sim := llm.NewSim(llm.GPT35(), g.Vocab, g.Classes, 1)
	iq, err := core.FitInadequacy(g, split.Labeled, sim, "", core.DefaultInadequacyConfig())
	if err != nil {
		b.Fatal(err)
	}
	plan := core.PrunePlan(iq, g, split.Query, 0.2)
	cfg := core.ExecConfig{Workers: 2, Compress: prompt.Compressor{Level: 1}}
	var res *core.Results
	measure(b, "BenchmarkPlanBoostSNS", func() {
		ctx.Known = make(map[tag.NodeID]string, len(start)+len(plan.Queries))
		for v, l := range start {
			ctx.Known[v] = l
		}
		if res, _, err = core.BoostWith(ctx, predictors.SNS{}, sim, plan, core.DefaultBoostConfig(), cfg); err != nil {
			b.Fatal(err)
		}
	}, nil)
	if len(res.Pred) != len(plan.Queries) {
		b.Fatalf("%d answers for %d queries", len(res.Pred), len(plan.Queries))
	}
}
