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

// The plan-path benchmarks time the three stages that read every node's
// text on a full-size pubmed graph (19,717 nodes): generating it,
// building the SNS similarity index over it, and planning and asking
// 200 SNS queries with neighbor abstracts at compression level 1. They
// use only APIs that older releases also have, so the same file
// measures a before and an after. With MQO_BENCH_JSON set (the Makefile
// benchplan target points it at BENCH_plan.json), each appends one JSON
// line with its ns/op, B/op and allocs/op. The line is written for the
// measured run (b.N > 1), not for the single warm-up iteration the
// testing package runs first, so run them with -benchtime 3x or more.

// pubmed generates the full-size pubmed graph at dataset seed 1.
func pubmed(b *testing.B) *tag.Graph {
	b.Helper()
	spec, err := tag.SpecByName("pubmed")
	if err != nil {
		b.Fatal(err)
	}
	return tag.Generate(spec, 1, tag.Options{})
}

// measure runs op b.N times under the timer and, when MQO_BENCH_JSON
// names a file and this is the measured run, appends its row.
func measure(b *testing.B, name string, op func()) {
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
	path := os.Getenv("MQO_BENCH_JSON")
	if path == "" || b.N <= 1 {
		return
	}
	n := uint64(b.N)
	line, err := json.Marshal(map[string]any{
		"bench":         name,
		"n":             b.N,
		"ns_per_op":     elapsed.Nanoseconds() / int64(b.N),
		"bytes_per_op":  (after.TotalAlloc - before.TotalAlloc) / n,
		"allocs_per_op": (after.Mallocs - before.Mallocs) / n,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"time":          time.Now().UTC().Format(time.RFC3339),
	})
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
	measure(b, "BenchmarkPlanGenerate", func() { g = pubmed(b) })
	if g.NumNodes() != 19717 {
		b.Fatalf("pubmed has %d nodes", g.NumNodes())
	}
}

// BenchmarkPlanSimilarity times building the SNS TF-IDF similarity
// index over every pubmed node's text.
func BenchmarkPlanSimilarity(b *testing.B) {
	g := pubmed(b)
	var s *predictors.Similarity
	measure(b, "BenchmarkPlanSimilarity", func() { s = predictors.NewSimilarity(g) })
	if s.Score(0, 0) <= 0 {
		b.Fatal("node 0 has no similarity to itself")
	}
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
	})
	if len(res.Pred) != len(split.Query) {
		b.Fatalf("%d answers for %d queries", len(res.Pred), len(split.Query))
	}
}
