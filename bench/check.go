package main

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/predictors"
	"repro/internal/tag"
	"repro/internal/xrand"
)

// gate collects correctness failures; any failure makes the run exit
// non-zero with "correct": false.
type gate struct {
	failures []string
}

func (g *gate) failf(format string, args ...any) {
	g.failures = append(g.failures, fmt.Sprintf(format, args...))
}

// result assembles the run's final line.
func (g *gate) result(ms *metricSet, attempted, failed int) (*result, error) {
	vals, err := ms.complete()
	if err != nil {
		return nil, err
	}
	if failed > 0 {
		g.failf("%d of %d operations failed", failed, attempted)
	}
	return &result{Correct: len(g.failures) == 0, Attempted: attempted, Failed: failed, Metrics: vals, failures: g.failures}, nil
}

// checkContract gates every response of one serve run against the
// /v1/query contract: strict decoding, and Retry-After on every 429/503.
// It returns the indexes of the answered requests.
func (g *gate) checkContract(run serveRun, tr traffic) (okIdx []int) {
	violations := 0
	for i, s := range run.samples {
		if s.violation != "" {
			if violations == 0 {
				g.failf("request %d (node %d): %s", i, tr.nodes[i], s.violation)
			}
			violations++
		}
		if s.ok {
			okIdx = append(okIdx, i)
		}
	}
	if violations > 1 {
		g.failf("%d responses broke the /v1/query contract", violations)
	}
	if len(okIdx) == 0 {
		g.failf("no request was answered")
	}
	return okIdx
}

// checkServe gates one serve run: the contract, and a seeded sample of
// answers equal to a serial core.ExecuteWith over an identical, freshly
// built context.
func (g *gate) checkServe(rig *serveRig, run serveRun, tr traffic, seed uint64) {
	okIdx := g.checkContract(run, tr)
	if len(okIdx) == 0 {
		return
	}
	rng := xrand.New(seed).SplitString("bench/check")
	picked := rng.Sample(len(okIdx), min(checkedSample, len(okIdx)))
	nodes := make([]tag.NodeID, 0, len(picked))
	seen := make(map[tag.NodeID]bool, len(picked))
	for _, j := range picked {
		if v := tag.NodeID(tr.nodes[okIdx[j]]); !seen[v] {
			seen[v] = true
			nodes = append(nodes, v)
		}
	}
	sort.Slice(nodes, func(a, b int) bool { return nodes[a] < nodes[b] })
	m, err := predictors.ByName(rig.w.method)
	if err != nil {
		g.failf("reference method: %v", err)
		return
	}
	ref, err := referenceAnswers(rig.g, rig.known, m, nodes)
	if err != nil {
		g.failf("reference execution: %v", err)
		return
	}
	mismatches := 0
	for _, j := range picked {
		i := okIdx[j]
		s, want := run.samples[i], ref[tag.NodeID(tr.nodes[i])]
		if s.category != want.Category || s.tokens != want.InputTokens+want.OutputTokens {
			if mismatches == 0 {
				g.failf("node %d answered %q (%d tokens), serial reference %q (%d tokens)",
					tr.nodes[i], s.category, s.tokens, want.Category, want.InputTokens+want.OutputTokens)
			}
			mismatches++
		}
	}
	if mismatches > 1 {
		g.failf("%d of %d sampled answers differ from the serial reference", mismatches, len(picked))
	}
}

// referenceAnswers executes nodes serially (Workers 1) over a fresh
// context and simulator built exactly like the served ones. The served
// backend adds only latency, so its answers must equal these.
func referenceAnswers(g *tag.Graph, known map[tag.NodeID]string, m predictors.Method, nodes []tag.NodeID) (map[tag.NodeID]llm.Response, error) {
	ctx := newContext(g, known, false)
	sim := llm.NewSim(llm.GPT35(), g.Vocab, g.Classes, datasetSeed)
	out := make(map[tag.NodeID]llm.Response, len(nodes))
	var mu sync.Mutex
	_, err := core.ExecuteWith(ctx, m, sim, core.Plan{Queries: nodes}, core.ExecConfig{
		Workers: 1,
		OnResult: func(q core.QueryOutcome) {
			mu.Lock()
			out[q.Node] = q.Response
			mu.Unlock()
		},
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// checkBatch gates one batch-boost run: warm passes make no predictor
// call and repeat the cold predictions exactly, and every iteration
// reaches the same accuracy at the same token cost.
func (g *gate) checkBatch(iters []batchIter) {
	for i, it := range iters {
		if it.warm.calls != 0 {
			g.failf("iteration %d: warm pass made %d predictor calls", i, it.warm.calls)
		}
		if !samePreds(it.cold.pred, it.warm.pred) {
			g.failf("iteration %d: warm predictions differ from cold ones", i)
		}
		if it.cold.accuracy != iters[0].cold.accuracy || it.cold.tokens != iters[0].cold.tokens {
			g.failf("iteration %d: accuracy %v at %d tokens, iteration 0: %v at %d tokens",
				i, it.cold.accuracy, it.cold.tokens, iters[0].cold.accuracy, iters[0].cold.tokens)
		}
	}
}

func samePreds(a, b map[tag.NodeID]string) bool {
	if len(a) != len(b) {
		return false
	}
	for v, c := range a {
		if b[v] != c {
			return false
		}
	}
	return true
}
