package predictors

import (
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/tag"
	"repro/internal/xrand"
)

// refSNSSelect is the SNS selection Select replaced, kept as the
// reference its single walk must reproduce: KHop(v, k) afresh for
// k = 1..5 until M labeled nodes are in reach, then the top M by
// (score, ID). KHop itself is pinned to the map-based search it
// replaced in package tag.
func refSNSSelect(ctx *Context, v tag.NodeID) []Selected {
	var labeled []tag.NodeID
	for k := 1; k <= maxSNSHops; k++ {
		hood, _ := ctx.Graph.KHop(v, k)
		labeled = labeled[:0]
		for _, u := range hood {
			if ctx.label(u) != "" {
				labeled = append(labeled, u)
			}
		}
		if len(labeled) >= ctx.M {
			break
		}
	}
	if len(labeled) == 0 {
		return nil
	}
	sim := ctx.similarity()
	type scored struct {
		id tag.NodeID
		s  float64
	}
	ss := make([]scored, len(labeled))
	for i, u := range labeled {
		ss[i] = scored{id: u, s: sim.Score(v, u)}
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].s != ss[j].s {
			return ss[i].s > ss[j].s
		}
		return ss[i].id < ss[j].id
	})
	n := ctx.M
	if n > len(ss) {
		n = len(ss)
	}
	out := make([]Selected, 0, n)
	for _, sc := range ss[:n] {
		out = append(out, Selected{ID: sc.id, Label: ctx.label(sc.id)})
	}
	return out
}

// pseudoLabeled returns a context over a generated graph whose Known
// also holds pseudo-labels on a tenth of the other nodes. Over M = 1, 4
// and 12, SNS then stops at every depth from one hop to five.
func pseudoLabeled(t testing.TB, nodes int, seed uint64) *Context {
	t.Helper()
	ctx, _ := testContext(t, nodes, seed)
	rng := xrand.New(seed + 2)
	g := ctx.Graph
	for i := 0; i < g.NumNodes(); i++ {
		if rng.Float64() < 0.10 {
			ctx.Known[tag.NodeID(i)] = g.Classes[rng.Intn(len(g.Classes))]
		}
	}
	ctx.SetSimilarity(NewSimilarity(g))
	return ctx
}

func TestSNSSelectMatchesReference(t *testing.T) {
	for _, m := range []int{1, 4, 12} {
		ctx := pseudoLabeled(t, 600, 41)
		ctx.M = m
		for v := tag.NodeID(0); int(v) < ctx.Graph.NumNodes(); v++ {
			got, want := SNS{}.Select(ctx, v), refSNSSelect(ctx, v)
			if !slices.Equal(got, want) {
				t.Fatalf("M=%d node %d: Select = %v, reference %v", m, v, got, want)
			}
		}
	}
}

// TestSimilarityScoresBitIdentical pins SNS determinism: over every
// edge of cora, a pair's score is the same float64, bit for bit, on
// repeated calls, in either argument order, and in a second,
// independently built index.
func TestSimilarityScoresBitIdentical(t *testing.T) {
	spec, err := tag.SpecByName("cora")
	if err != nil {
		t.Fatal(err)
	}
	g := tag.Generate(spec, 1, tag.Options{})
	a, b := NewSimilarity(g), NewSimilarity(g)
	edges, bad := 0, 0
	for u := tag.NodeID(0); int(u) < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(u) {
			if v < u {
				continue
			}
			edges++
			want := math.Float64bits(a.Score(u, v))
			for _, got := range []float64{a.Score(u, v), a.Score(u, v), a.Score(v, u), b.Score(u, v), b.Score(v, u)} {
				if math.Float64bits(got) != want {
					bad++
					break
				}
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d edges scored differently across calls, orders or indexes", bad, edges)
	}
}

// TestWalksConcurrent runs KHop and SNS.Select from 8 goroutines over
// one graph, which share the pool of visited-stamp arrays; each must
// get the serial results. Run it with -race -count=10.
func TestWalksConcurrent(t *testing.T) {
	ctx := pseudoLabeled(t, 600, 43)
	g := ctx.Graph
	type result struct {
		hood []tag.NodeID
		sel  []Selected
	}
	run := func(v tag.NodeID) result {
		hood, _ := g.KHop(v, 1+int(v)%5)
		return result{hood: hood, sel: SNS{}.Select(ctx, v)}
	}
	want := make([]result, g.NumNodes())
	for i := range want {
		want[i] = run(tag.NodeID(i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range want {
				// Each goroutine starts at its own offset, so walks of
				// different nodes interleave.
				v := tag.NodeID((i + w*len(want)/8) % len(want))
				got := run(v)
				if !slices.Equal(got.hood, want[v].hood) || !slices.Equal(got.sel, want[v].sel) {
					t.Errorf("goroutine %d node %d: concurrent result differs from serial", w, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSNSConcurrentFirstUse starts 8 goroutines at once on a fresh
// Context whose similarity index is not built yet, as a fanned-out
// plan does. Each must get the serial results, and all must share one
// index. Run it with -race -count=10.
func TestSNSConcurrentFirstUse(t *testing.T) {
	ref := pseudoLabeled(t, 400, 47)
	n := ref.Graph.NumNodes()
	want := make([][]Selected, n)
	for v := range want {
		want[v] = SNS{}.Select(ref, tag.NodeID(v))
	}
	ctx := &Context{Graph: ref.Graph, Known: ref.Known, M: ref.M, Seed: ref.Seed}
	const workers = 8
	indexes := make([]*Similarity, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < n; i++ {
				v := tag.NodeID((i + w*n/workers) % n)
				if got := (SNS{}).Select(ctx, v); !slices.Equal(got, want[v]) {
					t.Errorf("goroutine %d node %d: %v, serial %v", w, v, got, want[v])
					return
				}
				if i == 0 {
					indexes[w] = ctx.similarity()
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	for w, idx := range indexes {
		if idx != indexes[0] {
			t.Fatalf("goroutine %d got index %p, goroutine 0 got %p: the index was built more than once", w, idx, indexes[0])
		}
	}
}

// BenchmarkSNSSelect measures one SNS selection on full pubmed with
// the paper's labeled split (20 per class) over a fixed node sample;
// the similarity index is built before the timer starts.
func BenchmarkSNSSelect(b *testing.B) {
	spec, err := tag.SpecByName("pubmed")
	if err != nil {
		b.Fatal(err)
	}
	g := tag.Generate(spec, 1, tag.Options{})
	split := g.SplitPerClass(xrand.New(2), 20, 1000)
	ctx := &Context{Graph: g, Known: KnownFromSplit(g, split), M: 4, Seed: 1}
	ctx.SetSimilarity(NewSimilarity(g))
	nodes := split.Query
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSel = SNS{}.Select(ctx, nodes[i%len(nodes)])
	}
}

var benchSel []Selected
