package predictors

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/tag"
	"repro/internal/xrand"
)

// refSNSSelect is the oldest SNS selection, kept as a reference that
// shares no search code with Select: KHop(v, k) afresh for k = 1..5
// until M labeled nodes are in reach, then the top M by (score, ID).
// KHop itself is pinned to the map-based search it replaced in
// package tag.
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

// refWalkSelect is SNS.Select as it stood before tag.Graph.Nearest and
// Similarity.Scores, kept verbatim apart from its name: one Walk that
// stops at the hop bringing the labeled count to M, then Score for
// each candidate.
func refWalkSelect(ctx *Context, v tag.NodeID) []Selected {
	type scored struct {
		id tag.NodeID
		s  float64
	}
	var ss []scored
	ctx.Graph.Walk(v, maxSNSHops, func(_ int, level []tag.NodeID) bool {
		for _, u := range level {
			if ctx.label(u) != "" {
				ss = append(ss, scored{id: u})
			}
		}
		return len(ss) < ctx.M
	})
	if len(ss) == 0 {
		return nil
	}
	sim := ctx.similarity()
	for i := range ss {
		ss[i].s = sim.Score(v, ss[i].id)
	}
	slices.SortFunc(ss, func(a, b scored) int {
		switch {
		case a.s > b.s:
			return -1
		case a.s < b.s:
			return 1
		}
		return cmp.Compare(a.id, b.id)
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

// snsKnownMaps returns the Known maps TestSNSMatchesReference selects
// over on g: the paper's 20-per-class split; nothing; the split plus a
// label on every other remaining node; and the split plus entries SNS
// must ignore (a negative ID, IDs past the graph, empty labels).
func snsKnownMaps(g *tag.Graph, seed uint64) map[string]map[tag.NodeID]string {
	split := g.SplitPerClass(xrand.New(seed), 20, g.NumNodes()/2)
	half := KnownFromSplit(g, split)
	for v := 0; v < g.NumNodes(); v += 2 {
		if half[tag.NodeID(v)] == "" {
			half[tag.NodeID(v)] = g.Classes[g.Nodes[v].Label]
		}
	}
	odd := KnownFromSplit(g, split)
	odd[-5] = g.Classes[0]
	odd[tag.NodeID(g.NumNodes())] = g.Classes[0]
	odd[tag.NodeID(g.NumNodes()+9)] = g.Classes[0]
	for v := 3; v < g.NumNodes(); v += 7 {
		if odd[tag.NodeID(v)] == "" {
			odd[tag.NodeID(v)] = ""
		}
	}
	return map[string]map[tag.NodeID]string{
		"split": KnownFromSplit(g, split),
		"empty": {},
		"half":  half,
		"odd":   odd,
	}
}

// TestSNSMatchesReference pins Select to refWalkSelect on every node
// of cora, citeseer and pubmed, for M = 1, 4 and 10 and every Known
// map of snsKnownMaps. Over the odd map every node is also asked once
// while it holds a label of its own, which never counts. Then 8
// goroutines repeat the split's selections over one shared Context
// (run it with -race).
func TestSNSMatchesReference(t *testing.T) {
	for _, name := range []string{"cora", "citeseer", "pubmed"} {
		spec, err := tag.SmallSpec(name, 800)
		if err != nil {
			t.Fatal(err)
		}
		g := tag.Generate(spec, 3, tag.Options{})
		sim := NewSimilarity(g)
		for mapName, known := range snsKnownMaps(g, 4) {
			for _, m := range []int{1, 4, 10} {
				ctx := &Context{Graph: g, Known: known, M: m, Seed: 1}
				ctx.SetSimilarity(sim)
				for v := tag.NodeID(0); int(v) < g.NumNodes(); v++ {
					own, had := known[v]
					if mapName == "odd" && own == "" {
						known[v] = g.Classes[g.Nodes[v].Label]
					}
					got, want := SNS{}.Select(ctx, v), refWalkSelect(ctx, v)
					if mapName == "odd" && own == "" {
						if had {
							known[v] = own
						} else {
							delete(known, v)
						}
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s, %s Known, M=%d, node %d: Select = %v, reference %v", name, mapName, m, v, got, want)
					}
				}
			}
		}
		known := snsKnownMaps(g, 4)["split"]
		ctx := &Context{Graph: g, Known: known, M: 4, Seed: 1}
		ctx.SetSimilarity(sim)
		want := make([][]Selected, g.NumNodes())
		for v := range want {
			want[v] = refWalkSelect(ctx, tag.NodeID(v))
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := range want {
					v := tag.NodeID((i + w*len(want)/8) % len(want))
					if got := (SNS{}).Select(ctx, v); !slices.Equal(got, want[v]) {
						t.Errorf("%s goroutine %d node %d: %v, reference %v", name, w, v, got, want[v])
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

// TestScoresMatchScore pins the dense scorer to Score bit for bit on
// every ordered pair among 300 nodes of each calibration dataset, over
// the TF-IDF index and over a dense-vector index with negative
// weights and zero rows.
func TestScoresMatchScore(t *testing.T) {
	for _, name := range []string{"cora", "citeseer", "pubmed"} {
		spec, err := tag.SmallSpec(name, 300)
		if err != nil {
			t.Fatal(err)
		}
		g := tag.Generate(spec, 8, tag.Options{})
		rng := xrand.New(9)
		vecs := make([][]float64, g.NumNodes())
		for i := range vecs {
			vecs[i] = make([]float64, 1+rng.Intn(24))
			if i%11 == 0 {
				continue // a zero row
			}
			for d := range vecs[i] {
				if rng.Float64() < 0.4 {
					vecs[i][d] = rng.NormFloat64()
				}
			}
		}
		all := make([]tag.NodeID, g.NumNodes())
		for i := range all {
			all[i] = tag.NodeID(i)
		}
		for idxName, s := range map[string]*Similarity{"tfidf": NewSimilarity(g), "dense": NewSimilarityDense(vecs)} {
			for v := range all {
				got := s.Scores(tag.NodeID(v), all, nil)
				for u, x := range got {
					if want := s.Score(tag.NodeID(v), tag.NodeID(u)); math.Float64bits(x) != math.Float64bits(want) {
						t.Fatalf("%s %s: Scores(%d)[%d] = %v, Score = %v", name, idxName, v, u, x, want)
					}
				}
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

// TestSNSFixedLabelsMatchesReference pins Select inside
// WithFixedLabels, which reads the scope's index of the labels, to
// refWalkSelect on every node of cora, citeseer and pubmed, for M = 1,
// 4 and 10 and every Known map of snsKnownMaps. After the scope ends
// a label is added, and Select must see it.
func TestSNSFixedLabelsMatchesReference(t *testing.T) {
	for _, name := range []string{"cora", "citeseer", "pubmed"} {
		spec, err := tag.SmallSpec(name, 800)
		if err != nil {
			t.Fatal(err)
		}
		g := tag.Generate(spec, 3, tag.Options{})
		sim := NewSimilarity(g)
		for mapName, known := range snsKnownMaps(g, 4) {
			for _, m := range []int{1, 4, 10} {
				ctx := &Context{Graph: g, Known: known, M: m, Seed: 1}
				ctx.SetSimilarity(sim)
				ctx.WithFixedLabels(func() {
					for v := tag.NodeID(0); int(v) < g.NumNodes(); v++ {
						if got, want := (SNS{}).Select(ctx, v), refWalkSelect(ctx, v); !slices.Equal(got, want) {
							t.Fatalf("%s, %s Known, M=%d, node %d: Select = %v, reference %v", name, mapName, m, v, got, want)
						}
					}
				})
			}
		}
		// The index lives only as long as the scope: a label added
		// after it must be found.
		ctx := &Context{Graph: g, Known: snsKnownMaps(g, 4)["empty"], M: 1, Seed: 1}
		ctx.SetSimilarity(sim)
		v := tag.NodeID(0)
		for g.Degree(v) == 0 {
			v++
		}
		ctx.WithFixedLabels(func() {
			if sel := (SNS{}).Select(ctx, v); sel != nil {
				t.Fatalf("%s: selection over no labels = %v", name, sel)
			}
		})
		u := g.Neighbors(v)[0]
		ctx.Known[u] = g.Classes[0]
		if sel := (SNS{}).Select(ctx, v); len(sel) != 1 || sel[0].ID != u {
			t.Fatalf("%s: after the scope, selection = %v, want the new label on %d", name, sel, u)
		}
	}
}

// TestFixedLabelsConcurrentFirstUse starts 8 goroutines at once inside
// one WithFixedLabels scope whose index is not built yet, as BoostWith's
// first round does; each must get refWalkSelect's results, and all
// must share one index. Run it with -race -count=10.
func TestFixedLabelsConcurrentFirstUse(t *testing.T) {
	ctx := pseudoLabeled(t, 400, 53)
	n := ctx.Graph.NumNodes()
	want := make([][]Selected, n)
	for v := range want {
		want[v] = refWalkSelect(ctx, tag.NodeID(v))
	}
	const workers = 8
	indexes := make([]*tag.Reach, workers)
	ctx.WithFixedLabels(func() {
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
						t.Errorf("goroutine %d node %d: %v, reference %v", w, v, got, want[v])
						return
					}
				}
				indexes[w] = ctx.labelReach()
			}(w)
		}
		close(start)
		wg.Wait()
	})
	for w, idx := range indexes {
		if idx == nil || idx != indexes[0] {
			t.Fatalf("goroutine %d got index %p, goroutine 0 got %p: the index was built more than once", w, idx, indexes[0])
		}
	}
	if ctx.labelReach() != nil {
		t.Fatal("the index outlived its scope")
	}
}
