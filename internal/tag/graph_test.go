package tag

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// smallGraph builds a reduced Cora for fast tests.
func smallGraph(t testing.TB, nodes int, seed uint64) (*Graph, Spec) {
	t.Helper()
	spec, err := SmallSpec("cora", nodes)
	if err != nil {
		t.Fatal(err)
	}
	return Generate(spec, seed, Options{}), spec
}

func TestGenerateValidates(t *testing.T) {
	g, _ := smallGraph(t, 300, 1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := smallGraph(t, 200, 7)
	b, _ := smallGraph(t, 200, 7)
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	for i := range a.Nodes {
		if a.Title(NodeID(i)) != b.Title(NodeID(i)) || a.Abstract(NodeID(i)) != b.Abstract(NodeID(i)) || a.Nodes[i].Label != b.Nodes[i].Label {
			t.Fatalf("node %d differs across identical seeds", i)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, _ := smallGraph(t, 200, 1)
	b, _ := smallGraph(t, 200, 2)
	same := 0
	for i := range a.Nodes {
		if a.Title(NodeID(i)) == b.Title(NodeID(i)) {
			same++
		}
	}
	if same == len(a.Nodes) {
		t.Fatal("different seeds produced identical texts")
	}
}

func TestHomophilyNearTarget(t *testing.T) {
	spec, err := SmallSpec("cora", 1500)
	if err != nil {
		t.Fatal(err)
	}
	g := Generate(spec, 3, Options{})
	h := g.EdgeHomophily()
	if h < spec.Homophily-0.12 || h > spec.Homophily+0.12 {
		t.Fatalf("homophily %.3f too far from target %.3f", h, spec.Homophily)
	}
}

func TestMeanDegreeNearTarget(t *testing.T) {
	spec, err := SmallSpec("cora", 1500)
	if err != nil {
		t.Fatal(err)
	}
	g := Generate(spec, 3, Options{})
	st := Summarize(g, spec)
	if st.MeanDegree < spec.AvgDegree*0.7 || st.MeanDegree > spec.AvgDegree*1.1 {
		t.Fatalf("mean degree %.2f too far from target %.2f", st.MeanDegree, spec.AvgDegree)
	}
}

func TestDegreeSkew(t *testing.T) {
	spec, err := SmallSpec("cora", 1500)
	if err != nil {
		t.Fatal(err)
	}
	g := Generate(spec, 5, Options{})
	st := Summarize(g, spec)
	// Preferential attachment should create hubs well above the mean.
	if float64(st.MaxDegree) < 3*st.MeanDegree {
		t.Fatalf("max degree %d not skewed vs mean %.2f", st.MaxDegree, st.MeanDegree)
	}
}

func TestSaturatedFraction(t *testing.T) {
	spec, err := SmallSpec("pubmed", 2000)
	if err != nil {
		t.Fatal(err)
	}
	g := Generate(spec, 11, Options{})
	low, noisy := 0, 0
	for _, n := range g.Nodes {
		switch {
		case n.Noisy:
			noisy++
		case n.Ambiguity < 0.3:
			low++
		}
	}
	frac := float64(low) / float64(len(g.Nodes))
	if frac < spec.SaturatedFrac-0.05 || frac > spec.SaturatedFrac+0.05 {
		t.Fatalf("saturated fraction %.3f, want ~%.3f", frac, spec.SaturatedFrac)
	}
	noisyFrac := float64(noisy) / float64(len(g.Nodes))
	if noisyFrac < spec.NoisyFrac-0.05 || noisyFrac > spec.NoisyFrac+0.05 {
		t.Fatalf("noisy fraction %.3f, want ~%.3f", noisyFrac, spec.NoisyFrac)
	}
}

func TestKHopExcludesSelfAndOrders(t *testing.T) {
	g, _ := smallGraph(t, 300, 13)
	v := NodeID(0)
	nodes, hops := g.KHop(v, 2)
	if len(nodes) != len(hops) {
		t.Fatalf("nodes/hops length mismatch: %d vs %d", len(nodes), len(hops))
	}
	for i, u := range nodes {
		if u == v {
			t.Fatal("KHop included the query node")
		}
		if hops[i] < 1 || hops[i] > 2 {
			t.Fatalf("hop %d out of range", hops[i])
		}
		if i > 0 && hops[i] < hops[i-1] {
			t.Fatal("KHop not ordered by hop distance")
		}
	}
	// 1-hop set must equal direct neighbors.
	oneHop := map[NodeID]bool{}
	for i, u := range nodes {
		if hops[i] == 1 {
			oneHop[u] = true
		}
	}
	for _, u := range g.Neighbors(v) {
		if !oneHop[u] {
			t.Fatalf("direct neighbor %d missing from 1-hop set", u)
		}
	}
	if len(oneHop) != g.Degree(v) {
		t.Fatalf("1-hop count %d != degree %d", len(oneHop), g.Degree(v))
	}
}

func TestKHopZeroHops(t *testing.T) {
	g, _ := smallGraph(t, 100, 17)
	nodes, hops := g.KHop(0, 0)
	if len(nodes) != 0 || len(hops) != 0 {
		t.Fatal("KHop(0) should be empty")
	}
}

func TestKHopMonotoneInK(t *testing.T) {
	g, _ := smallGraph(t, 400, 19)
	for v := NodeID(0); v < 20; v++ {
		n1, _ := g.KHop(v, 1)
		n2, _ := g.KHop(v, 2)
		if len(n2) < len(n1) {
			t.Fatalf("node %d: 2-hop set smaller than 1-hop set", v)
		}
	}
}

func TestHasEdgeConsistentWithNeighbors(t *testing.T) {
	g, _ := smallGraph(t, 250, 23)
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(NodeID(u)) {
			if !g.HasEdge(NodeID(u), v) || !g.HasEdge(v, NodeID(u)) {
				t.Fatalf("HasEdge inconsistent for {%d,%d}", u, v)
			}
		}
	}
	if g.HasEdge(0, 0) {
		t.Fatal("self loop reported")
	}
}

func TestSplitPerClass(t *testing.T) {
	g, spec := smallGraph(t, 600, 29)
	split := g.SplitPerClass(xrand.New(1), 5, 100)
	if len(split.Labeled) != 5*len(spec.Classes) {
		t.Fatalf("labeled size %d, want %d", len(split.Labeled), 5*len(spec.Classes))
	}
	if len(split.Query) != 100 {
		t.Fatalf("query size %d, want 100", len(split.Query))
	}
	labeled := split.IsLabeled()
	for _, q := range split.Query {
		if labeled[q] {
			t.Fatalf("query node %d also labeled", q)
		}
	}
	// Per-class counts.
	perClass := make([]int, len(spec.Classes))
	for _, v := range split.Labeled {
		perClass[g.Nodes[v].Label]++
	}
	for k, c := range perClass {
		if c != 5 {
			t.Fatalf("class %d has %d labeled nodes, want 5", k, c)
		}
	}
}

func TestSplitFraction(t *testing.T) {
	g, _ := smallGraph(t, 500, 31)
	split := g.SplitFraction(xrand.New(2), 0.4, 120)
	if got, want := len(split.Labeled), 200; got != want {
		t.Fatalf("labeled size %d, want %d", got, want)
	}
	if len(split.Query) != 120 {
		t.Fatalf("query size %d, want 120", len(split.Query))
	}
	labeled := split.IsLabeled()
	for _, q := range split.Query {
		if labeled[q] {
			t.Fatalf("query node %d also labeled", q)
		}
	}
}

func TestSplitFractionPanicsOutOfRange(t *testing.T) {
	g, _ := smallGraph(t, 50, 37)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for labeledFrac > 1")
		}
	}()
	g.SplitFraction(xrand.New(3), 1.5, 10)
}

func TestAllSpecsGenerate(t *testing.T) {
	for _, spec := range Specs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			g := Generate(spec, 41, Options{Scale: 0.08})
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			if len(g.Classes) != len(spec.Classes) {
				t.Fatalf("class count mismatch")
			}
			dist := ClassDistribution(g)
			for k, c := range dist {
				if c == 0 {
					t.Fatalf("class %d (%s) has no nodes", k, g.Classes[k])
				}
			}
			st := Summarize(g, spec)
			if st.Edges == 0 {
				t.Fatal("no edges generated")
			}
		})
	}
}

func TestSpecByName(t *testing.T) {
	for _, name := range SortedNames() {
		if _, err := SpecByName(name); err != nil {
			t.Fatalf("SpecByName(%q): %v", name, err)
		}
	}
	if _, err := SpecByName("nope"); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestTextNonEmptyAndDistinct(t *testing.T) {
	g, _ := smallGraph(t, 200, 43)
	seen := map[string]int{}
	for _, n := range g.Nodes {
		if g.Title(n.ID) == "" || g.Abstract(n.ID) == "" {
			t.Fatalf("node %d has empty text", n.ID)
		}
		seen[g.Title(n.ID)]++
	}
	// Titles are random 10-word strings; duplicates should be rare.
	for title, c := range seen {
		if c > 2 {
			t.Fatalf("title %q repeated %d times", title, c)
		}
	}
}

func TestLabelsOf(t *testing.T) {
	g, _ := smallGraph(t, 100, 47)
	ids := []NodeID{0, 5, 10}
	labels := g.LabelsOf(ids)
	for i, v := range ids {
		if labels[i] != g.Nodes[v].Label {
			t.Fatalf("LabelsOf mismatch at %d", i)
		}
	}
}

// Property: any generated graph validates, for a range of seeds/sizes.
func TestQuickGeneratedGraphsValid(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed uint64, sz uint8) bool {
		nodes := 60 + int(sz)%200
		spec, err := SmallSpec("citeseer", nodes)
		if err != nil {
			return false
		}
		g := Generate(spec, seed, Options{})
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestScaleOption(t *testing.T) {
	spec, _ := SpecByName("cora")
	g := Generate(spec, 51, Options{Scale: 0.1})
	want := int(0.1 * float64(spec.Nodes))
	if g.NumNodes() != want {
		t.Fatalf("scaled nodes = %d, want %d", g.NumNodes(), want)
	}
}

func TestStatsFields(t *testing.T) {
	spec, _ := SpecByName("cora")
	g := Generate(spec, 53, Options{Scale: 0.1})
	st := Summarize(g, spec)
	if st.FullNodes != 2708 || st.FullEdges != 5429 || st.FullFeatures != 1433 {
		t.Fatalf("paper-scale stats wrong: %+v", st)
	}
	if st.Name != "Cora" || st.NodeType != "Paper" {
		t.Fatalf("descriptor fields wrong: %+v", st)
	}
}

// refKHop is the map-based breadth-first search KHop replaced, kept as
// the reference its walk must reproduce: hop, then node ID.
func refKHop(g *Graph, v NodeID, k int) (nodes []NodeID, hopOf []int) {
	if k <= 0 {
		return nil, nil
	}
	dist := map[NodeID]int{v: 0}
	frontier := []NodeID{v}
	for h := 1; h <= k && len(frontier) > 0; h++ {
		var next []NodeID
		for _, u := range frontier {
			for _, w := range g.adj[u] {
				if _, seen := dist[w]; !seen {
					dist[w] = h
					next = append(next, w)
				}
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		for _, w := range next {
			nodes = append(nodes, w)
			hopOf = append(hopOf, h)
		}
		frontier = next
	}
	return nodes, hopOf
}

func TestKHopMatchesReference(t *testing.T) {
	g, _ := smallGraph(t, 400, 29)
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		for k := 0; k <= 5; k++ {
			nodes, hops := g.KHop(v, k)
			wantNodes, wantHops := refKHop(g, v, k)
			if !slices.Equal(nodes, wantNodes) || !slices.Equal(hops, wantHops) {
				t.Fatalf("KHop(%d, %d) = %v %v, want %v %v", v, k, nodes, hops, wantNodes, wantHops)
			}
		}
	}
}

func TestWalkStopsWhenVisitDeclines(t *testing.T) {
	g, _ := smallGraph(t, 400, 31)
	var v NodeID
	for g.Degree(v) == 0 {
		v++
	}
	var hops []int
	g.Walk(v, 5, func(hop int, level []NodeID) bool {
		hops = append(hops, hop)
		return hop < 2
	})
	if !slices.Equal(hops, []int{1, 2}) {
		t.Fatalf("visited hops %v, want [1 2]", hops)
	}
	// The walk after an early stop starts clean: no stamp leaks from
	// the stopped walk into the next one.
	want, _ := refKHop(g, v, 3)
	if nodes, _ := g.KHop(v, 3); !slices.Equal(nodes, want) {
		t.Fatal("KHop after an early-stopped walk differs from the reference")
	}
}

func TestWalkerEpochWrapClearsStamps(t *testing.T) {
	w := &walker{seen: []uint32{0, ^uint32(0), 7}, epoch: ^uint32(0)}
	if mark := w.begin(3, 1); mark != 1 {
		t.Fatalf("mark after wrap = %d, want 1", mark)
	}
	if !slices.Equal(w.seen, []uint32{0, 0, 0}) {
		t.Fatalf("stamps after wrap = %v, want cleared", w.seen)
	}
	// A walk that takes k stamps gets the k above every earlier stamp,
	// and clears the array first when they would pass the top of
	// uint32.
	w = &walker{seen: []uint32{5, 9, 0}, epoch: 9}
	if first := w.begin(3, 4); first != 10 || w.epoch != 13 {
		t.Fatalf("begin(3, 4) = %d with epoch %d, want 10 and 13", first, w.epoch)
	}
	w.epoch = ^uint32(0) - 2
	if first := w.begin(3, 4); first != 1 || w.epoch != 4 || !slices.Equal(w.seen, []uint32{0, 0, 0}) {
		t.Fatalf("begin near the top = %d with epoch %d and stamps %v, want 1, 4 and cleared", first, w.epoch, w.seen)
	}
}

// memberSet is a Targets over a listed set. It may list nodes outside
// the graph and report a Len above its true size; Nearest must ignore
// the one and only steer cost by the other.
type memberSet struct {
	list  []NodeID
	has   map[NodeID]bool
	slack int
}

func newMemberSet(list []NodeID, slack int) memberSet {
	s := memberSet{list: list, has: map[NodeID]bool{}, slack: slack}
	for _, u := range list {
		s.has[u] = true
	}
	return s
}

func (s memberSet) Len() int { return len(s.list) + s.slack }

func (s memberSet) Append(dst []NodeID) []NodeID { return append(dst, s.list...) }

func (s memberSet) Has(u NodeID) bool { return s.has[u] }

// randomGraph builds an undirected graph of n nodes with m random
// edges among its first three quarters, so the rest is isolated.
func randomGraph(rng *xrand.RNG, n, m int) *Graph {
	g := &Graph{Nodes: make([]Node, n), adj: make([][]NodeID, n)}
	linked := max(1, 3*n/4)
	seen := map[[2]NodeID]bool{}
	for i := 0; i < m; i++ {
		u, v := NodeID(rng.Intn(linked)), NodeID(rng.Intn(linked))
		if u == v || seen[[2]NodeID{min(u, v), max(u, v)}] {
			continue
		}
		seen[[2]NodeID{min(u, v), max(u, v)}] = true
		g.addEdge(u, v)
	}
	g.sortAdj()
	return g
}

// refNearest is Nearest by brute force: breadth-first distances from
// v, then the members within h hops for the fewest h that hold want of
// them, sorted.
func refNearest(g *Graph, v NodeID, maxHops, want int, members []NodeID) []NodeID {
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[v] = 0
	for queue := []NodeID{v}; len(queue) > 0; queue = queue[1:] {
		for _, x := range g.adj[queue[0]] {
			if dist[x] < 0 {
				dist[x] = dist[queue[0]] + 1
				queue = append(queue, x)
			}
		}
	}
	var out []NodeID
	for h := 1; h <= maxHops; h++ {
		out = out[:0]
		for _, u := range members {
			if u >= 0 && int(u) < g.NumNodes() && dist[u] >= 1 && dist[u] <= h {
				out = append(out, u)
			}
		}
		if len(out) >= want {
			break
		}
	}
	slices.Sort(out)
	return out
}

// TestNearestMatchesBruteForce checks Nearest, and Reach.Nearest over
// an index of the same set, against breadth-first distances on random
// graphs with isolated nodes, for target sets of
// no node, one, a few and every node (some also listing v and IDs
// outside the graph, or reporting a Len above their size), maxHops 0–6
// and want 0–10, from every node, appending after a prefix or not.
func TestNearestMatchesBruteForce(t *testing.T) {
	rng := xrand.New(61)
	checks := 0
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(80)
		g := randomGraph(rng, n, rng.Intn(3*n))
		all := make([]NodeID, n)
		for i := range all {
			all[i] = NodeID(i)
		}
		var sets [][]NodeID
		sets = append(sets, nil, []NodeID{NodeID(rng.Intn(n))})
		for _, k := range []int{3, 8} {
			if k <= n {
				var few []NodeID
				for _, i := range rng.Sample(n, k) {
					few = append(few, NodeID(i))
				}
				sets = append(sets, few)
			}
		}
		sets = append(sets, all, []NodeID{-3, NodeID(n), NodeID(n + 7), NodeID(rng.Intn(n))})
		for si, members := range sets {
			ts := newMemberSet(members, (si%2)*rng.Intn(40))
			r := NewReach(g, ts)
			for v := NodeID(0); int(v) < n; v++ {
				for maxHops := 0; maxHops <= 6; maxHops++ {
					for want := 0; want <= 10; want++ {
						var prefix []NodeID
						if want%3 == 0 {
							prefix = []NodeID{-1, -2}
						}
						got := g.Nearest(v, maxHops, want, ts, slices.Clone(prefix))
						if !slices.Equal(got[:len(prefix)], prefix) {
							t.Fatalf("trial %d: Nearest changed dst's prefix to %v", trial, got[:len(prefix)])
						}
						got = got[len(prefix):]
						slices.Sort(got)
						ref := refNearest(g, v, maxHops, want, members)
						if !slices.Equal(got, ref) {
							t.Fatalf("trial %d (n=%d, set %d %v): Nearest(%d, %d, %d) = %v, want %v",
								trial, n, si, members, v, maxHops, want, got, ref)
						}
						got = r.Nearest(v, maxHops, want, nil)
						slices.Sort(got)
						if !slices.Equal(got, ref) {
							t.Fatalf("trial %d (n=%d, set %d %v): Reach.Nearest(%d, %d, %d) = %v, want %v",
								trial, n, si, members, v, maxHops, want, got, ref)
						}
						checks++
					}
				}
			}
		}
	}
	t.Logf("%d searches match", checks)
}
