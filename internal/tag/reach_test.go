package tag

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/xrand"
)

// reachSets returns the member sets the Reach tests index on g: none;
// the paper's 20-per-class split; the split plus every other node, so
// that half the queries are members themselves; and the split listed
// twice, with IDs outside the graph.
func reachSets(g *Graph) map[string][]NodeID {
	split := g.SplitPerClass(xrand.New(4), 20, 0).Labeled
	half := slices.Clone(split)
	for v := 0; v < g.NumNodes(); v += 2 {
		half = append(half, NodeID(v))
	}
	odd := append(slices.Clone(split), -5, NodeID(g.NumNodes()), NodeID(g.NumNodes()+9))
	odd = append(odd, split...)
	return map[string][]NodeID{"none": nil, "split": split, "half": half, "odd": odd}
}

// checkReach compares the Nearest of an index of members with
// g.Nearest over them (each listed once) from every node of g that
// step selects, for maxHops 0–6 and want 1, 4, 10 and one more than
// the set holds, appending after a prefix.
func checkReach(t *testing.T, label string, g *Graph, members []NodeID, step int) {
	t.Helper()
	r := NewReach(g, newMemberSet(members, 0))
	once := slices.Clone(members)
	slices.Sort(once)
	ts := newMemberSet(slices.Compact(once), 0)
	prefix := []NodeID{-1}
	for v := NodeID(0); int(v) < g.NumNodes(); v += NodeID(step) {
		for maxHops := 0; maxHops <= 6; maxHops++ {
			for _, want := range []int{1, 4, 10, len(members) + 1} {
				got := r.Nearest(v, maxHops, want, slices.Clone(prefix))
				if !slices.Equal(got[:1], prefix) {
					t.Fatalf("%s: Nearest changed dst's prefix to %v", label, got[:1])
				}
				got = got[1:]
				walk := g.Nearest(v, maxHops, want, ts, nil)
				slices.Sort(got)
				slices.Sort(walk)
				if !slices.Equal(got, walk) {
					t.Fatalf("%s: node %d, maxHops %d, want %d: index %v, walk %v", label, v, maxHops, want, got, walk)
				}
			}
		}
	}
}

// TestReachMatchesWalk pins Reach.Nearest to the walk, g.Nearest, on
// every node of 800-node cora, citeseer and pubmed, for every set of
// reachSets.
func TestReachMatchesWalk(t *testing.T) {
	for _, name := range []string{"cora", "citeseer", "pubmed"} {
		spec, err := SmallSpec(name, 800)
		if err != nil {
			t.Fatal(err)
		}
		g := Generate(spec, 3, Options{})
		for set, members := range reachSets(g) {
			checkReach(t, fmt.Sprintf("%s, %s set", name, set), g, members, 1)
		}
	}
}

// TestReachMatchesWalkPubmed does the same on every 7th node of
// full-size pubmed, whose degree skew gives far larger neighborhoods.
func TestReachMatchesWalkPubmed(t *testing.T) {
	spec, err := SpecByName("pubmed")
	if err != nil {
		t.Fatal(err)
	}
	g := Generate(spec, 1, Options{})
	for set, members := range reachSets(g) {
		checkReach(t, "full pubmed, "+set+" set", g, members, 7)
	}
}

// TestReachConcurrent queries one Reach from 8 goroutines, which share
// the pool of visited stamps and per-member distances; each must get
// the walk's results. The set holds half the nodes and IDs outside the
// graph, and each node asks for its own maxHops and want. Run it with
// -race -count=10.
func TestReachConcurrent(t *testing.T) {
	spec, err := SmallSpec("pubmed", 800)
	if err != nil {
		t.Fatal(err)
	}
	g := Generate(spec, 5, Options{})
	members := append(reachSets(g)["half"], -5, NodeID(g.NumNodes()))
	r := NewReach(g, newMemberSet(members, 0))
	once := slices.Clone(members)
	slices.Sort(once)
	ts := newMemberSet(slices.Compact(once), 0)
	search := func(v NodeID) (maxHops, want int) { return 1 + int(v)%6, 1 + int(v)%11 }
	want := make([][]NodeID, g.NumNodes())
	for v := range want {
		maxHops, k := search(NodeID(v))
		want[v] = g.Nearest(NodeID(v), maxHops, k, ts, nil)
		slices.Sort(want[v])
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var got []NodeID
			for i := range want {
				v := NodeID((i + w*len(want)/8) % len(want))
				maxHops, k := search(v)
				got = r.Nearest(v, maxHops, k, got[:0])
				slices.Sort(got)
				if !slices.Equal(got, want[v]) {
					t.Errorf("goroutine %d node %d: %v, walk %v", w, v, got, want[v])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
