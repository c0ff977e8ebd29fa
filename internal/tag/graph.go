// Package tag models text-attributed graphs (TAGs) and generates the
// five benchmark datasets the paper evaluates on.
//
// A TAG is G = (V, E, T, X): nodes, edges, per-node text and per-node
// input features (Section III-A of the paper). Here text is synthesized
// by internal/textgen with a controlled per-node ambiguity level, edges
// follow a homophilous degree-skewed random graph, and features are
// encoded from text by internal/encode. Generators for Cora, Citeseer,
// Pubmed, Ogbn-Arxiv and Ogbn-Products reproduce the statistical shape
// of Table II (class counts, degree, homophily, zero-shot difficulty,
// text length); the two OGB graphs can be scaled down for tractable
// experiments while Table V uses their full-size node counts.
package tag

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/textgen"
	"repro/internal/xrand"
)

// NodeID identifies a node within one Graph.
type NodeID int

// Node is a single vertex with its text attribute and ground-truth
// label. Ambiguity is the latent generation parameter that controls how
// informative the node's own text is; algorithms must not read it (it
// exists for analysis and tests only).
type Node struct {
	ID        NodeID
	Title     string
	Abstract  string
	Label     int
	Ambiguity float64
	// Noisy marks label noise: the node's text reads as its confuser
	// class (multi-topic papers, mislabeled products). No amount of
	// evidence recovers these labels — they bound every method's
	// accuracy, as in the real benchmarks. Like Ambiguity, it is a
	// generation-time latent for analysis and tests only.
	Noisy bool
}

// Graph is an undirected text-attributed graph.
type Graph struct {
	Name    string   // short identifier, e.g. "cora"
	Display string   // human name, e.g. "Cora"
	Classes []string // class names, index = label
	Nodes   []Node
	adj     [][]NodeID

	// Vocab is the generating vocabulary; the simulated LLM derives its
	// (noisy) world knowledge from it.
	Vocab *textgen.Vocabulary
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// NumEdges returns |E| counting each undirected edge once.
func (g *Graph) NumEdges() int {
	total := 0
	for _, ns := range g.adj {
		total += len(ns)
	}
	return total / 2
}

// Degree returns the degree of v.
func (g *Graph) Degree(v NodeID) int { return len(g.adj[v]) }

// Neighbors returns v's direct neighbors. The returned slice is shared;
// callers must not modify it.
func (g *Graph) Neighbors(v NodeID) []NodeID { return g.adj[v] }

// HasEdge reports whether an edge {u, v} exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	ns := g.adj[u]
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	return i < len(ns) && ns[i] == v
}

// Text returns the node's full text (title + abstract).
func (g *Graph) Text(v NodeID) string {
	n := &g.Nodes[v]
	if n.Abstract == "" {
		return n.Title
	}
	return n.Title + " " + n.Abstract
}

// KHop returns all nodes within k hops of v (excluding v itself),
// ordered by hop distance and then by ID. HopOf[i] gives the distance
// of the i-th returned node.
func (g *Graph) KHop(v NodeID, k int) (nodes []NodeID, hopOf []int) {
	g.Walk(v, k, func(hop int, level []NodeID) bool {
		slices.Sort(level)
		nodes = append(nodes, level...)
		for range level {
			hopOf = append(hopOf, hop)
		}
		return true
	})
	return nodes, hopOf
}

// Walk explores v's neighborhood breadth-first, one hop at a time, for
// at most maxHops hops. After each hop it calls visit with the hop
// number and the level: every node first reached at that hop, in no
// particular order (v itself is never in a level). The walk stops when
// visit returns false, when maxHops hops are done, or when a level is
// empty. Visit may reorder level in place but must not keep it: the
// slice is reused once visit returns.
//
// A walk marks visited nodes in a visited-stamp array taken from a
// pool, so it allocates nothing once warm, and concurrent walks never
// share an array.
func (g *Graph) Walk(v NodeID, maxHops int, visit func(hop int, level []NodeID) bool) {
	if maxHops <= 0 {
		return
	}
	w := walkers.Get().(*walker)
	mark := w.begin(len(g.adj))
	seen := w.seen
	seen[v] = mark
	buf := append(w.buf[:0], v)
	// buf holds every node reached so far, level after level;
	// buf[lo:hi] is the frontier.
	lo, hi := 0, 1
	for hop := 1; hop <= maxHops; hop++ {
		for _, u := range buf[lo:hi] {
			for _, x := range g.adj[u] {
				if seen[x] != mark {
					seen[x] = mark
					buf = append(buf, x)
				}
			}
		}
		lo, hi = hi, len(buf)
		if lo == hi || !visit(hop, buf[lo:hi]) {
			break
		}
	}
	w.buf = buf[:0]
	walkers.Put(w)
}

// walker is the reusable state of one Walk: seen[u] == epoch marks u
// as reached by the current walk, so starting a walk costs one
// increment instead of clearing an array.
type walker struct {
	seen  []uint32
	epoch uint32
	buf   []NodeID
}

var walkers = sync.Pool{New: func() any { return new(walker) }}

// begin starts a walk over a graph of n nodes and returns its mark.
func (w *walker) begin(n int) uint32 {
	if len(w.seen) < n {
		w.seen = make([]uint32, n)
		w.epoch = 0
	}
	w.epoch++
	if w.epoch == 0 { // wrapped: stamps of old walks could collide
		clear(w.seen)
		w.epoch = 1
	}
	return w.epoch
}

// EdgeHomophily returns the fraction of edges whose endpoints share a
// label.
func (g *Graph) EdgeHomophily() float64 {
	same, total := 0, 0
	for u := range g.adj {
		for _, v := range g.adj[u] {
			if NodeID(u) < v {
				total++
				if g.Nodes[u].Label == g.Nodes[v].Label {
					same++
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(same) / float64(total)
}

// addEdge inserts the undirected edge {u, v}; duplicate and self edges
// are the caller's responsibility to avoid.
func (g *Graph) addEdge(u, v NodeID) {
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
}

func (g *Graph) sortAdj() {
	for i := range g.adj {
		ns := g.adj[i]
		sort.Slice(ns, func(a, b int) bool { return ns[a] < ns[b] })
	}
}

// Validate checks structural invariants: symmetric sorted adjacency, no
// self loops, no duplicate edges, labels in range. It is used by tests
// and the taggen tool.
func (g *Graph) Validate() error {
	if len(g.adj) != len(g.Nodes) {
		return fmt.Errorf("tag: adjacency size %d != node count %d", len(g.adj), len(g.Nodes))
	}
	for u, ns := range g.adj {
		for i, v := range ns {
			if v == NodeID(u) {
				return fmt.Errorf("tag: self loop at node %d", u)
			}
			if int(v) < 0 || int(v) >= len(g.Nodes) {
				return fmt.Errorf("tag: edge endpoint %d out of range", v)
			}
			if i > 0 && ns[i-1] >= v {
				return fmt.Errorf("tag: adjacency of %d not sorted/deduplicated", u)
			}
			if !g.HasEdge(v, NodeID(u)) {
				return fmt.Errorf("tag: edge {%d,%d} not symmetric", u, v)
			}
		}
	}
	for i, n := range g.Nodes {
		if n.Label < 0 || n.Label >= len(g.Classes) {
			return fmt.Errorf("tag: node %d label %d out of range", i, n.Label)
		}
		if n.ID != NodeID(i) {
			return fmt.Errorf("tag: node %d has ID %d", i, n.ID)
		}
	}
	return nil
}

// Split partitions nodes for the node-classification task: Labeled is
// the paper's V_L (labels visible to methods), Query is V_Q (the nodes
// to classify).
type Split struct {
	Labeled []NodeID
	Query   []NodeID
}

// IsLabeled builds a membership set for the labeled nodes.
func (s Split) IsLabeled() map[NodeID]bool {
	m := make(map[NodeID]bool, len(s.Labeled))
	for _, v := range s.Labeled {
		m[v] = true
	}
	return m
}

// SplitPerClass selects perClass labeled nodes from every class and
// queryCount query nodes from the remainder, mirroring the paper's
// protocol for Cora/Citeseer/Pubmed (20 per class labeled, 1,000
// queries). If a class has fewer than perClass nodes, all of them are
// labeled. If fewer than queryCount unlabeled nodes remain, all are
// queried.
func (g *Graph) SplitPerClass(rng *xrand.RNG, perClass, queryCount int) Split {
	byClass := make([][]NodeID, len(g.Classes))
	for _, n := range g.Nodes {
		byClass[n.Label] = append(byClass[n.Label], n.ID)
	}
	var split Split
	labeled := make(map[NodeID]bool)
	for _, ids := range byClass {
		idx := rng.Sample(len(ids), perClass)
		for _, i := range idx {
			split.Labeled = append(split.Labeled, ids[i])
			labeled[ids[i]] = true
		}
	}
	rest := make([]NodeID, 0, len(g.Nodes)-len(split.Labeled))
	for _, n := range g.Nodes {
		if !labeled[n.ID] {
			rest = append(rest, n.ID)
		}
	}
	for _, i := range rng.Sample(len(rest), queryCount) {
		split.Query = append(split.Query, rest[i])
	}
	return split
}

// SplitFraction labels a uniform fraction of all nodes and queries
// queryCount of the rest, mirroring the OGB-style partitions used for
// Ogbn-Arxiv and Ogbn-Products.
func (g *Graph) SplitFraction(rng *xrand.RNG, labeledFrac float64, queryCount int) Split {
	if labeledFrac < 0 || labeledFrac > 1 {
		panic("tag: labeledFrac out of [0,1]")
	}
	n := len(g.Nodes)
	perm := rng.Perm(n)
	nl := int(labeledFrac * float64(n))
	var split Split
	for _, i := range perm[:nl] {
		split.Labeled = append(split.Labeled, NodeID(i))
	}
	rest := perm[nl:]
	if queryCount > len(rest) {
		queryCount = len(rest)
	}
	for _, i := range rest[:queryCount] {
		split.Query = append(split.Query, NodeID(i))
	}
	return split
}

// LabelsOf returns the ground-truth labels of the given nodes. It is a
// convenience for evaluation code; prediction methods receive labels
// only through the labeled set they are handed.
func (g *Graph) LabelsOf(ids []NodeID) []int {
	out := make([]int, len(ids))
	for i, v := range ids {
		out[i] = g.Nodes[v].Label
	}
	return out
}
