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
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/textgen"
	"repro/internal/token"
	"repro/internal/xrand"
)

// NodeID identifies a node within one Graph.
type NodeID int

// Node is a single vertex with its ground-truth label; its text lives
// in the Graph (Title, Abstract, Text). Ambiguity is the latent
// generation parameter that controls how informative the node's own
// text is; algorithms must not read it (it exists for analysis and
// tests only).
type Node struct {
	ID        NodeID
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

	// NodeType and EdgeRelation are the words a prompt names the
	// graph's nodes and edges with ("paper" and "citation", "product"
	// and "co-purchase"), decided once from the dataset's Spec.
	NodeType, EdgeRelation string

	// Node text is stored once, as word IDs into dict: words holds each
	// node's title words then its abstract words, node after node, and
	// node v's title is words[bounds[2v]:bounds[2v+1]], its abstract
	// words[bounds[2v+1]:bounds[2v+2]]. The dictionary and both slices
	// are built with the graph and never written after.
	dict   *token.Dict
	words  []int32
	bounds []int32

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

// Dict returns the dictionary the graph's node text is written in:
// every distinct word once, with its token count. It never changes.
func (g *Graph) Dict() *token.Dict { return g.dict }

// TitleIDs returns v's title as word IDs into Dict. The slice is
// shared; callers must not modify it.
func (g *Graph) TitleIDs(v NodeID) []int32 {
	return g.words[g.bounds[2*v]:g.bounds[2*v+1]:g.bounds[2*v+1]]
}

// AbstractIDs returns v's abstract as word IDs into Dict. The slice is
// shared; callers must not modify it.
func (g *Graph) AbstractIDs(v NodeID) []int32 {
	return g.words[g.bounds[2*v+1]:g.bounds[2*v+2]:g.bounds[2*v+2]]
}

// TextIDs returns v's title words then its abstract words as word IDs
// into Dict: the fields of Text(v). The slice is shared; callers must
// not modify it.
func (g *Graph) TextIDs(v NodeID) []int32 {
	return g.words[g.bounds[2*v]:g.bounds[2*v+2]:g.bounds[2*v+2]]
}

// Corpus returns every node's TextIDs, indexed by node: the corpus the
// text encoders are built over. The slices are shared; callers must not
// modify them.
func (g *Graph) Corpus() [][]int32 {
	docs := make([][]int32, len(g.Nodes))
	for i := range docs {
		docs[i] = g.TextIDs(NodeID(i))
	}
	return docs
}

// Title renders v's title: its words joined by single spaces.
func (g *Graph) Title(v NodeID) string { return g.dict.Join(g.TitleIDs(v)) }

// Abstract renders v's abstract: its words joined by single spaces.
func (g *Graph) Abstract(v NodeID) string { return g.dict.Join(g.AbstractIDs(v)) }

// Text renders the node's full text: the title, then, when the
// abstract has words, a space and the abstract.
func (g *Graph) Text(v NodeID) string {
	title, abstract := g.TitleIDs(v), g.AbstractIDs(v)
	if len(abstract) == 0 {
		return g.dict.Join(title)
	}
	var b strings.Builder
	b.Grow(g.dict.Size(title) + 1 + g.dict.Size(abstract))
	g.dict.Write(&b, title)
	b.WriteByte(' ')
	g.dict.Write(&b, abstract)
	return b.String()
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
	mark := w.begin(len(g.adj), 1)
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

// Targets is a set of nodes that Nearest looks for. It is given three
// ways, so the search can read whichever side costs less: Len is how
// many members Append lists (an upper bound will do, since it only
// steers cost), Append appends every member to dst and returns the
// extended slice, and Has reports whether a node is a member. Members
// outside [0, NumNodes) are ignored.
type Targets interface {
	Len() int
	Append(dst []NodeID) []NodeID
	Has(u NodeID) bool
}

// Nearest appends to dst the members of t that lie nearest v: every
// member within h hops of v, for the fewest hops h in [1, maxHops]
// that hold at least want of them, or every member within maxHops
// hops when no h does. v itself never counts. The order is
// unspecified. It finds exactly the members Walk(v, maxHops, ...)
// meets in its levels when visit stops the walk once want members are
// in hand.
//
// Each hop's members are found from whichever side reads less: the
// new level, tested with Has, or the members not found yet, listed
// through Append once the level outgrows Len and from then on checked
// against the walk's visited stamps at every hop (the list only
// shrinks, while levels tend to grow). At hop maxHops the frontier is
// not expanded when the unreached members' adjacency is smaller than
// the frontier's: the graph is undirected, so a node one hop past the
// frontier is exactly an unreached node with a neighbor in it. Both
// sides give the same set, so the choice, which uses only sizes the
// walk already holds, moves cost and never the result.
//
// Nearest shares Walk's pooled visited stamps and lists the members
// into pooled scratch: it allocates nothing once warm beyond dst, and
// concurrent calls never share state.
func (g *Graph) Nearest(v NodeID, maxHops, want int, t Targets, dst []NodeID) []NodeID {
	if maxHops <= 0 {
		return dst
	}
	maxHops = min(maxHops, len(g.adj))
	w := walkers.Get().(*walker)
	// seen[x] == base+h marks x as first reached at hop h (v at hop 0),
	// and seen[x] < base as not reached at all.
	base := w.begin(len(g.adj), maxHops+1)
	seen := w.seen
	seen[v] = base
	buf := append(w.buf[:0], v)
	// Once listed is set, pend lists the members not reached so far and
	// pendDeg is the adjacency they hold.
	pend, listed, pendDeg := w.pend[:0], false, 0
	found := len(dst)
	// buf[lo:hi] is the frontier, and frontierDeg its adjacency once the
	// walk stands one hop short of maxHops.
	lo, hi, frontierDeg := 0, 1, len(g.adj[v])
	for hop := 1; hop <= maxHops; hop++ {
		mark := base + uint32(hop)
		if hop == maxHops {
			if !listed && t.Len() < frontierDeg {
				pend, dst, pendDeg = listTargets(g.adj, seen, base, mark, t, pend, dst)
				listed = true
			}
			if listed && pendDeg < frontierDeg {
				for _, u := range pend {
					for _, x := range g.adj[u] {
						if seen[x] == mark-1 {
							dst = append(dst, u)
							break
						}
					}
				}
				break
			}
		}
		deg, track := 0, hop+1 == maxHops
		for _, u := range buf[lo:hi] {
			for _, x := range g.adj[u] {
				if seen[x] < base {
					seen[x] = mark
					buf = append(buf, x)
					if track {
						deg += len(g.adj[x])
					}
				}
			}
		}
		lo, hi, frontierDeg = hi, len(buf), deg
		if lo == hi {
			break
		}
		switch {
		case listed:
			keep := pend[:0]
			pendDeg = 0
			for _, u := range pend {
				if seen[u] == mark {
					dst = append(dst, u)
				} else {
					keep = append(keep, u)
					pendDeg += len(g.adj[u])
				}
			}
			pend = keep
		case t.Len() < hi-lo:
			pend, dst, pendDeg = listTargets(g.adj, seen, base, mark, t, pend, dst)
			listed = true
		default:
			for _, u := range buf[lo:hi] {
				if t.Has(u) {
					dst = append(dst, u)
				}
			}
		}
		if len(dst)-found >= want || listed && len(pend) == 0 {
			break // enough members, or every member found
		}
	}
	w.buf, w.pend = buf[:0], pend[:0]
	walkers.Put(w)
	return dst
}

// listTargets lists t's members for Nearest into pend, whose contents
// it discards: it keeps in pend those no stamp at or above base has
// reached, returning their adjacency, and appends to dst those stamped
// mark.
func listTargets(adj [][]NodeID, seen []uint32, base, mark uint32, t Targets, pend, dst []NodeID) ([]NodeID, []NodeID, int) {
	all := t.Append(pend[:0])
	pend, deg := all[:0], 0
	for _, u := range all {
		if u < 0 || int(u) >= len(adj) {
			continue
		}
		switch s := seen[u]; {
		case s < base:
			pend = append(pend, u)
			deg += len(adj[u])
		case s == mark:
			dst = append(dst, u)
		}
	}
	return pend, dst, deg
}

// walker is the reusable state of one Walk or Nearest: seen[u] holds
// the stamp of the last walk that reached u, and each walk takes
// stamps above every earlier walk's, so starting a walk costs an
// addition instead of clearing an array. dist and hits are
// Reach.Nearest's per-member distances, all zero between uses, and the
// members it met.
type walker struct {
	seen  []uint32
	epoch uint32
	buf   []NodeID
	pend  []NodeID
	dist  []int32
	hits  []int32
}

var walkers = sync.Pool{New: func() any { return new(walker) }}

// begin starts a walk over a graph of n nodes that uses k stamps and
// returns the first; the walk's stamps are [first, first+k), and every
// stamp in seen is below first.
func (w *walker) begin(n, k int) uint32 {
	if len(w.seen) < n {
		w.seen = make([]uint32, n)
		w.epoch = 0
	}
	if uint64(w.epoch)+uint64(k) > math.MaxUint32 { // stamps of old walks could collide
		clear(w.seen)
		w.epoch = 0
	}
	first := w.epoch + 1
	w.epoch += uint32(k)
	return first
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
