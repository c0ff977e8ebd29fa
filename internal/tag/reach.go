package tag

import "slices"

// Reach is a two-hop reverse index of a node set, its members: for
// every node x of the graph, each member within two hops of x and its
// distance from x. Nearest reads the last two hops of a search from it
// instead of walking them. A Reach never changes once built, so any
// number of goroutines may query one.
type Reach struct {
	g *Graph
	// ids lists the members, each once, in increasing order; a
	// member's slot is its index here.
	ids []NodeID
	// Node x's entries are entries[start[x]:start[x+1]]: for each
	// member within two hops of x, its slot times 4 plus its distance
	// from x (0, 1 or 2). Bit x of listed is set when x has entries,
	// so a search tests one bit for most nodes instead of two offsets.
	start   []int
	entries []uint32
	listed  []uint64
}

// NewReach indexes the members of t in g. Members outside
// [0, NumNodes) are ignored, and a member listed twice counts once.
// Building it walks two hops from every member.
func NewReach(g *Graph, t Targets) *Reach {
	n := len(g.adj)
	w := walkers.Get().(*walker)
	r := &Reach{g: g, start: make([]int, n+1)}
	mark := w.begin(n, 1)
	list := t.Append(w.pend[:0])
	for _, u := range list {
		if u >= 0 && int(u) < n && w.seen[u] != mark {
			w.seen[u] = mark
			r.ids = append(r.ids, u)
		}
	}
	w.pend = list[:0]
	slices.Sort(r.ids)
	// Count each node's entries, lay the counts out as offsets, then
	// walk the members again to place the entries.
	for _, u := range r.ids {
		w.twoHops(g.adj, u, func(x NodeID, _ uint32) { r.start[x+1]++ })
	}
	for x := 0; x < n; x++ {
		r.start[x+1] += r.start[x]
	}
	r.entries = make([]uint32, r.start[n])
	r.listed = make([]uint64, (n+63)/64)
	for x := 0; x < n; x++ {
		if r.start[x+1] > r.start[x] {
			r.listed[x/64] |= 1 << (x % 64)
		}
	}
	next := slices.Clone(r.start[:n])
	for s, u := range r.ids {
		w.twoHops(g.adj, u, func(x NodeID, d uint32) {
			r.entries[next[x]] = uint32(s)<<2 | d
			next[x]++
		})
	}
	walkers.Put(w)
	return r
}

// twoHops calls f with u at distance 0, then every node within two
// hops of u, once each, with its distance.
func (w *walker) twoHops(adj [][]NodeID, u NodeID, f func(x NodeID, d uint32)) {
	mark := w.begin(len(adj), 1)
	seen := w.seen
	seen[u] = mark
	f(u, 0)
	for _, x := range adj[u] {
		if seen[x] != mark {
			seen[x] = mark
			f(x, 1)
		}
	}
	for _, x := range adj[u] {
		for _, y := range adj[x] {
			if seen[y] != mark {
				seen[y] = mark
				f(y, 2)
			}
		}
	}
}

// Nearest is g.Nearest(v, maxHops, want, t, dst) over the graph and
// set r was built from, with the same result: every member within h
// hops of v, for the fewest hops h in [1, maxHops] that hold at least
// want of them, or every member within maxHops hops when no h does. v
// itself never counts. The order is unspecified.
//
// It walks at most maxHops-2 hops from v and reads the last two from
// the index. A member d <= maxHops hops from v has a node on a
// shortest path to it that is min(d, maxHops-2) hops from v and at
// most 2 from the member, so the least walked hops plus indexed
// distance over the walked nodes is the member's distance. After
// walking level L, every member within L+2 hops has its distance and
// no other member has been met, so the search stops at the first
// level whose members, with those of the levels before, number want.
//
// Nearest shares Walk's pooled visited stamps and scratch: it
// allocates nothing once warm beyond dst, and concurrent calls never
// share state.
func (r *Reach) Nearest(v NodeID, maxHops, want int, dst []NodeID) []NodeID {
	if maxHops <= 0 {
		return dst
	}
	adj := r.g.adj
	maxHops = min(maxHops, len(adj))
	last := max(maxHops-2, 0)
	w := walkers.Get().(*walker)
	mark := w.begin(len(adj), 1)
	seen := w.seen
	seen[v] = mark
	buf := append(w.buf[:0], v)
	// dist[s] is 1 plus the least distance to slot s met so far, or 0
	// when s was not met; hits lists the slots met, each once.
	if len(w.dist) < len(r.ids) {
		w.dist = make([]int32, len(r.ids))
	}
	dist, hits := w.dist, w.hits[:0]
	// self is 1 once v is met as a member of its own; keep is the
	// farthest distance the answer takes.
	self, keep := 0, int32(0)
	for level, lo, hi := int32(0), 0, 1; ; level++ {
		for _, x := range buf[lo:hi] {
			if r.has(x) {
				hits = r.meet(x, level, dist, hits)
			}
		}
		// Every member within level+2 hops is in hits now, with its
		// distance, and no other member is. Level 0 also settles the
		// members one hop away.
		if level == 0 {
			one := 0
			for _, s := range hits {
				switch dist[s] {
				case 1:
					self = 1
				case 2:
					one++
				}
			}
			if maxHops == 1 || one >= want {
				keep = 1
				break
			}
		}
		if len(hits)-self >= want || int(level) == last {
			keep = level + 2
			break
		}
		if int(level)+1 == last {
			// The last level is read without being built: each node
			// last hops away neighbors this level, and a neighbor
			// nearer than that was met at its own hop, where its
			// members got distances no larger.
			for _, x := range buf[lo:hi] {
				for _, y := range adj[x] {
					if r.has(y) {
						hits = r.meet(y, level+1, dist, hits)
					}
				}
			}
			keep = int32(maxHops)
			break
		}
		for _, x := range buf[lo:hi] {
			for _, y := range adj[x] {
				if seen[y] != mark {
					seen[y] = mark
					buf = append(buf, y)
				}
			}
		}
		if lo, hi = hi, len(buf); lo == hi {
			keep = int32(maxHops) // every member v reaches is in hand
			break
		}
	}
	for _, s := range hits {
		if d := dist[s] - 1; d >= 1 && d <= keep {
			dst = append(dst, r.ids[s])
		}
		dist[s] = 0
	}
	w.buf, w.hits = buf[:0], hits[:0]
	walkers.Put(w)
	return dst
}

// has reports whether node x has entries.
func (r *Reach) has(x NodeID) bool { return r.listed[x/64]&(1<<(x%64)) != 0 }

// meet records in dist and hits the members indexed under x, a node
// hops hops from the query, at their distance through x.
func (r *Reach) meet(x NodeID, hops int32, dist, hits []int32) []int32 {
	for _, e := range r.entries[r.start[x]:r.start[x+1]] {
		s, d := e>>2, hops+int32(e&3)+1
		switch cur := dist[s]; {
		case cur == 0:
			dist[s] = d
			hits = append(hits, int32(s))
		case d < cur:
			dist[s] = d
		}
	}
	return hits
}
