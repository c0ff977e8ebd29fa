// Package predictors implements the "LLMs as predictors" benchmark
// methods the paper optimizes (Table I and Section VI-A2): vanilla
// zero-shot, k-hop random neighbor selection, and SNS similarity-based
// neighbor selection.
//
// Methods differ only in how they select up to M neighbors for the
// prompt; prompt construction, LLM querying and token accounting are
// shared. Neighbor labels come from a Known map holding the true labels
// of V_L plus any pseudo-labels added by query boosting, which is
// exactly how the paper's strategies plug into the methods without
// modifying them.
package predictors

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/encode"
	"repro/internal/obs"
	"repro/internal/prompt"
	"repro/internal/tag"
	"repro/internal/token"
	"repro/internal/xrand"
)

// Selected is one chosen neighbor: its node and the label the method
// may include in the prompt ("" when unknown).
type Selected struct {
	ID    tag.NodeID
	Label string
}

// CountLabeled returns |N_i^L|: how many selected neighbors carry labels.
func CountLabeled(sel []Selected) int {
	n := 0
	for _, s := range sel {
		if s.Label != "" {
			n++
		}
	}
	return n
}

// LabelConflicts returns LC_i: the number of distinct label values
// among the labeled selected neighbors (Eq. 11).
func LabelConflicts(sel []Selected) int {
	seen := map[string]bool{}
	for _, s := range sel {
		if s.Label != "" {
			seen[s.Label] = true
		}
	}
	return len(seen)
}

// Context carries everything a method needs to select neighbors and
// build prompts for one dataset.
type Context struct {
	Graph *tag.Graph
	// Known maps nodes to their visible labels: the true labels of the
	// labeled set plus pseudo-labels appended by query boosting. It
	// must not change while selections run, nor at all inside
	// WithFixedLabels, whose SNS selections read an index built from
	// it.
	Known map[tag.NodeID]string
	// M caps the neighbors per prompt.
	M int
	// Seed drives per-node neighbor sampling. Sampling is keyed by
	// (Seed, node), so the same node draws the same neighbors regardless
	// of execution order — strategies stay comparable pair-by-pair.
	Seed uint64
	// IncludeAbstracts switches neighbor entries from title-only (the
	// paper's token-saving default) to title+abstract.
	IncludeAbstracts bool
	// NodeType / EdgeRelation label the prompt ("paper"/"citation" by
	// default).
	NodeType     string
	EdgeRelation string

	// Obs receives metrics and spans from plan execution over this
	// context; nil routes to the process-default recorder (a no-op
	// unless obs.SetDefault installed a registry).
	Obs obs.Recorder

	// sim is built on the first SNS selection, once under simOnce, and
	// read without a lock after that.
	simOnce sync.Once
	sim     *Similarity

	// fixed is set only inside WithFixedLabels.
	fixed *fixedLabels
}

// fixedLabels is one WithFixedLabels scope: the index of Known's
// labels, built on the scope's first SNS selection, once under once,
// and read without a lock after that.
type fixedLabels struct {
	once  sync.Once
	reach *tag.Reach
}

// WithFixedLabels runs f under the promise that Known does not change
// until f returns: the promise Method asks of each selection, held for
// the whole call. SNS selections inside f then read a two-hop index of
// Known's labels (tag.Reach) and walk at most three hops of their
// five, with the same results. The index is built on the first SNS
// selection inside f, from Known as it stands, so a method that never
// asks for it pays nothing, and it is dropped when f returns. f may fan
// selections out over goroutines that all return before it does.
func (ctx *Context) WithFixedLabels(f func()) {
	ctx.fixed = new(fixedLabels)
	defer func() { ctx.fixed = nil }()
	f()
}

// labelReach returns the index of Known's labels inside
// WithFixedLabels, building it on first use, and nil outside.
func (ctx *Context) labelReach() *tag.Reach {
	fl := ctx.fixed
	if fl == nil {
		return nil
	}
	fl.once.Do(func() { fl.reach = tag.NewReach(ctx.Graph, labeled(ctx.Known)) })
	return fl.reach
}

// nodeRNG returns the deterministic stream for sampling around node v.
func (ctx *Context) nodeRNG(v tag.NodeID) *xrand.RNG {
	return xrand.New(ctx.Seed).SplitString("select").Split(uint64(v))
}

// Method selects prompt neighbors for a query node.
//
// Select may be called from several goroutines at once on one
// *Context: plan building fans selections out over the execution
// workers. It must only read the Context; Known changes only between
// plan rounds, never while selections run, and inside
// Context.WithFixedLabels not until the scope ends. Vanilla,
// KHopRandom and SNS are safe: the walks take pooled visited stamps,
// sampling draws from a per-node stream, and SNS builds its similarity
// index, and inside the scope its label index, once.
type Method interface {
	Name() string
	// Ranked reports whether the method orders neighbors most-related
	// first (SNS), which changes the prompt phrasing.
	Ranked() bool
	Select(ctx *Context, v tag.NodeID) []Selected
}

// label returns the visible label of u, or "".
func (ctx *Context) label(u tag.NodeID) string { return ctx.Known[u] }

// Vanilla is the zero-shot method: no neighbor text at all.
type Vanilla struct{}

// Name implements Method.
func (Vanilla) Name() string { return "vanilla zero-shot" }

// Ranked implements Method.
func (Vanilla) Ranked() bool { return false }

// Select implements Method; it always returns nil.
func (Vanilla) Select(*Context, tag.NodeID) []Selected { return nil }

// KHopRandom selects up to M neighbors within K hops, preferring
// labeled neighbors and filling the remainder uniformly from unlabeled
// ones, as in the paper's "k-hop random" baseline.
type KHopRandom struct {
	K int
}

// Name implements Method.
func (m KHopRandom) Name() string { return fmt.Sprintf("%d-hop random", m.K) }

// Ranked implements Method.
func (KHopRandom) Ranked() bool { return false }

// Select implements Method.
func (m KHopRandom) Select(ctx *Context, v tag.NodeID) []Selected {
	if m.K <= 0 {
		panic("predictors: KHopRandom needs K >= 1")
	}
	hood, _ := ctx.Graph.KHop(v, m.K)
	var labeled, unlabeled []tag.NodeID
	for _, u := range hood {
		if ctx.label(u) != "" {
			labeled = append(labeled, u)
		} else {
			unlabeled = append(unlabeled, u)
		}
	}
	rng := ctx.nodeRNG(v)
	out := make([]Selected, 0, ctx.M)
	for _, i := range rng.Sample(len(labeled), ctx.M) {
		out = append(out, Selected{ID: labeled[i], Label: ctx.label(labeled[i])})
	}
	if remaining := ctx.M - len(out); remaining > 0 {
		for _, i := range rng.Sample(len(unlabeled), remaining) {
			out = append(out, Selected{ID: unlabeled[i]})
		}
	}
	return out
}

// SNS is the similarity-based neighbor selection method [27]: it
// explores outward hop by hop (up to five hops) until it has gathered
// at least M labeled neighbors, ranks them by text similarity to the
// query node, and keeps the top M, most related first.
type SNS struct{}

// Name implements Method.
func (SNS) Name() string { return "SNS" }

// Ranked implements Method.
func (SNS) Ranked() bool { return true }

// maxSNSHops is the exploration cap from the SNS paper.
const maxSNSHops = 5

// Select implements Method. It gathers the labeled nodes of the
// fewest hops (at most five) that hold M of them, from whichever side
// reads less (tag.Graph.Nearest), or inside Context.WithFixedLabels
// from the scope's two-hop index of the labels (tag.Reach.Nearest),
// and scores them all against one dense copy of v's vector. Candidate
// order does not matter: the ranking is a total order on (score, ID).
// Its working memory is pooled, so it allocates only its result.
func (SNS) Select(ctx *Context, v tag.NodeID) []Selected {
	sc := snsScratches.Get().(*snsScratch)
	defer snsScratches.Put(sc)
	if r := ctx.labelReach(); r != nil {
		sc.ids = r.Nearest(v, maxSNSHops, ctx.M, sc.ids[:0])
	} else {
		sc.ids = ctx.Graph.Nearest(v, maxSNSHops, ctx.M, labeled(ctx.Known), sc.ids[:0])
	}
	if len(sc.ids) == 0 {
		return nil
	}
	sc.scores = ctx.similarity().Scores(v, sc.ids, sc.scores[:0])
	ranked := sc.ranked[:0]
	for i, u := range sc.ids {
		ranked = append(ranked, candidate{id: u, score: sc.scores[i]})
	}
	sc.ranked = ranked
	slices.SortFunc(ranked, byScore)
	out := make([]Selected, min(ctx.M, len(ranked)))
	for i := range out {
		out[i] = Selected{ID: ranked[i].id, Label: ctx.label(ranked[i].id)}
	}
	return out
}

// snsScratch is one SNS selection's working memory: the candidates,
// their scores and their ranking.
type snsScratch struct {
	ids    []tag.NodeID
	scores []float64
	ranked []candidate
}

var snsScratches = sync.Pool{New: func() any { return new(snsScratch) }}

// candidate is a labeled node SNS ranks, with its similarity score.
type candidate struct {
	id    tag.NodeID
	score float64
}

// byScore orders candidates most similar first, then by ID.
func byScore(a, b candidate) int {
	switch {
	case a.score > b.score:
		return -1
	case a.score < b.score:
		return 1
	}
	return cmp.Compare(a.id, b.id)
}

// labeled is a Known map seen as the nodes with a visible label: the
// set SNS looks for, given without a copy.
type labeled map[tag.NodeID]string

func (k labeled) Len() int              { return len(k) }
func (k labeled) Has(u tag.NodeID) bool { return k[u] != "" }
func (k labeled) Append(dst []tag.NodeID) []tag.NodeID {
	for u, l := range k {
		if l != "" {
			dst = append(dst, u)
		}
	}
	return dst
}

// Similarity scores node pairs by the cosine of their text vectors:
// TF-IDF vectors of the node texts, the offline SimCSE substitute, or
// precomputed embeddings. Scores are sums in dimension order over
// sorted vectors with stored norms, so a pair scores bit-identically on
// every call, in either order, and in every index built from the same
// input.
type Similarity struct {
	vecs vectors
	dims int // every vector's dimensions lie below dims
}

// NewSimilarity indexes the TF-IDF vector of every node of g, counted
// straight from the graph's word IDs. It holds them as term counts (see
// countVectors) when they fit, as every shipped dataset's do, and as
// float64 weights otherwise (see weightVectors); the scores are the
// same bits either way.
func NewSimilarity(g *tag.Graph) *Similarity { return newTFIDF(g.Dict(), g.Corpus()) }

// newTFIDF indexes the TF-IDF vectors of docs, texts of word IDs into
// dict, under an encoder fitted on docs. One reused tally counts each
// text's dimensions. A text holds each of its distinct dimensions once,
// so the texts hold as many entries as the dimensions' document
// frequencies add up to, and the arrays are sized exactly up front.
func newTFIDF(dict *token.Dict, docs [][]int32) *Similarity {
	enc := encode.NewTFIDFIDs(dict, docs, 0)
	dims, idf := enc.Dims(), enc.IDF()
	entries := 0
	for d := 0; d < dims; d++ {
		entries += enc.DocFreq(d)
	}
	tally := encode.NewTally(dims)
	var ids, ds []int32
	var ns []float64
	// count returns docs[i]'s distinct dimensions, increasing, and how
	// often it holds each.
	count := func(i int) ([]int32, []float64) {
		ids = enc.AppendDims(ids[:0], dict, docs[i])
		ds, ns = tally.Count(ids, ds[:0], ns[:0])
		return ds, ns
	}
	if dims <= 1<<16 {
		p, ok := newCountVectors(len(docs), entries, idf), true
		for i := 0; ok && i < len(docs); i++ {
			ok = p.add(count(i))
		}
		if ok {
			return &Similarity{vecs: p, dims: dims}
		}
	}
	p := newWeightVectors(len(docs), entries)
	for i := range docs {
		d, c := count(i)
		encode.TFIDF(idf, d, c)
		p.add(d, c)
	}
	return &Similarity{vecs: p, dims: dims}
}

// NewSimilarityDense builds an index from precomputed dense embeddings,
// one per node — the hook for alternative text encoders (skip-gram,
// hashing) to back SNS instead of the TF-IDF default. It holds each
// vector's nonzero entries as float64 weights.
func NewSimilarityDense(vecs [][]float64) *Similarity {
	dims, entries := 0, 0
	for _, v := range vecs {
		dims = max(dims, len(v))
		for _, x := range v {
			if x != 0 {
				entries++
			}
		}
	}
	p := newWeightVectors(len(vecs), entries)
	for _, v := range vecs {
		for d, x := range v {
			if x != 0 {
				p.dims = append(p.dims, int32(d))
				p.weights = append(p.weights, x)
			}
		}
		p.end()
	}
	return &Similarity{vecs: p, dims: dims}
}

// Score returns the similarity of nodes a and b.
func (s *Similarity) Score(a, b tag.NodeID) float64 { return s.vecs.score(a, b) }

// Scores appends to dst the similarity of v to each node of us, in
// order: Score(v, u), bit for bit.
func (s *Similarity) Scores(v tag.NodeID, us []tag.NodeID, dst []float64) []float64 {
	tp := denseTables.Get().(*[]float64)
	if len(*tp) < s.dims {
		*tp = make([]float64, s.dims)
	}
	dst = s.vecs.scores(*tp, v, us, dst)
	denseTables.Put(tp)
	return dst
}

// vectors is an index's vectors in one of its two layouts.
type vectors interface {
	// score is encode.CosineSparse of nodes a and b: the products of
	// their shared dimensions summed in dimension order, over their
	// norms.
	score(a, b tag.NodeID) float64
	// scores is Similarity.Scores with a zeroed dense table of the
	// index's dimensions, which it leaves zeroed. It scatters v's
	// weights into the table once, then sums each node's products with
	// it in dimension order, the order score merges them in, skipping
	// the dimensions v lacks, where the merge adds nothing.
	scores(table []float64, v tag.NodeID, us []tag.NodeID, dst []float64) []float64
}

// countVectors holds TF-IDF vectors as term counts, node after node:
// node v's distinct dimensions, increasing, are
// dims[start[v]:start[v+1]], and counts[i] says how often its text
// holds dims[i]. Its weight there is encode.Weight(counts[i],
// idf[dims[i]], pre[v]), the operations encode.TFIDF weighs it with,
// so the rebuilt weight is the encoder's, bit for bit; norms[v] is the
// norm of v's weights. An entry takes 3 bytes, against 10 as a 16-bit
// dimension and a float64 weight. Offsets fit in 32 bits because a
// graph's word offsets do.
type countVectors struct {
	start  []int32
	dims   []uint16
	counts []uint8
	idf    []float64 // per dimension: the encoder's own table
	pre    []float64 // per node: the normalizer of its weights
	norms  []float64
}

// newCountVectors returns an empty index with room for nodes vectors
// of entries entries in all, weighed under idf.
func newCountVectors(nodes, entries int, idf []float64) *countVectors {
	return &countVectors{
		start:  make([]int32, 1, nodes+1),
		dims:   make([]uint16, 0, entries),
		counts: make([]uint8, 0, entries),
		idf:    idf,
		pre:    make([]float64, 0, nodes),
		norms:  make([]float64, 0, nodes),
	}
}

// add appends the vector of a text that holds each of the distinct
// dimensions dims, increasing, counts[i] times, and turns counts into
// the text's weights. It reports false, leaving p unusable, when a
// count does not fit in 8 bits.
func (p *countVectors) add(dims []int32, counts []float64) bool {
	for i, d := range dims {
		if counts[i] > math.MaxUint8 {
			return false
		}
		p.dims = append(p.dims, uint16(d))
		p.counts = append(p.counts, uint8(counts[i]))
	}
	p.start = append(p.start, int32(len(p.dims)))
	p.pre = append(p.pre, encode.TFIDF(p.idf, dims, counts))
	p.norms = append(p.norms, encode.NewSparse(dims, counts).Norm)
	return true
}

// vector returns node v's dimensions and counts.
func (p *countVectors) vector(v tag.NodeID) ([]uint16, []uint8) {
	lo, hi := p.start[v], p.start[v+1]
	return p.dims[lo:hi], p.counts[lo:hi]
}

func (p *countVectors) score(a, b tag.NodeID) float64 {
	na, nb := p.norms[a], p.norms[b]
	if na == 0 || nb == 0 {
		return 0
	}
	ad, ac := p.vector(a)
	bd, bc := p.vector(b)
	pa, pb := p.pre[a], p.pre[b]
	var dot float64
	for i, j := 0, 0; i < len(ad) && j < len(bd); {
		switch da, db := ad[i], bd[j]; {
		case da < db:
			i++
		case da > db:
			j++
		default:
			idf := p.idf[da]
			dot += encode.Weight(float64(ac[i]), idf, pa) * encode.Weight(float64(bc[j]), idf, pb)
			i++
			j++
		}
	}
	return dot / (na * nb)
}

func (p *countVectors) scores(table []float64, v tag.NodeID, us []tag.NodeID, dst []float64) []float64 {
	ad, ac := p.vector(v)
	pv := p.pre[v]
	for i, d := range ad {
		table[d] = encode.Weight(float64(ac[i]), p.idf[d], pv)
	}
	na := p.norms[v]
	for _, u := range us {
		nb := p.norms[u]
		if na == 0 || nb == 0 {
			dst = append(dst, 0)
			continue
		}
		bd, bc := p.vector(u)
		bc = bc[:len(bd)] // so the loop indexes bc without a bounds check
		pu := p.pre[u]
		var dot float64
		for j, d := range bd {
			if x := table[d]; x != 0 {
				dot += x * encode.Weight(float64(bc[j]), p.idf[d], pu)
			}
		}
		dst = append(dst, dot/(na*nb))
	}
	for _, d := range ad {
		table[d] = 0
	}
	return dst
}

// weightVectors holds vectors as float64 weights, node after node:
// node v's nonzero dimensions, increasing, are
// dims[start[v]:start[v+1]], with the weights at the same positions,
// and norms[v] is their norm. It holds what countVectors cannot:
// dense embeddings, dimensions past 16 bits and counts past 8.
type weightVectors struct {
	start   []int
	dims    []int32
	weights []float64
	norms   []float64
}

// newWeightVectors returns an empty index with room for nodes vectors
// of entries entries in all.
func newWeightVectors(nodes, entries int) *weightVectors {
	return &weightVectors{
		start:   make([]int, 1, nodes+1),
		dims:    make([]int32, 0, entries),
		weights: make([]float64, 0, entries),
		norms:   make([]float64, 0, nodes),
	}
}

// add appends the vector with the given dimensions, increasing, and
// weights.
func (p *weightVectors) add(dims []int32, weights []float64) {
	p.dims = append(p.dims, dims...)
	p.weights = append(p.weights, weights...)
	p.end()
}

// end closes the vector whose entries were appended since the last
// one: it records where the next begins, and the vector's norm.
func (p *weightVectors) end() {
	lo := p.start[len(p.start)-1]
	p.start = append(p.start, len(p.dims))
	p.norms = append(p.norms, encode.NewSparse(p.dims[lo:], p.weights[lo:]).Norm)
}

// vector returns node v's dimensions and weights.
func (p *weightVectors) vector(v tag.NodeID) ([]int32, []float64) {
	lo, hi := p.start[v], p.start[v+1]
	return p.dims[lo:hi], p.weights[lo:hi]
}

func (p *weightVectors) score(a, b tag.NodeID) float64 {
	na, nb := p.norms[a], p.norms[b]
	if na == 0 || nb == 0 {
		return 0
	}
	ad, aw := p.vector(a)
	bd, bw := p.vector(b)
	var dot float64
	for i, j := 0, 0; i < len(ad) && j < len(bd); {
		switch {
		case ad[i] < bd[j]:
			i++
		case ad[i] > bd[j]:
			j++
		default:
			dot += aw[i] * bw[j]
			i++
			j++
		}
	}
	return dot / (na * nb)
}

func (p *weightVectors) scores(table []float64, v tag.NodeID, us []tag.NodeID, dst []float64) []float64 {
	ad, aw := p.vector(v)
	for i, d := range ad {
		table[d] = aw[i]
	}
	na := p.norms[v]
	for _, u := range us {
		nb := p.norms[u]
		if na == 0 || nb == 0 {
			dst = append(dst, 0)
			continue
		}
		bd, bw := p.vector(u)
		var dot float64
		for j, d := range bd {
			if x := table[d]; x != 0 {
				dot += x * bw[j]
			}
		}
		dst = append(dst, dot/(na*nb))
	}
	for _, d := range ad {
		table[d] = 0
	}
	return dst
}

// denseTables pools Scores' dense tables, all zero between uses.
var denseTables = sync.Pool{New: func() any { return new([]float64) }}

// similarity returns the dataset's similarity index, building it on
// first use. Concurrent first callers wait for one build and share it.
func (ctx *Context) similarity() *Similarity {
	ctx.simOnce.Do(func() {
		if ctx.sim == nil {
			ctx.sim = NewSimilarity(ctx.Graph)
		}
	})
	return ctx.sim
}

// SetSimilarity installs a prebuilt similarity index (useful when
// several contexts share one dataset). Call it before planning over
// ctx, not while selections run.
func (ctx *Context) SetSimilarity(s *Similarity) { ctx.sim = s }

// BuildPrompt renders the query prompt for node v with the selected
// neighbors, following the method's ranking convention.
func BuildPrompt(ctx *Context, v tag.NodeID, sel []Selected, ranked bool) string {
	q := PromptQuery(ctx, v, sel, ranked)
	return q.Render()
}

// PromptQuery is BuildPrompt's query before rendering: the node text
// of v and its selected neighbors as the graph's word IDs, which the
// compressor reads without splitting a rendered prompt.
func PromptQuery(ctx *Context, v tag.NodeID, sel []Selected, ranked bool) prompt.Query {
	g := ctx.Graph
	q := prompt.Query{
		Dict:           g.Dict(),
		TargetTitle:    g.TitleIDs(v),
		TargetAbstract: g.AbstractIDs(v),
		Categories:     g.Classes,
		Ranked:         ranked,
		NodeType:       ctx.NodeType,
		EdgeRelation:   ctx.EdgeRelation,
	}
	if len(sel) > 0 {
		q.Neighbors = make([]prompt.QueryNeighbor, len(sel))
	}
	for i, s := range sel {
		q.Neighbors[i] = prompt.QueryNeighbor{Title: g.TitleIDs(s.ID), Label: s.Label}
		if ctx.IncludeAbstracts {
			q.Neighbors[i].Abstract = g.AbstractIDs(s.ID)
		}
	}
	return q
}

// KnownFromSplit builds the initial Known map from a split's labeled
// set using ground-truth class names.
func KnownFromSplit(g *tag.Graph, split tag.Split) map[tag.NodeID]string {
	known := make(map[tag.NodeID]string, len(split.Labeled))
	for _, v := range split.Labeled {
		known[v] = g.Classes[g.Nodes[v].Label]
	}
	return known
}

// Standard returns the paper's benchmark method set in its canonical
// order: 1-hop random, 2-hop random, SNS.
func Standard() []Method {
	return []Method{KHopRandom{K: 1}, KHopRandom{K: 2}, SNS{}}
}

// ByName resolves a method from its CLI spelling, the single source of
// truth shared by mqorun, mqobench and llmserve's serving tier.
func ByName(name string) (Method, error) {
	switch strings.ToLower(name) {
	case "vanilla":
		return Vanilla{}, nil
	case "1-hop", "1hop":
		return KHopRandom{K: 1}, nil
	case "2-hop", "2hop":
		return KHopRandom{K: 2}, nil
	case "sns":
		return SNS{}, nil
	default:
		return nil, fmt.Errorf("unknown method %q (vanilla, 1-hop, 2-hop, sns)", name)
	}
}
