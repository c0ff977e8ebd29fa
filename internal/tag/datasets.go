package tag

import (
	"fmt"
	"strings"

	"repro/internal/textgen"
	"repro/internal/token"
	"repro/internal/xrand"
)

// Spec describes one benchmark dataset: its Table II statistics plus
// the text-model parameters that reproduce its difficulty profile.
type Spec struct {
	Name    string
	Display string
	Classes []string

	// Default generated size; OGB graphs are scaled down from the paper
	// sizes so experiments run on one machine.
	Nodes     int
	AvgDegree float64
	// Homophily is the target fraction of same-class edges.
	Homophily float64

	// SaturatedFrac controls how many nodes get low-ambiguity text. It
	// is calibrated to the paper's vanilla zero-shot accuracy (Table V):
	// saturated nodes are exactly those an LLM can classify from their
	// own text.
	SaturatedFrac float64
	// NoisyFrac is the fraction of label-noise nodes: their text reads
	// as the confuser class, so no evidence recovers the label. The
	// remainder (1 − SaturatedFrac − NoisyFrac) are genuinely ambiguous
	// 50/50 mixtures — the nodes neighbor cues can actually rescue.
	// Together the three fractions reproduce both the paper's zero-shot
	// accuracy and its modest neighbor-text gains.
	NoisyFrac float64

	// Text model.
	TitleWords     int
	AbstractWords  int
	TitleSignal    float64
	AbstractSignal float64
	SignalPerClass int
	Background     int

	// Paper-scale statistics used verbatim by Table II / Table V.
	FullNodes    int
	FullEdges    int
	FullFeatures int
	NodeType     string
	TextType     string
	EdgeType     string

	// Split protocol.
	LabeledPerClass int     // >0: per-class protocol (Cora/Citeseer/Pubmed)
	LabeledFrac     float64 // >0: fraction protocol (OGB datasets)
	QueryCount      int
}

// classList fabricates n class names with the given prefix, used for
// the two OGB datasets whose full label lists are long.
func classList(prefix string, n int, names []string) []string {
	out := make([]string, 0, n)
	out = append(out, names...)
	for i := len(names); i < n; i++ {
		out = append(out, fmt.Sprintf("%s-%02d", prefix, i))
	}
	return out[:n]
}

// Specs returns the five benchmark dataset specifications in the
// paper's order. The zero-shot accuracy targets (SaturatedFrac) come
// from Table V: Cora 69.0%, Citeseer 60.1%, Pubmed 90.0%, Ogbn-Arxiv
// 73.1%, Ogbn-Products 79.4%.
func Specs() []Spec {
	return []Spec{
		{
			Name:    "cora",
			Display: "Cora",
			Classes: []string{
				"Case-Based", "Genetic-Algorithms", "Neural-Networks",
				"Probabilistic-Methods", "Reinforcement-Learning",
				"Rule-Learning", "Theory",
			},
			Nodes: 2708, AvgDegree: 4.0, Homophily: 0.81,
			SaturatedFrac: 0.60, NoisyFrac: 0.12,
			TitleWords: 10, AbstractWords: 110,
			TitleSignal: 0.55, AbstractSignal: 0.30,
			SignalPerClass: 60, Background: 1400,
			FullNodes: 2708, FullEdges: 5429, FullFeatures: 1433,
			NodeType: "Paper", TextType: "Title&Abstract", EdgeType: "Citation",
			LabeledPerClass: 20, QueryCount: 1000,
		},
		{
			Name:    "citeseer",
			Display: "Citeseer",
			Classes: []string{
				"Agents", "AI", "Database", "IR", "ML", "HCI",
			},
			Nodes: 3186, AvgDegree: 2.7, Homophily: 0.74,
			SaturatedFrac: 0.46, NoisyFrac: 0.12,
			TitleWords: 12, AbstractWords: 115,
			TitleSignal: 0.45, AbstractSignal: 0.24,
			SignalPerClass: 60, Background: 1400,
			FullNodes: 3186, FullEdges: 4277, FullFeatures: 500,
			NodeType: "Paper", TextType: "Title&Abstract", EdgeType: "Citation",
			LabeledPerClass: 20, QueryCount: 1000,
		},
		{
			Name:    "pubmed",
			Display: "Pubmed",
			Classes: []string{
				"Diabetes-Experimental", "Type-1-diabetes", "Type-2-diabetes",
			},
			Nodes: 19717, AvgDegree: 4.5, Homophily: 0.80,
			SaturatedFrac: 0.91, NoisyFrac: 0.07,
			TitleWords: 13, AbstractWords: 180,
			// Pubmed's three diabetes classes are separated by the
			// abstract, not the title ("…in diabetic rats" could be any
			// class), so title-only neighbor entries add noise more than
			// signal — the paper's zero-shot ≥ k-hop observation.
			TitleSignal: 0.15, AbstractSignal: 0.52,
			SignalPerClass: 70, Background: 1600,
			FullNodes: 19717, FullEdges: 44338, FullFeatures: 384,
			NodeType: "Paper", TextType: "Title&Abstract", EdgeType: "Citation",
			LabeledPerClass: 20, QueryCount: 1000,
		},
		{
			Name:    "ogbn-arxiv",
			Display: "Ogbn-Arxiv",
			Classes: classList("cs", 40, []string{
				"cs.AI", "cs.CL", "cs.CC", "cs.CE", "cs.CG", "cs.GT", "cs.CV",
				"cs.CY", "cs.CR", "cs.DS", "cs.DB", "cs.DL", "cs.DM", "cs.DC",
			}),
			Nodes: 10000, AvgDegree: 13.7, Homophily: 0.64,
			SaturatedFrac: 0.78, NoisyFrac: 0.12,
			TitleWords: 11, AbstractWords: 130,
			// Arxiv titles carry little class signal on their own (40
			// fine-grained CS sub-areas share jargon): this is what makes
			// neighbor text nearly useless here in the paper (zero-shot
			// 73.1% vs 1-hop 71.8%, Tables IV/V) — neighbor entries are
			// title-only, so their evidence is mostly noise.
			TitleSignal: 0.10, AbstractSignal: 0.38,
			SignalPerClass: 40, Background: 2400,
			FullNodes: 169343, FullEdges: 1166243, FullFeatures: 128,
			NodeType: "Paper", TextType: "Title&Abstract", EdgeType: "Citation",
			LabeledFrac: 0.54, QueryCount: 1000,
		},
		{
			Name:    "ogbn-products",
			Display: "Ogbn-Products",
			Classes: classList("cat", 47, []string{
				"Books", "Beauty", "Electronics", "Home-Kitchen", "Sports",
				"Toys-Games", "Clothing", "Automotive", "Grocery", "Office",
			}),
			Nodes: 12000, AvgDegree: 25.0, Homophily: 0.90,
			SaturatedFrac: 0.84, NoisyFrac: 0.01,
			TitleWords: 9, AbstractWords: 75,
			TitleSignal: 0.75, AbstractSignal: 0.45,
			SignalPerClass: 35, Background: 2400,
			FullNodes: 2449029, FullEdges: 61859140, FullFeatures: 100,
			NodeType: "Product", TextType: "Description", EdgeType: "Co-purchase",
			LabeledFrac: 0.08, QueryCount: 1000,
		},
	}
}

// SpecByName returns the spec with the given short name.
func SpecByName(name string) (Spec, error) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("tag: unknown dataset %q", name)
}

// promptWords returns the words a prompt names the spec's nodes and
// edges with, its NodeType and EdgeType in lower case; a spec that
// names neither (an unknown dataset) gets "paper" and "citation".
func (s Spec) promptWords() (nodeType, edgeRelation string) {
	nodeType, edgeRelation = "paper", "citation"
	if s.NodeType != "" {
		nodeType = strings.ToLower(s.NodeType)
	}
	if s.EdgeType != "" {
		edgeRelation = strings.ToLower(s.EdgeType)
	}
	return nodeType, edgeRelation
}

// Options tunes dataset generation.
type Options struct {
	// Scale multiplies the generated node count (0 means 1.0). Edges
	// scale with nodes so density is preserved.
	Scale float64
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 1
	}
	return o.Scale
}

// Generate builds a dataset from its spec. Identical (spec, seed, opts)
// always produce identical graphs.
func Generate(spec Spec, seed uint64, opts Options) *Graph {
	root := xrand.New(seed).SplitString("tag/" + spec.Name)

	n := int(float64(spec.Nodes) * opts.scale())
	if n < len(spec.Classes)*4 {
		n = len(spec.Classes) * 4
	}

	vocab := textgen.NewVocabulary(root.SplitString("vocab"), textgen.VocabularyConfig{
		Classes:        len(spec.Classes),
		SignalPerClass: spec.SignalPerClass,
		Background:     spec.Background,
	})

	g := &Graph{
		Name:    spec.Name,
		Display: spec.Display,
		Classes: spec.Classes,
		Nodes:   make([]Node, n),
		adj:     make([][]NodeID, n),
		dict:    token.DictOf(vocab.Words()),
		bounds:  make([]int32, 2*n+1),
		Vocab:   vocab,
	}
	g.NodeType, g.EdgeRelation = spec.promptWords()

	// Class assignment: mildly uneven class proportions, as in the real
	// benchmarks.
	crng := root.SplitString("classes")
	weights := make([]float64, len(spec.Classes))
	for i := range weights {
		weights[i] = 0.6 + crng.Float64()
	}
	for i := range g.Nodes {
		g.Nodes[i].ID = NodeID(i)
		g.Nodes[i].Label = crng.Categorical(weights)
	}

	// Difficulty assignment. Three node populations:
	//   - saturated: clear own-class text (zero-shot succeeds);
	//   - noisy: clear text of the *confuser* class (label noise —
	//     nothing rescues these);
	//   - ambiguous: near-50/50 confuser mixtures (ambiguity ≥ 0.96 ⇒
	//     borrow fraction ≥ 0.48) that no reader can decide from the
	//     text alone — the nodes neighbor cues can rescue.
	arng := root.SplitString("ambiguity")
	for i := range g.Nodes {
		switch u := arng.Float64(); {
		case u < spec.SaturatedFrac:
			g.Nodes[i].Ambiguity = 0.02 + 0.18*arng.Float64()
		case u < spec.SaturatedFrac+spec.NoisyFrac:
			g.Nodes[i].Ambiguity = 0.02 + 0.18*arng.Float64()
			g.Nodes[i].Noisy = true
		default:
			g.Nodes[i].Ambiguity = 0.96 + 0.04*arng.Float64()
		}
	}

	// Text synthesis, straight into word IDs: the graph's dictionary is
	// the vocabulary, so each word's ID is its vocabulary index.
	trng := root.SplitString("text")
	tcfg := textgen.TextConfig{
		TitleWords:    max(spec.TitleWords, 0),
		AbstractWords: max(spec.AbstractWords, 0),
		TitleSignal:   spec.TitleSignal,
		AbstractSig:   spec.AbstractSignal,
	}
	g.words = make([]int32, 0, n*(tcfg.TitleWords+tcfg.AbstractWords))
	for i := range g.Nodes {
		class := g.Nodes[i].Label
		if g.Nodes[i].Noisy {
			class = vocab.Confuser[class]
		}
		g.bounds[2*i+1] = int32(len(g.words) + tcfg.TitleWords)
		g.words = vocab.AppendText(g.words, trng, class, g.Nodes[i].Ambiguity, tcfg)
		g.bounds[2*i+2] = int32(len(g.words))
	}

	generateEdges(g, spec, root.SplitString("edges"))
	lexicalDiffusion(g, root.SplitString("diffusion"))
	g.sortAdj()
	return g
}

// lexicalDiffusion copies short contiguous word spans between the
// abstracts of connected nodes. Real citation and co-purchase pairs
// share phrases beyond their class vocabulary (quoted terminology,
// product names); this pass reproduces that edge-level textual affinity
// so that link prediction from text alone is learnable, exactly as in
// the real benchmarks. Word counts are preserved (spans replace words
// rather than extend the text), so the spans are copied in place, word
// IDs and all.
func lexicalDiffusion(g *Graph, rng *xrand.RNG) {
	const (
		copyProb = 0.6 // per direction per edge
		spanLen  = 3
	)
	abstracts := make([][]int32, len(g.Nodes))
	for i := range g.Nodes {
		abstracts[i] = g.AbstractIDs(NodeID(i))
	}
	copySpan := func(src, dst []int32) {
		if len(src) < spanLen || len(dst) < spanLen {
			return
		}
		from := rng.Intn(len(src) - spanLen + 1)
		to := rng.Intn(len(dst) - spanLen + 1)
		copy(dst[to:to+spanLen], src[from:from+spanLen])
	}
	for u := range g.adj {
		for _, v := range g.adj[u] {
			if NodeID(u) >= v {
				continue
			}
			if rng.Float64() < copyProb {
				copySpan(abstracts[u], abstracts[v])
			}
			if rng.Float64() < copyProb {
				copySpan(abstracts[v], abstracts[u])
			}
		}
	}
}

// generateEdges wires a homophilous, degree-skewed random graph with
// target average degree spec.AvgDegree. Endpoint selection mixes
// uniform sampling with preferential attachment (sampling from the
// running endpoint list) to produce the heavy-tailed degree
// distributions of citation and co-purchase graphs.
func generateEdges(g *Graph, spec Spec, rng *xrand.RNG) {
	n := len(g.Nodes)
	if n < 2 {
		return
	}
	byClass := make([][]NodeID, len(spec.Classes))
	for _, nd := range g.Nodes {
		byClass[nd.Label] = append(byClass[nd.Label], nd.ID)
	}

	target := int(float64(n) * spec.AvgDegree / 2)
	seen := make(map[[2]NodeID]bool, target)
	endpoints := make([]NodeID, 0, 2*target)
	const prefProb = 0.35 // weight of preferential attachment

	// Sub-communities: same-class edges prefer a node's own community
	// (research groups within a topic, product lines within a
	// category). Without this, 2-hop neighborhoods decorrelate to ~h²
	// same-class probability, far below real citation graphs, and
	// 2-hop methods collapse.
	const (
		commTarget = 60  // nodes per community
		commProb   = 0.7 // same-class edges staying in-community
	)
	commOf := make([]int, n)
	byComm := make([][][]NodeID, len(spec.Classes))
	for k, ids := range byClass {
		nComm := (len(ids) + commTarget - 1) / commTarget
		if nComm == 0 {
			continue
		}
		byComm[k] = make([][]NodeID, nComm)
		for _, id := range ids {
			c := rng.Intn(nComm)
			commOf[id] = c
			byComm[k][c] = append(byComm[k][c], id)
		}
	}

	pick := func() NodeID {
		if len(endpoints) > 0 && rng.Float64() < prefProb {
			return endpoints[rng.Intn(len(endpoints))]
		}
		return NodeID(rng.Intn(n))
	}
	pickSameClass := func(u NodeID) NodeID {
		k := g.Nodes[u].Label
		if comm := byComm[k][commOf[u]]; len(comm) > 1 && rng.Float64() < commProb {
			return comm[rng.Intn(len(comm))]
		}
		ids := byClass[k]
		return ids[rng.Intn(len(ids))]
	}

	// closure attempts a triadic-closure edge: connect two neighbors of
	// a random existing endpoint. Citation and co-purchase graphs have
	// high clustering, and the link-prediction task depends on held-out
	// edges retaining common visible neighbors.
	const triangleProb = 0.25
	closure := func() (NodeID, NodeID, bool) {
		if len(endpoints) == 0 {
			return 0, 0, false
		}
		w := endpoints[rng.Intn(len(endpoints))]
		ns := g.adj[w]
		if len(ns) < 2 {
			return 0, 0, false
		}
		i := rng.Intn(len(ns))
		j := rng.Intn(len(ns))
		if i == j {
			return 0, 0, false
		}
		return ns[i], ns[j], true
	}

	attempts := 0
	maxAttempts := 30 * target
	for edges := 0; edges < target && attempts < maxAttempts; attempts++ {
		var u, v NodeID
		if rng.Float64() < triangleProb {
			var ok bool
			u, v, ok = closure()
			if !ok {
				continue
			}
		} else {
			u = pick()
			if rng.Float64() < spec.Homophily {
				v = pickSameClass(u)
			} else {
				v = NodeID(rng.Intn(n))
			}
		}
		if u == v {
			continue
		}
		key := [2]NodeID{u, v}
		if u > v {
			key = [2]NodeID{v, u}
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		g.addEdge(u, v)
		endpoints = append(endpoints, u, v)
		edges++
	}
}

// Stats summarizes a generated dataset for Table II style reporting.
type Stats struct {
	Name         string
	Nodes        int
	Edges        int
	Classes      int
	Homophily    float64
	MeanDegree   float64
	MaxDegree    int
	Isolated     int
	FullNodes    int
	FullEdges    int
	FullFeatures int
	NodeType     string
	TextType     string
	EdgeType     string
}

// Summarize computes dataset statistics for the given graph/spec pair.
func Summarize(g *Graph, spec Spec) Stats {
	st := Stats{
		Name:         spec.Display,
		Nodes:        g.NumNodes(),
		Edges:        g.NumEdges(),
		Classes:      len(g.Classes),
		Homophily:    g.EdgeHomophily(),
		FullNodes:    spec.FullNodes,
		FullEdges:    spec.FullEdges,
		FullFeatures: spec.FullFeatures,
		NodeType:     spec.NodeType,
		TextType:     spec.TextType,
		EdgeType:     spec.EdgeType,
	}
	degSum := 0
	for i := range g.Nodes {
		d := g.Degree(NodeID(i))
		degSum += d
		if d > st.MaxDegree {
			st.MaxDegree = d
		}
		if d == 0 {
			st.Isolated++
		}
	}
	if st.Nodes > 0 {
		st.MeanDegree = float64(degSum) / float64(st.Nodes)
	}
	return st
}

// ClassDistribution returns the number of nodes per class.
func ClassDistribution(g *Graph) []int {
	out := make([]int, len(g.Classes))
	for _, n := range g.Nodes {
		out[n.Label]++
	}
	return out
}

// SortedNames returns all dataset short names in paper order.
func SortedNames() []string {
	specs := Specs()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// SmallSpec returns a reduced version of the named spec for fast tests:
// same class structure and text model, tiny node count.
func SmallSpec(name string, nodes int) (Spec, error) {
	s, err := SpecByName(name)
	if err != nil {
		return Spec{}, err
	}
	s.Nodes = nodes
	if s.QueryCount > nodes/2 {
		s.QueryCount = nodes / 2
	}
	return s, nil
}
