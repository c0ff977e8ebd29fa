// Package linkpred extends the two MQO strategies to link prediction
// (Section VI-J of the paper): predicting whether an edge exists
// between a node pair.
//
// The task setup holds out a balanced set of positive edges and
// negative pairs; the remaining edges are the visible graph. Prompt
// variants mirror Table X: Vanilla sends the pair's text alone, Base
// adds the visible neighbor links of both endpoints, "w/ prune" omits
// those links for the pairs whose text alone suffices (scored by a
// binary surrogate's confidence, D(t_i,t_j) = 1 − max f(x_i‖x_j)), and
// "w/ boost" feeds predicted links back into the visible graph so later
// pairs see them as neighbor evidence (candidate criterion
// C = {v_i : |N_i| ≥ γ1}; no conflict threshold, since link prediction
// has no categories).
package linkpred

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/encode"
	"repro/internal/nn"
	"repro/internal/tag"
	"repro/internal/token"
	"repro/internal/xrand"
)

// Pair is one link-prediction query.
type Pair struct {
	A, B tag.NodeID
	// Positive is the ground truth (hidden from methods).
	Positive bool
}

// Key canonicalizes the unordered pair.
func (p Pair) Key() [2]tag.NodeID {
	if p.A > p.B {
		return [2]tag.NodeID{p.B, p.A}
	}
	return [2]tag.NodeID{p.A, p.B}
}

// Dataset is a link-prediction instance over one graph.
type Dataset struct {
	Graph *tag.Graph
	// adj is the visible adjacency (original edges minus held-out
	// positives, plus pseudo-links added by boosting).
	adj map[tag.NodeID][]tag.NodeID
	// Test is the balanced query set.
	Test []Pair
}

// MakeDataset holds out nTest/2 positive edges and samples nTest/2
// negative pairs (half of them same-class "hard" negatives). The
// visible graph excludes held-out positives.
func MakeDataset(g *tag.Graph, nTest int, seed uint64) (*Dataset, error) {
	if nTest < 2 {
		return nil, fmt.Errorf("linkpred: need at least 2 test pairs")
	}
	rng := xrand.New(seed).SplitString("linkpred/dataset")

	// Collect all edges once.
	var edges [][2]tag.NodeID
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(tag.NodeID(u)) {
			if tag.NodeID(u) < v {
				edges = append(edges, [2]tag.NodeID{tag.NodeID(u), v})
			}
		}
	}
	nPos := nTest / 2
	if nPos > len(edges)/2 {
		return nil, fmt.Errorf("linkpred: %d positives requested, graph has only %d edges", nPos, len(edges))
	}
	d := &Dataset{Graph: g, adj: make(map[tag.NodeID][]tag.NodeID, g.NumNodes())}

	heldOut := map[[2]tag.NodeID]bool{}
	for _, i := range rng.Sample(len(edges), nPos) {
		e := edges[i]
		heldOut[e] = true
		d.Test = append(d.Test, Pair{A: e[0], B: e[1], Positive: true})
	}
	// Visible adjacency = all edges minus held-out.
	for _, e := range edges {
		if heldOut[e] {
			continue
		}
		d.adj[e[0]] = append(d.adj[e[0]], e[1])
		d.adj[e[1]] = append(d.adj[e[1]], e[0])
	}

	// Negative pairs: non-edges, half same-class.
	byClass := make([][]tag.NodeID, len(g.Classes))
	for _, n := range g.Nodes {
		byClass[n.Label] = append(byClass[n.Label], n.ID)
	}
	nNeg := nTest - nPos
	seen := map[[2]tag.NodeID]bool{}
	attempts := 0
	for len(seen) < nNeg && attempts < 200*nNeg {
		attempts++
		var a, b tag.NodeID
		if len(seen)%2 == 0 {
			// Hard negative: same class.
			cls := byClass[rng.Intn(len(byClass))]
			if len(cls) < 2 {
				continue
			}
			a, b = cls[rng.Intn(len(cls))], cls[rng.Intn(len(cls))]
		} else {
			a, b = tag.NodeID(rng.Intn(g.NumNodes())), tag.NodeID(rng.Intn(g.NumNodes()))
		}
		if a == b || g.HasEdge(a, b) {
			continue
		}
		p := Pair{A: a, B: b}
		if seen[p.Key()] {
			continue
		}
		seen[p.Key()] = true
		d.Test = append(d.Test, p)
	}
	if len(seen) < nNeg {
		return nil, fmt.Errorf("linkpred: could not sample %d negative pairs", nNeg)
	}
	rng.Shuffle(len(d.Test), func(i, j int) { d.Test[i], d.Test[j] = d.Test[j], d.Test[i] })
	return d, nil
}

// VisibleNeighbors returns the current visible neighbors of v.
func (d *Dataset) VisibleNeighbors(v tag.NodeID) []tag.NodeID { return d.adj[v] }

// AddLink records a (pseudo-)link, used by boosting.
func (d *Dataset) AddLink(a, b tag.NodeID) {
	for _, u := range d.adj[a] {
		if u == b {
			return
		}
	}
	d.adj[a] = append(d.adj[a], b)
	d.adj[b] = append(d.adj[b], a)
}

// BuildLinkPrompt renders the pair query. When withLinks is true, up to
// m visible neighbors of each endpoint are listed by title; shared
// titles across the two lists are the structural cue the predictor can
// read. Neighbor lists are sorted by node ID for determinism.
func (d *Dataset) BuildLinkPrompt(p Pair, withLinks bool, m int) string {
	g := d.Graph
	var b strings.Builder
	fmt.Fprintf(&b, "Target pair:\nPaper A: Title: %s \nAbstract: %s \n", g.Nodes[p.A].Title, g.Nodes[p.A].Abstract)
	fmt.Fprintf(&b, "Paper B: Title: %s \nAbstract: %s \n", g.Nodes[p.B].Title, g.Nodes[p.B].Abstract)
	if withLinks {
		writeSide := func(label string, v tag.NodeID) {
			ns := append([]tag.NodeID(nil), d.adj[v]...)
			sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
			if len(ns) > m {
				ns = ns[:m]
			}
			fmt.Fprintf(&b, "Known citation links of paper %s:\n", label)
			for _, u := range ns {
				fmt.Fprintf(&b, "Link: %s \n", g.Nodes[u].Title)
			}
		}
		writeSide("A", p.A)
		writeSide("B", p.B)
	}
	b.WriteString("Task: \nDoes paper A have a citation relationship with paper B?\n")
	b.WriteString("Please output the answer as a Python list: Answer: ['Yes' or 'No'].")
	return b.String()
}

// parsedLink is the structured view of a link prompt.
type parsedLink struct {
	textA, textB string
	linksA       []string
	linksB       []string
}

// parseLinkPrompt recovers the pair query from a prompt built by
// BuildLinkPrompt.
func parseLinkPrompt(p string) (parsedLink, error) {
	var out parsedLink
	lines := strings.Split(p, "\n")
	i := 0
	next := func(prefix string) (string, bool) {
		if i < len(lines) && strings.HasPrefix(lines[i], prefix) {
			s := strings.TrimSpace(strings.TrimPrefix(lines[i], prefix))
			i++
			return s, true
		}
		return "", false
	}
	if _, ok := next("Target pair:"); !ok {
		return out, fmt.Errorf("linkpred: missing target header")
	}
	ta, ok := next("Paper A: Title: ")
	if !ok {
		return out, fmt.Errorf("linkpred: missing paper A")
	}
	aa, ok := next("Abstract: ")
	if !ok {
		return out, fmt.Errorf("linkpred: missing abstract A")
	}
	tb, ok := next("Paper B: Title: ")
	if !ok {
		return out, fmt.Errorf("linkpred: missing paper B")
	}
	ab, ok := next("Abstract: ")
	if !ok {
		return out, fmt.Errorf("linkpred: missing abstract B")
	}
	out.textA = ta + " " + aa
	out.textB = tb + " " + ab
	for i < len(lines) {
		if _, ok := next("Known citation links of paper A:"); ok {
			for {
				l, ok := next("Link: ")
				if !ok {
					break
				}
				out.linksA = append(out.linksA, l)
			}
			continue
		}
		if _, ok := next("Known citation links of paper B:"); ok {
			for {
				l, ok := next("Link: ")
				if !ok {
					break
				}
				out.linksB = append(out.linksB, l)
			}
			continue
		}
		if strings.HasPrefix(lines[i], "Task:") {
			return out, nil
		}
		return out, fmt.Errorf("linkpred: unexpected line %q", lines[i])
	}
	return out, fmt.Errorf("linkpred: missing task section")
}

// LinkResponse is the outcome of one link query.
type LinkResponse struct {
	Yes          bool
	InputTokens  int
	OutputTokens int
}

// LinkPredictor is the black-box interface for link queries.
type LinkPredictor interface {
	Query(promptText string) (LinkResponse, error)
}

// SimLink is the simulated black-box link predictor. Its decision
// combines textual affinity of the pair (via its noisy class-signal
// knowledge: papers whose evidence points to the same class are more
// likely to cite each other) with structural cues read from the prompt
// (shared neighbor titles, and co-occurrence of each paper's title in
// the other's link list). Decision noise is keyed by the prompt hash,
// so identical prompts give identical answers.
type SimLink struct {
	wordClass map[string]int
	seed      uint64
	meter     token.Meter

	// weights
	wAffinity float64
	wBigram   float64
	wShared   float64
	wDirect   float64
	threshold float64
	noise     float64
}

// NewSimLink builds the simulated link predictor from the dataset's
// generating vocabulary with mild knowledge corruption.
func NewSimLink(g *tag.Graph, seed uint64) *SimLink {
	rng := xrand.New(seed).SplitString("linkpred/sim")
	s := &SimLink{
		wordClass: make(map[string]int),
		seed:      seed,
		wAffinity: 1.4,
		wBigram:   1.5,
		wShared:   1.3,
		wDirect:   2.2,
		threshold: 2.3,
		noise:     0.8,
	}
	for k, words := range g.Vocab.Signal {
		for _, w := range words {
			if rng.Float64() < 0.10 {
				continue // forgotten
			}
			s.wordClass[w] = k
		}
	}
	return s
}

// Meter exposes cumulative token usage.
func (s *SimLink) Meter() *token.Meter { return &s.meter }

// classEvidence returns the normalized class-evidence vector of text:
// one dimension per class its known words signal, weighted by that
// class's share of those words.
func (s *SimLink) classEvidence(text string) encode.Sparse {
	var ids []int32
	for _, w := range strings.Fields(text) {
		if k, ok := s.wordClass[w]; ok {
			ids = append(ids, int32(k))
		}
	}
	dims, weights := encode.CountIDs(ids)
	total := float64(len(ids))
	for i := range weights {
		weights[i] /= total
	}
	return encode.NewSparse(dims, weights)
}

// affinity is the cosine of two texts' class evidence.
func (s *SimLink) affinity(textA, textB string) float64 {
	return encode.CosineSparse(s.classEvidence(textA), s.classEvidence(textB))
}

// Query implements LinkPredictor.
func (s *SimLink) Query(promptText string) (LinkResponse, error) {
	parsed, err := parseLinkPrompt(promptText)
	if err != nil {
		return LinkResponse{}, err
	}
	affinity := s.affinity(parsed.textA, parsed.textB)

	// Shared bigrams capture quoted-phrase affinity between the texts —
	// the strongest lexical cue for a real citation/co-purchase pair.
	bigrams := sharedBigrams(parsed.textA, parsed.textB)
	if bigrams > 4 {
		bigrams = 4
	}

	shared := 0
	if len(parsed.linksA) > 0 && len(parsed.linksB) > 0 {
		inA := map[string]bool{}
		for _, t := range parsed.linksA {
			inA[t] = true
		}
		for _, t := range parsed.linksB {
			if inA[t] {
				shared++
			}
		}
	}
	direct := 0.0
	// Does B's title appear among A's links (or vice versa)? That is a
	// pseudo-link from boosting or a residual visible edge.
	titleB := firstWords(parsed.textB, 6)
	titleA := firstWords(parsed.textA, 6)
	for _, t := range parsed.linksA {
		if strings.HasPrefix(t+" ", titleB) || strings.HasPrefix(titleB, firstWords(t, 6)) {
			direct = 1
		}
	}
	for _, t := range parsed.linksB {
		if strings.HasPrefix(t+" ", titleA) || strings.HasPrefix(titleA, firstWords(t, 6)) {
			direct = 1
		}
	}

	score := s.wAffinity*affinity + s.wBigram*float64(bigrams) + s.wShared*float64(shared) + s.wDirect*direct
	nrng := xrand.New(s.seed ^ hash(promptText)).SplitString("decision")
	score += s.noise * nrng.NormFloat64()

	yes := score > s.threshold
	outText := "Answer: ['No']"
	if yes {
		outText = "Answer: ['Yes']"
	}
	resp := LinkResponse{
		Yes:          yes,
		InputTokens:  token.Count(promptText),
		OutputTokens: token.Count(outText),
	}
	s.meter.AddQuery(resp.InputTokens, resp.OutputTokens)
	return resp, nil
}

// sharedBigrams counts distinct ordered word pairs appearing in both
// texts.
func sharedBigrams(a, b string) int {
	fa, fb := strings.Fields(a), strings.Fields(b)
	if len(fa) < 2 || len(fb) < 2 {
		return 0
	}
	inA := make(map[string]bool, len(fa))
	for i := 0; i+1 < len(fa); i++ {
		inA[fa[i]+" "+fa[i+1]] = true
	}
	seen := map[string]bool{}
	count := 0
	for i := 0; i+1 < len(fb); i++ {
		bg := fb[i] + " " + fb[i+1]
		if inA[bg] && !seen[bg] {
			seen[bg] = true
			count++
		}
	}
	return count
}

func firstWords(s string, n int) string {
	fs := strings.Fields(s)
	if len(fs) > n {
		fs = fs[:n]
	}
	return strings.Join(fs, " ")
}

func hash(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// PairInadequacy scores node pairs by the confidence of a binary
// surrogate classifier: D(t_i, t_j) = 1 − max f(x_i ‖ x_j). The
// surrogate trains on visible edges (positives) versus sampled
// non-edges (negatives).
type PairInadequacy struct {
	enc *encode.Encoder
	mlp *nn.MLP
}

// FitPairInadequacy trains the binary surrogate on nTrain visible
// edges and as many sampled non-edges.
func FitPairInadequacy(d *Dataset, nTrain int, seed uint64, cfg nn.MLPConfig) (*PairInadequacy, error) {
	g := d.Graph
	rng := xrand.New(seed).SplitString("linkpred/surrogate")
	corpus := make([]string, g.NumNodes())
	for i := range corpus {
		corpus[i] = g.Text(tag.NodeID(i))
	}
	enc := encode.NewTFIDF(corpus, 192)

	var edges [][2]tag.NodeID
	for u, ns := range d.adj {
		for _, v := range ns {
			if u < v {
				edges = append(edges, [2]tag.NodeID{u, v})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	if len(edges) == 0 {
		return nil, fmt.Errorf("linkpred: no visible edges to train on")
	}
	if nTrain > len(edges) {
		nTrain = len(edges)
	}

	pairFeat := func(a, b tag.NodeID) []float64 {
		fa, fb := enc.Encode(corpus[a]), enc.Encode(corpus[b])
		out := make([]float64, 0, len(fa)+len(fb))
		out = append(out, fa...)
		out = append(out, fb...)
		return out
	}

	var X [][]float64
	var y []int
	for _, i := range rng.Sample(len(edges), nTrain) {
		X = append(X, pairFeat(edges[i][0], edges[i][1]))
		y = append(y, 1)
	}
	negs := 0
	for attempts := 0; negs < nTrain && attempts < 100*nTrain; attempts++ {
		a := tag.NodeID(rng.Intn(g.NumNodes()))
		b := tag.NodeID(rng.Intn(g.NumNodes()))
		if a == b || g.HasEdge(a, b) {
			continue
		}
		X = append(X, pairFeat(a, b))
		y = append(y, 0)
		negs++
	}
	cfg.Seed = seed
	mlp := nn.TrainMLP(X, y, 2, cfg)
	return &PairInadequacy{enc: enc, mlp: mlp}, nil
}

// Score returns D(t_i, t_j) = 1 − max f(x_i ‖ x_j); lower means the
// pair's own text already decides the link confidently.
func (pi *PairInadequacy) Score(d *Dataset, p Pair) float64 {
	g := d.Graph
	fa := pi.enc.Encode(g.Text(p.A))
	fb := pi.enc.Encode(g.Text(p.B))
	x := append(append(make([]float64, 0, len(fa)+len(fb)), fa...), fb...)
	probs := pi.mlp.Probs(x)
	max := probs[0]
	if probs[1] > max {
		max = probs[1]
	}
	return 1 - max
}
