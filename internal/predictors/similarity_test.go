package predictors

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/encode"
	"repro/internal/tag"
	"repro/internal/xrand"
)

func TestNewSimilarityDense(t *testing.T) {
	vecs := [][]float64{
		{1, 0, 0},
		{0.9, 0.1, 0},
		{0, 0, 1},
	}
	s := NewSimilarityDense(vecs)
	if same := s.Score(0, 1); same <= s.Score(0, 2) {
		t.Errorf("aligned pair scored %.3f, orthogonal pair %.3f", same, s.Score(0, 2))
	}
	if self := s.Score(2, 2); self < 0.999 {
		t.Errorf("self-similarity %.3f, want 1", self)
	}
	// Zero rows are allowed and score zero.
	z := NewSimilarityDense([][]float64{{0, 0}, {1, 0}})
	if got := z.Score(0, 1); got != 0 {
		t.Errorf("zero-vector similarity %.3f, want 0", got)
	}
}

// TestSetSimilarityChangesSNSSelection verifies an injected backend
// actually drives SNS: an adversarial index that inverts similarity
// must change which neighbors rank first.
func TestSetSimilarityChangesSNSSelection(t *testing.T) {
	spec, err := tag.SpecByName("cora")
	if err != nil {
		t.Fatal(err)
	}
	g := tag.Generate(spec, 23, tag.Options{Scale: 0.2})
	split := g.SplitPerClass(xrand.New(24), 20, 100)
	newCtx := func() *Context {
		return &Context{Graph: g, Known: KnownFromSplit(g, split), M: 2, Seed: 7}
	}

	base := NewSimilarity(g)
	ctxA := newCtx()
	ctxA.SetSimilarity(base)
	ctxB := newCtx()
	anti := make([][]float64, g.NumNodes())
	for i := range anti {
		// A one-hot on node id modulo 2 dimensions: unrelated to text,
		// so rankings must differ from the TF-IDF backend's.
		v := make([]float64, 2)
		v[i%2] = 1
		anti[i] = v
	}
	ctxB.SetSimilarity(NewSimilarityDense(anti))

	diffs := 0
	for _, v := range split.Query {
		a := SNS{}.Select(ctxA, v)
		b := SNS{}.Select(ctxB, v)
		if len(a) != len(b) {
			diffs++
			continue
		}
		for i := range a {
			if a[i].ID != b[i].ID {
				diffs++
				break
			}
		}
	}
	if diffs == 0 {
		t.Error("injected similarity backend did not change any SNS selection")
	}
}

// TestPackedScoresMatchCosine: pubmed's index holds term counts, and
// both layouts score every pair as encode.CosineSparse scores the
// encoder's vectors, bit for bit, through Score and Scores, a zero
// vector included: the count layout built from the texts, and the
// weights layout built from the encoder's vectors.
func TestPackedScoresMatchCosine(t *testing.T) {
	spec, err := tag.SmallSpec("pubmed", 300)
	if err != nil {
		t.Fatal(err)
	}
	g := tag.Generate(spec, 4, tag.Options{})
	if _, ok := NewSimilarity(g).vecs.(*countVectors); !ok {
		t.Fatal("pubmed's index does not hold term counts")
	}
	docs := append(g.Corpus(), nil) // an empty text: the zero vector
	enc := encode.NewTFIDFIDs(g.Dict(), docs, 0)
	vecs := make([]encode.Sparse, len(docs))
	weights := newWeightVectors(len(docs), 0)
	for i, doc := range docs {
		vecs[i] = enc.EncodeSparseIDs(g.Dict(), doc)
		weights.add(vecs[i].Dims, vecs[i].Weights)
	}
	counted := newTFIDF(g.Dict(), docs)
	if _, ok := counted.vecs.(*countVectors); !ok {
		t.Fatalf("the texts are held as %T", counted.vecs)
	}
	all := make([]tag.NodeID, len(vecs))
	for i := range all {
		all[i] = tag.NodeID(i)
	}
	for _, s := range []*Similarity{counted, {vecs: weights, dims: enc.Dims()}} {
		for _, a := range all {
			got := s.Scores(a, all, nil)
			for _, b := range all {
				want := encode.CosineSparse(vecs[a], vecs[b])
				if got[b] != want || s.Score(a, b) != want {
					t.Fatalf("%T: nodes %d, %d scored %v and %v, cosine %v", s.vecs, a, b, got[b], s.Score(a, b), want)
				}
			}
		}
	}
}

// TestCountsMatchEncoder: on every shipped dataset at full scale, the
// index holds term counts, and every entry's rebuilt weight and every
// node's norm are the bits of the encoder's sparse vector.
func TestCountsMatchEncoder(t *testing.T) {
	for _, spec := range tag.Specs() {
		g := tag.Generate(spec, 1, tag.Options{})
		c, ok := NewSimilarity(g).vecs.(*countVectors)
		if !ok {
			t.Fatalf("%s: the index holds no term counts", spec.Name)
		}
		enc := encode.NewTFIDFIDs(g.Dict(), g.Corpus(), 0)
		for v, doc := range g.Corpus() {
			want := enc.EncodeSparseIDs(g.Dict(), doc)
			dims, counts := c.vector(tag.NodeID(v))
			if len(dims) != len(want.Dims) || math.Float64bits(c.norms[v]) != math.Float64bits(want.Norm) {
				t.Fatalf("%s node %d: %d entries of norm %v, encoder %d of norm %v", spec.Name, v, len(dims), c.norms[v], len(want.Dims), want.Norm)
			}
			for i, d := range dims {
				w := encode.Weight(float64(counts[i]), c.idf[d], c.pre[v])
				if int32(d) != want.Dims[i] || math.Float64bits(w) != math.Float64bits(want.Weights[i]) {
					t.Fatalf("%s node %d entry %d: dimension %d weight %v, encoder %d weight %v", spec.Name, v, i, d, w, want.Dims[i], want.Weights[i])
				}
			}
		}
	}
}

// TestSimilarityIndexBytes bounds what the full-scale pubmed index
// keeps: its arrays' capacities, summed over whatever layout holds
// them, come to at most 3 bytes per (node, word) entry, 24 per node and
// 8 per dimension.
func TestSimilarityIndexBytes(t *testing.T) {
	spec, err := tag.SpecByName("pubmed")
	if err != nil {
		t.Fatal(err)
	}
	g := tag.Generate(spec, 1, tag.Options{})
	entries := 0
	last := make([]int, g.Dict().Len()) // 1 + the last text holding the word
	for i, doc := range g.Corpus() {
		for _, id := range doc {
			if last[id] != i+1 {
				last[id] = i + 1
				entries++
			}
		}
	}
	dims := encode.NewTFIDFIDs(g.Dict(), g.Corpus(), 0).Dims()
	arrays := reflect.ValueOf(NewSimilarity(g).vecs).Elem()
	bytes := 0
	for i := 0; i < arrays.NumField(); i++ {
		if f := arrays.Field(i); f.Kind() == reflect.Slice {
			bytes += f.Cap() * int(f.Type().Elem().Size())
		}
	}
	if limit := 3*entries + 24*g.NumNodes() + 8*dims; bytes > limit {
		t.Fatalf("the index keeps %d bytes for %d entries, %d nodes and %d dimensions; the limit is %d", bytes, entries, g.NumNodes(), dims, limit)
	}
}

// TestSimilarityLongCountsKeepWeights: a loaded snapshot whose node
// text repeats one word 300 times, more than a count's 8 bits hold,
// gets the weights layout. It scores every pair as encode.CosineSparse
// scores the encoder's vectors, and SNS selects on every node what it
// selects over an index of those vectors.
func TestSimilarityLongCountsKeepWeights(t *testing.T) {
	spec, err := tag.SmallSpec("cora", 200)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tag.Save(&buf, tag.Generate(spec, 5, tag.Options{})); err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	node := snap["nodes"].([]any)[0].(map[string]any)
	word := strings.Fields(node["Title"].(string))[0]
	node["Abstract"] = strings.TrimSpace(strings.Repeat(word+" ", 300))
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	g, err := tag.Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSimilarity(g)
	if _, ok := s.vecs.(*weightVectors); !ok {
		t.Fatalf("a count of 300 is held as %T", s.vecs)
	}
	enc := encode.NewTFIDFIDs(g.Dict(), g.Corpus(), 0)
	weights := newWeightVectors(g.NumNodes(), 0)
	vecs := make([]encode.Sparse, g.NumNodes())
	for v, doc := range g.Corpus() {
		vecs[v] = enc.EncodeSparseIDs(g.Dict(), doc)
		weights.add(vecs[v].Dims, vecs[v].Weights)
	}
	all := make([]tag.NodeID, g.NumNodes())
	for i := range all {
		all[i] = tag.NodeID(i)
	}
	for _, a := range all {
		got := s.Scores(a, all, nil)
		for _, b := range all {
			want := encode.CosineSparse(vecs[a], vecs[b])
			if got[b] != want || s.Score(a, b) != want {
				t.Fatalf("nodes %d, %d scored %v and %v, cosine %v", a, b, got[b], s.Score(a, b), want)
			}
		}
	}
	split := g.SplitPerClass(xrand.New(6), 5, 0)
	ctx := &Context{Graph: g, Known: KnownFromSplit(g, split), M: 4, Seed: 1}
	ref := &Context{Graph: g, Known: ctx.Known, M: 4, Seed: 1}
	ctx.SetSimilarity(s)
	ref.SetSimilarity(&Similarity{vecs: weights, dims: enc.Dims()})
	for _, v := range all {
		if got, want := (SNS{}).Select(ctx, v), (SNS{}).Select(ref, v); !slices.Equal(got, want) {
			t.Fatalf("node %d: Select = %v, over the encoder's vectors %v", v, got, want)
		}
	}
}

// TestSimilarityWideDimensions: an index with dimensions beyond 16 bits
// holds them in the weights layout and scores them as cosine does.
func TestSimilarityWideDimensions(t *testing.T) {
	const width = 1<<16 + 10
	rng := xrand.New(8)
	dense := make([][]float64, 12)
	for i := range dense {
		dense[i] = make([]float64, width)
		for k := 0; k < 20; k++ {
			dense[i][rng.Intn(width)] = rng.Float64()
		}
		dense[i][width-1-i%3] = 1
	}
	s := NewSimilarityDense(dense)
	if _, ok := s.vecs.(*weightVectors); !ok {
		t.Fatalf("%d dimensions held as %T", width, s.vecs)
	}
	for a := range dense {
		for b := range dense {
			want := encode.Cosine(dense[a], dense[b])
			if got := s.Score(tag.NodeID(a), tag.NodeID(b)); math.Abs(got-want) > 1e-12 {
				t.Fatalf("nodes %d, %d scored %v, cosine %v", a, b, got, want)
			}
		}
	}
}
