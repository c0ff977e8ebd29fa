package predictors

import (
	"math"
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

// TestPackedScoresMatchCosine: the packed index scores every pair as
// encode.CosineSparse scores the encoder's vectors, bit for bit, with
// 16-bit and with 32-bit dimensions, through Score and Scores, a zero
// vector included.
func TestPackedScoresMatchCosine(t *testing.T) {
	spec, err := tag.SmallSpec("pubmed", 300)
	if err != nil {
		t.Fatal(err)
	}
	g := tag.Generate(spec, 4, tag.Options{})
	enc := encode.NewTFIDFIDs(g.Dict(), g.Corpus(), 0)
	var vecs []encode.Sparse
	for _, doc := range g.Corpus() {
		vecs = append(vecs, enc.EncodeSparseIDs(g.Dict(), doc))
	}
	vecs = append(vecs, encode.Sparse{})
	if _, ok := NewSimilarity(g).vecs.(*packed[uint16]); !ok {
		t.Fatal("pubmed's index does not pack 16-bit dimensions")
	}
	all := make([]tag.NodeID, len(vecs))
	for i := range all {
		all[i] = tag.NodeID(i)
	}
	for _, s := range []*Similarity{
		{vecs: pack[uint16](vecs), dims: enc.Dims()},
		{vecs: pack[int32](vecs), dims: enc.Dims()},
	} {
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

// TestSimilarityWideDimensions: an index with dimensions beyond 16 bits
// packs them in 32 and scores them as cosine does.
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
	if _, ok := s.vecs.(*packed[int32]); !ok {
		t.Fatalf("%d dimensions packed as %T", width, s.vecs)
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
