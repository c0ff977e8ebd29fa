package encode

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tag"
)

var corpus = []string{
	"graph neural networks for node classification",
	"node classification with language models",
	"large language models as predictors",
	"database query optimization survey",
	"query optimization for relational database systems",
}

func TestBoWVocabulary(t *testing.T) {
	e := NewBoW(corpus, 0)
	if e.Dims() == 0 {
		t.Fatal("empty vocabulary")
	}
	// Every distinct corpus word should be a dimension when uncapped.
	for _, w := range []string{"graph", "database", "optimization"} {
		v := e.Encode(w)
		sum := 0.0
		for _, x := range v {
			sum += x
		}
		if sum == 0 {
			t.Fatalf("word %q not in uncapped vocabulary", w)
		}
	}
}

func TestMaxFeaturesCap(t *testing.T) {
	e := NewBoW(corpus, 3)
	if e.Dims() != 3 {
		t.Fatalf("Dims() = %d, want 3", e.Dims())
	}
}

func TestCapKeepsMostFrequent(t *testing.T) {
	// Exactly eight corpus words appear in two documents; the rest
	// appear once. A cap of 8 must retain precisely the frequent ones.
	e := NewBoW(corpus, 8)
	kept := map[string]bool{}
	for d := 0; d < e.Dims(); d++ {
		kept[e.Word(d)] = true
	}
	for _, w := range []string{"node", "classification", "optimization", "query", "database", "language", "models", "for"} {
		if !kept[w] {
			t.Fatalf("frequent word %q evicted by cap; kept: %v", w, kept)
		}
	}
}

func TestEncodeNormalized(t *testing.T) {
	e := NewTFIDF(corpus, 0)
	v := e.Encode(corpus[0])
	var norm float64
	for _, x := range v {
		norm += x * x
	}
	if math.Abs(norm-1) > 1e-9 {
		t.Fatalf("encoded vector norm^2 = %v, want 1", norm)
	}
}

func TestEncodeUnknownWordsZero(t *testing.T) {
	e := NewBoW(corpus, 0)
	v := e.Encode("zzz yyy xxx")
	for _, x := range v {
		if x != 0 {
			t.Fatal("unknown-word text should encode to zero vector")
		}
	}
}

func TestCosineIdentity(t *testing.T) {
	a := []float64{1, 2, 3}
	if got := Cosine(a, a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Cosine(a,a) = %v, want 1", got)
	}
}

func TestCosineOrthogonal(t *testing.T) {
	if got := Cosine([]float64{1, 0}, []float64{0, 1}); got != 0 {
		t.Fatalf("orthogonal cosine = %v, want 0", got)
	}
}

func TestCosineZeroVector(t *testing.T) {
	if got := Cosine([]float64{0, 0}, []float64{1, 1}); got != 0 {
		t.Fatalf("zero-vector cosine = %v, want 0", got)
	}
}

func TestCosineSparseMatchesDense(t *testing.T) {
	e := NewTFIDF(corpus, 0)
	a, b := corpus[0], corpus[1]
	dense := Cosine(e.Encode(a), e.Encode(b))
	sparse := CosineSparse(e.EncodeSparse(a), e.EncodeSparse(b))
	if math.Abs(dense-sparse) > 1e-9 {
		t.Fatalf("dense %v vs sparse %v cosine mismatch", dense, sparse)
	}
}

func TestSimilaritySemantics(t *testing.T) {
	e := NewTFIDF(corpus, 0)
	same := e.Similarity("database query optimization survey", "query optimization for relational database systems")
	diff := e.Similarity("database query optimization survey", "graph neural networks for node classification")
	if same <= diff {
		t.Fatalf("related texts sim %v should exceed unrelated %v", same, diff)
	}
}

func TestSimilarityRange(t *testing.T) {
	e := NewTFIDF(corpus, 0)
	f := func(a, b string) bool {
		s := e.Similarity(a, b)
		return s >= -1e-9 && s <= 1+1e-9 && !math.IsNaN(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCosineSymmetric(t *testing.T) {
	f := func(a, b []float64) bool {
		// Bound magnitudes to avoid overflow in the dot product; the
		// property under test is symmetry, not overflow handling.
		for i := range a {
			a[i] = math.Tanh(a[i])
		}
		for i := range b {
			b[i] = math.Tanh(b[i])
		}
		x, y := Cosine(a, b), Cosine(b, a)
		if math.IsNaN(x) || math.IsNaN(y) {
			return false
		}
		return math.Abs(x-y) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTFIDFDownweightsUbiquitousWords(t *testing.T) {
	// A word in every document gets minimal IDF; a rare word gets more.
	docs := []string{
		"common rareone", "common raretwo", "common rarethree",
	}
	e := NewTFIDF(docs, 0)
	vCommon := e.EncodeSparse("common")
	vRare := e.EncodeSparse("rareone")
	var wc, wr float64
	for _, x := range vCommon.Weights {
		wc = x
	}
	for _, x := range vRare.Weights {
		wr = x
	}
	// Single-word texts normalize to weight 1 regardless; compare via a
	// mixed document instead.
	mixed := e.EncodeSparse("common rareone")
	var raw []float64
	raw = append(raw, mixed.Weights...)
	if len(raw) != 2 {
		t.Fatalf("expected 2 nonzero dims, got %d", len(raw))
	}
	lo, hi := math.Min(raw[0], raw[1]), math.Max(raw[0], raw[1])
	if !(lo < hi) {
		t.Fatalf("IDF weighting had no effect: %v vs %v (wc=%v wr=%v)", lo, hi, wc, wr)
	}
}

// On generated TAG text, same-class nodes must be more similar than
// cross-class nodes on average — the property SNS depends on.
func TestClassSimilarityOnTAG(t *testing.T) {
	spec, err := tag.SmallSpec("cora", 400)
	if err != nil {
		t.Fatal(err)
	}
	g := tag.Generate(spec, 5, tag.Options{})
	texts := make([]string, g.NumNodes())
	for i := range texts {
		texts[i] = g.Text(tag.NodeID(i))
	}
	e := NewTFIDF(texts, 0)

	var sameSum, diffSum float64
	var sameN, diffN int
	for i := 0; i < 60; i++ {
		for j := i + 1; j < 60; j++ {
			s := e.Similarity(texts[i], texts[j])
			if g.Nodes[i].Label == g.Nodes[j].Label {
				sameSum += s
				sameN++
			} else {
				diffSum += s
				diffN++
			}
		}
	}
	if sameN == 0 || diffN == 0 {
		t.Skip("degenerate sample")
	}
	if sameSum/float64(sameN) <= diffSum/float64(diffN) {
		t.Fatalf("same-class similarity %.4f not above cross-class %.4f",
			sameSum/float64(sameN), diffSum/float64(diffN))
	}
}
