// Package encode turns node text into numeric features.
//
// The paper encodes text attributes t_i into input features x_i via
// shallow methods such as Bag-of-Words before feeding a surrogate MLP
// classifier (Section V-A), and the SNS baseline ranks neighbors by
// SimCSE text similarity. This package supplies both: dense BoW /
// TF-IDF encoders with a capped feature dimension for the surrogate
// classifier, and sparse TF-IDF cosine similarity as the offline
// substitute for SimCSE.
package encode

import (
	"math"
	"slices"
	"sort"
	"strings"
)

// Encoder maps text to fixed-size feature vectors. Construct one with
// NewBoW or NewTFIDF over a corpus; Encode then embeds any text into
// the corpus vocabulary space.
type Encoder struct {
	index map[string]int // word -> feature dimension
	words []string       // dimension -> word
	idf   []float64      // nil for plain BoW
}

// Dims returns the feature dimensionality.
func (e *Encoder) Dims() int { return len(e.words) }

// Word returns the vocabulary word mapped to dimension d.
func (e *Encoder) Word(d int) string { return e.words[d] }

// vocabOf selects the maxFeatures most document-frequent words of the
// corpus, breaking ties lexicographically for determinism.
func vocabOf(corpus []string, maxFeatures int) ([]string, map[string]int, []int) {
	df := map[string]int{}
	for _, doc := range corpus {
		seen := map[string]bool{}
		for _, w := range strings.Fields(doc) {
			if !seen[w] {
				seen[w] = true
				df[w]++
			}
		}
	}
	words := make([]string, 0, len(df))
	for w := range df {
		words = append(words, w)
	}
	sort.Slice(words, func(i, j int) bool {
		if df[words[i]] != df[words[j]] {
			return df[words[i]] > df[words[j]]
		}
		return words[i] < words[j]
	})
	if maxFeatures > 0 && len(words) > maxFeatures {
		words = words[:maxFeatures]
	}
	index := make(map[string]int, len(words))
	freqs := make([]int, len(words))
	for i, w := range words {
		index[w] = i
		freqs[i] = df[w]
	}
	return words, index, freqs
}

// NewBoW builds a bag-of-words encoder over the corpus, keeping at most
// maxFeatures dimensions (0 keeps everything).
func NewBoW(corpus []string, maxFeatures int) *Encoder {
	words, index, _ := vocabOf(corpus, maxFeatures)
	return &Encoder{index: index, words: words}
}

// NewTFIDF builds a TF-IDF encoder over the corpus, keeping at most
// maxFeatures dimensions (0 keeps everything). IDF uses the smoothed
// formulation log((1+N)/(1+df)) + 1.
func NewTFIDF(corpus []string, maxFeatures int) *Encoder {
	words, index, freqs := vocabOf(corpus, maxFeatures)
	n := float64(len(corpus))
	idf := make([]float64, len(words))
	for i, df := range freqs {
		idf[i] = math.Log((1+n)/(1+float64(df))) + 1
	}
	return &Encoder{index: index, words: words, idf: idf}
}

// Encode embeds text into the encoder's feature space as an
// L2-normalized dense vector. Unknown words are ignored.
func (e *Encoder) Encode(text string) []float64 {
	v := make([]float64, len(e.words))
	for _, w := range strings.Fields(text) {
		if d, ok := e.index[w]; ok {
			v[d]++
		}
	}
	if e.idf != nil {
		for d := range v {
			v[d] *= e.idf[d]
		}
	}
	normalize(v)
	return v
}

// Sparse is a sparse vector: Weights[i] is the value at dimension
// Dims[i], Dims increase strictly, and Norm is the L2 norm of Weights
// summed in dimension order. Every sum over a Sparse runs in dimension
// order, so equal inputs give bit-identical results on every call.
type Sparse struct {
	Dims    []int32
	Weights []float64
	Norm    float64
}

// NewSparse returns the vector with the given dimensions (strictly
// increasing) and weights, storing their norm. It keeps both slices.
func NewSparse(dims []int32, weights []float64) Sparse {
	var sq float64
	for _, x := range weights {
		sq += x * x
	}
	return Sparse{Dims: dims, Weights: weights, Norm: math.Sqrt(sq)}
}

// CountIDs sorts ids in place and returns each distinct ID once, in
// increasing order, with the number of times it occurs.
func CountIDs(ids []int32) (dims []int32, counts []float64) {
	slices.Sort(ids)
	n := 0
	for i, d := range ids {
		if i == 0 || d != ids[i-1] {
			n++
		}
	}
	dims, counts = make([]int32, 0, n), make([]float64, 0, n)
	for i, d := range ids {
		if i == 0 || d != ids[i-1] {
			dims = append(dims, d)
			counts = append(counts, 0)
		}
		counts[len(counts)-1]++
	}
	return dims, counts
}

// EncodeSparse embeds text as a sparse L2-normalized vector, suitable
// for similarity over large vocabularies.
func (e *Encoder) EncodeSparse(text string) Sparse {
	words := strings.Fields(text)
	ids := make([]int32, 0, len(words))
	for _, w := range words {
		if d, ok := e.index[w]; ok {
			ids = append(ids, int32(d))
		}
	}
	dims, v := CountIDs(ids)
	if e.idf != nil {
		for i, d := range dims {
			v[i] *= e.idf[d]
		}
	}
	normalize(v)
	return NewSparse(dims, v)
}

func normalize(v []float64) {
	var norm float64
	for _, x := range v {
		norm += x * x
	}
	if norm == 0 {
		return
	}
	norm = math.Sqrt(norm)
	for i := range v {
		v[i] /= norm
	}
}

// Cosine returns the cosine similarity of two dense vectors. Vectors of
// different lengths compare over the shorter prefix; zero vectors score
// zero.
func Cosine(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var dot, na, nb float64
	for i := 0; i < n; i++ {
		dot += a[i] * b[i]
	}
	for _, x := range a {
		na += x * x
	}
	for _, x := range b {
		nb += x * x
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// CosineSparse returns the cosine similarity of two sparse vectors:
// their dot product, merged in dimension order, over the stored norms.
// Zero vectors score zero. It is symmetric bit for bit.
func CosineSparse(a, b Sparse) float64 {
	if a.Norm == 0 || b.Norm == 0 {
		return 0
	}
	var dot float64
	for i, j := 0, 0; i < len(a.Dims) && j < len(b.Dims); {
		switch da, db := a.Dims[i], b.Dims[j]; {
		case da < db:
			i++
		case da > db:
			j++
		default:
			dot += a.Weights[i] * b.Weights[j]
			i++
			j++
		}
	}
	return dot / (a.Norm * b.Norm)
}

// Similarity scores two texts with TF-IDF cosine in the encoder's
// space. It is the repository's stand-in for SimCSE sentence
// similarity: on class-vocabulary text, lexical overlap is a faithful
// proxy for semantic similarity.
func (e *Encoder) Similarity(a, b string) float64 {
	return CosineSparse(e.EncodeSparse(a), e.EncodeSparse(b))
}
