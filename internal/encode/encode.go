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
	"cmp"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"repro/internal/token"
)

// Encoder maps text to fixed-size feature vectors. Construct one with
// NewBoW or NewTFIDF over a corpus of strings, or with NewBoWIDs or
// NewTFIDFIDs over a corpus of word IDs; Encode then embeds any text
// into the corpus vocabulary space.
type Encoder struct {
	index map[string]int // word -> feature dimension
	words []string       // dimension -> word
	df    []int          // dimension -> documents of the corpus holding it
	idf   []float64      // nil for plain BoW
	// dict is the dictionary the corpus was written in, and dimOf[id]
	// the feature dimension of its word id, or -1.
	dict  *token.Dict
	dimOf []int32
}

// Dims returns the feature dimensionality.
func (e *Encoder) Dims() int { return len(e.words) }

// Word returns the vocabulary word mapped to dimension d.
func (e *Encoder) Word(d int) string { return e.words[d] }

// DocFreq returns how many documents of the corpus the encoder was
// fitted on hold dimension d's word.
func (e *Encoder) DocFreq(d int) int { return e.df[d] }

// newEncoder selects the maxFeatures most document-frequent words of a
// corpus of word IDs into dict, breaking ties by the words' strings
// for determinism, and returns the encoder over them. Document
// frequency counts through a per-word stamp of the last document that
// held the word, so no document needs a set of its own.
func newEncoder(dict *token.Dict, docs [][]int32, maxFeatures int) *Encoder {
	df := make([]int32, dict.Len())
	last := make([]int32, dict.Len()) // 1 + the last document holding the word
	for i, doc := range docs {
		for _, id := range doc {
			if last[id] != int32(i+1) {
				last[id] = int32(i + 1)
				df[id]++
			}
		}
	}
	ids := make([]int32, 0, dict.Len())
	for id, n := range df {
		if n > 0 {
			ids = append(ids, int32(id))
		}
	}
	slices.SortFunc(ids, func(a, b int32) int {
		if df[a] != df[b] {
			return cmp.Compare(df[b], df[a])
		}
		return strings.Compare(dict.Word(a), dict.Word(b))
	})
	if maxFeatures > 0 && len(ids) > maxFeatures {
		ids = ids[:maxFeatures]
	}
	e := &Encoder{
		index: make(map[string]int, len(ids)),
		words: make([]string, len(ids)),
		df:    make([]int, len(ids)),
		dict:  dict,
		dimOf: make([]int32, dict.Len()),
	}
	for id := range e.dimOf {
		e.dimOf[id] = -1
	}
	for d, id := range ids {
		w := dict.Word(id)
		e.index[w] = d
		e.words[d] = w
		e.dimOf[id] = int32(d)
		e.df[d] = int(df[id])
	}
	return e
}

// internCorpus writes a corpus of strings as word IDs into a new
// dictionary.
func internCorpus(corpus []string) (*token.Dict, [][]int32) {
	dict := token.NewBuilder(0)
	docs := make([][]int32, len(corpus))
	for i, doc := range corpus {
		docs[i] = dict.AppendFields(nil, doc)
	}
	return dict.Dict, docs
}

// NewBoW builds a bag-of-words encoder over the corpus, keeping at most
// maxFeatures dimensions (0 keeps everything).
func NewBoW(corpus []string, maxFeatures int) *Encoder {
	dict, docs := internCorpus(corpus)
	return NewBoWIDs(dict, docs, maxFeatures)
}

// NewBoWIDs is NewBoW over a corpus of word IDs into dict.
func NewBoWIDs(dict *token.Dict, docs [][]int32, maxFeatures int) *Encoder {
	return newEncoder(dict, docs, maxFeatures)
}

// NewTFIDF builds a TF-IDF encoder over the corpus, keeping at most
// maxFeatures dimensions (0 keeps everything). IDF uses the smoothed
// formulation log((1+N)/(1+df)) + 1.
func NewTFIDF(corpus []string, maxFeatures int) *Encoder {
	dict, docs := internCorpus(corpus)
	return NewTFIDFIDs(dict, docs, maxFeatures)
}

// NewTFIDFIDs is NewTFIDF over a corpus of word IDs into dict.
func NewTFIDFIDs(dict *token.Dict, docs [][]int32, maxFeatures int) *Encoder {
	e := newEncoder(dict, docs, maxFeatures)
	n := float64(len(docs))
	e.idf = make([]float64, len(e.df))
	for i, df := range e.df {
		e.idf[i] = math.Log((1+n)/(1+float64(df))) + 1
	}
	return e
}

// textDims appends the feature dimension of each word of text that has
// one, in text order.
func (e *Encoder) textDims(dst []int32, text string) []int32 {
	token.ForFields(text, func(w string) {
		if d, ok := e.index[w]; ok {
			dst = append(dst, int32(d))
		}
	})
	return dst
}

// IDF returns each feature dimension's inverse document frequency, or
// nil for a bag-of-words encoder. The slice is the encoder's own: do
// not change it.
func (e *Encoder) IDF() []float64 { return e.idf }

// AppendDims appends the feature dimension of each word of ids (word
// IDs into dict) that has one, in text order. Words of the encoder's
// own dictionary map through a table; others through their strings.
func (e *Encoder) AppendDims(dst []int32, dict *token.Dict, ids []int32) []int32 {
	if dict != e.dict {
		for _, id := range ids {
			if d, ok := e.index[dict.Word(id)]; ok {
				dst = append(dst, int32(d))
			}
		}
		return dst
	}
	for _, id := range ids {
		if d := e.dimOf[id]; d >= 0 {
			dst = append(dst, d)
		}
	}
	return dst
}

// Encode embeds text into the encoder's feature space as an
// L2-normalized dense vector. Unknown words are ignored.
func (e *Encoder) Encode(text string) []float64 { return e.dense(e.textDims(nil, text)) }

// EncodeIDs is Encode for a text given as word IDs into dict.
func (e *Encoder) EncodeIDs(dict *token.Dict, ids []int32) []float64 {
	return e.dense(e.AppendDims(make([]int32, 0, len(ids)), dict, ids))
}

// dense is the L2-normalized dense vector of a text whose words have
// the feature dimensions dims.
func (e *Encoder) dense(dims []int32) []float64 {
	v := make([]float64, len(e.words))
	for _, d := range dims {
		v[d]++
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

// CountIDs returns each distinct ID of ids once, in increasing order,
// with the number of times it occurs. Every ID must lie in [0, bound).
// It counts with a pooled Tally. ids is not changed.
func CountIDs(ids []int32, bound int) (dims []int32, counts []float64) {
	t := tallies.Get().(*Tally)
	defer tallies.Put(t)
	if len(t.n) < bound {
		*t = *NewTally(bound)
	}
	return t.Count(ids, nil, nil)
}

var tallies = sync.Pool{New: func() any { return new(Tally) }}

// Tally counts IDs below a bound, one list after another, in tables it
// reuses: bits marks the IDs of the list being counted and n counts
// them; both are all zero between calls.
type Tally struct {
	n    []uint32
	bits []uint64
}

// NewTally returns a tally of IDs in [0, bound).
func NewTally(bound int) *Tally {
	return &Tally{n: make([]uint32, bound), bits: make([]uint64, (bound+63)/64)}
}

// Count appends each distinct ID of ids once, in increasing order, to
// dims, and the number of times it occurs to counts; when they lack
// room, each grows by what it needs. Every ID must lie below the
// tally's bound. It counts every ID and marks it in a bitset without a
// branch; the set bits, read word by word, give the IDs in order
// without a sort, and reading a word and its counts clears them, which
// leaves the tally ready for the next list. ids is not changed.
func (t *Tally) Count(ids, dims []int32, counts []float64) ([]int32, []float64) {
	lo, hi := len(t.bits), -1
	for _, id := range ids {
		w := int(id >> 6)
		t.bits[w] |= 1 << (id & 63)
		t.n[id]++
		lo, hi = min(lo, w), max(hi, w)
	}
	n := 0
	for w := lo; w <= hi; w++ {
		n += bits.OnesCount64(t.bits[w])
	}
	dims, counts = slices.Grow(dims, n), slices.Grow(counts, n)
	for w := lo; w <= hi; w++ {
		for b := t.bits[w]; b != 0; b &= b - 1 {
			id := int32(w<<6 + bits.TrailingZeros64(b))
			dims = append(dims, id)
			counts = append(counts, float64(t.n[id]))
			t.n[id] = 0
		}
		t.bits[w] = 0
	}
	return dims, counts
}

// EncodeSparse embeds text as a sparse L2-normalized vector, suitable
// for similarity over large vocabularies.
func (e *Encoder) EncodeSparse(text string) Sparse { return e.sparse(e.textDims(nil, text)) }

// EncodeSparseIDs is EncodeSparse for a text given as word IDs into
// dict.
func (e *Encoder) EncodeSparseIDs(dict *token.Dict, ids []int32) Sparse {
	return e.sparse(e.AppendDims(make([]int32, 0, len(ids)), dict, ids))
}

// sparse is the sparse L2-normalized vector of a text whose words have
// the feature dimensions dims.
func (e *Encoder) sparse(dims []int32) Sparse {
	dims, v := CountIDs(dims, len(e.words))
	if e.idf != nil {
		TFIDF(e.idf, dims, v)
	} else {
		normalize(v)
	}
	return NewSparse(dims, v)
}

// TFIDF turns v, how often a text holds each of its distinct feature
// dimensions dims, into the text's L2-normalized TF-IDF weights under
// idf, in place, and returns the normalizer pre it divided them by:
// the L2 norm of the products v[i]·idf[dims[i]], summed in dimension
// order (0 when dims is empty). Counts and idf must be positive, as an
// encoder's are. Each weight is Weight(count, idf[d], pre), so an index
// that keeps only the counts, idf and pre rebuilds the same bits.
func TFIDF(idf []float64, dims []int32, v []float64) (pre float64) {
	var sq float64
	for i, d := range dims {
		x := float64(v[i] * idf[d])
		sq += x * x
	}
	pre = math.Sqrt(sq)
	for i, d := range dims {
		v[i] = Weight(v[i], idf[d], pre)
	}
	return pre
}

// Weight is the TF-IDF weight of a dimension a text holds count times,
// under inverse document frequency idf, in a text whose normalizer is
// pre (see TFIDF). The conversion rounds the product to a float64
// before the division, as the Go spec requires of it, so no compiler
// may fuse the two and every caller gets the same bits.
func Weight(count, idf, pre float64) float64 { return float64(count*idf) / pre }

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
