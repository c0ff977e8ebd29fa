package encode

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/tag"
)

// TestTFIDFMatchesReference pins the encoders over word IDs to the
// reference below — the earlier string encoders, which split every
// document with strings.Fields and counted document frequency in
// string-keyed maps — on every node of the generated calibration
// datasets: the same dimension order, and bit-identical dense and
// sparse vectors, for TF-IDF and BoW, uncapped and with a MaxFeatures
// cut that falls inside a run of tied document frequencies (where only
// the tie break by word decides what is kept).
func TestTFIDFMatchesReference(t *testing.T) {
	for _, name := range []string{"cora", "citeseer", "pubmed"} {
		spec, err := tag.SmallSpec(name, 300)
		if err != nil {
			t.Fatal(err)
		}
		g := tag.Generate(spec, 5, tag.Options{})
		corpus := make([]string, g.NumNodes())
		for i := range corpus {
			corpus[i] = g.Text(tag.NodeID(i))
		}
		docs := g.Corpus()

		// A cut inside a tie run: the first rank past 100 whose word
		// shares its document frequency with the word before it.
		words, _, freqs := refVocabOf(corpus, 0)
		cut := 0
		for k := 100; k < len(words); k++ {
			if freqs[k] == freqs[k-1] {
				cut = k
				break
			}
		}
		if cut == 0 {
			t.Fatalf("%s: no tie run to cut inside", name)
		}
		for _, maxFeatures := range []int{0, cut} {
			for _, tfidf := range []bool{true, false} {
				label := fmt.Sprintf("%s maxFeatures=%d tfidf=%v", name, maxFeatures, tfidf)
				var want *refEncoder
				var ids, str *Encoder
				if tfidf {
					want = refNewTFIDF(corpus, maxFeatures)
					ids = NewTFIDFIDs(g.Dict(), docs, maxFeatures)
					str = NewTFIDF(corpus, maxFeatures)
				} else {
					want = refNewBoW(corpus, maxFeatures)
					ids = NewBoWIDs(g.Dict(), docs, maxFeatures)
					str = NewBoW(corpus, maxFeatures)
				}
				for _, e := range []*Encoder{ids, str} {
					if !slices.Equal(e.words, want.words) {
						t.Fatalf("%s: dimension order differs", label)
					}
				}
				for v, text := range corpus {
					wd, ws := want.Encode(text), want.EncodeSparse(text)
					for _, got := range []struct {
						how    string
						dense  []float64
						sparse Sparse
					}{
						{"ids", ids.EncodeIDs(g.Dict(), docs[v]), ids.EncodeSparseIDs(g.Dict(), docs[v])},
						{"ids/text", ids.Encode(text), ids.EncodeSparse(text)},
						{"text", str.Encode(text), str.EncodeSparse(text)},
						{"text/ids", str.EncodeIDs(g.Dict(), docs[v]), str.EncodeSparseIDs(g.Dict(), docs[v])},
					} {
						if !bitsEqual(got.dense, wd) {
							t.Fatalf("%s node %d (%s): dense vector differs", label, v, got.how)
						}
						if !slices.Equal(got.sparse.Dims, ws.Dims) || !bitsEqual(got.sparse.Weights, ws.Weights) ||
							math.Float64bits(got.sparse.Norm) != math.Float64bits(ws.Norm) {
							t.Fatalf("%s node %d (%s): sparse vector differs", label, v, got.how)
						}
					}
				}
			}
		}
	}
}

func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// The reference encoders, kept verbatim apart from names.

type refEncoder struct {
	index map[string]int
	words []string
	idf   []float64
}

func refVocabOf(corpus []string, maxFeatures int) ([]string, map[string]int, []int) {
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

func refNewBoW(corpus []string, maxFeatures int) *refEncoder {
	words, index, _ := refVocabOf(corpus, maxFeatures)
	return &refEncoder{index: index, words: words}
}

func refNewTFIDF(corpus []string, maxFeatures int) *refEncoder {
	words, index, freqs := refVocabOf(corpus, maxFeatures)
	n := float64(len(corpus))
	idf := make([]float64, len(words))
	for i, df := range freqs {
		idf[i] = math.Log((1+n)/(1+float64(df))) + 1
	}
	return &refEncoder{index: index, words: words, idf: idf}
}

func (e *refEncoder) Encode(text string) []float64 {
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

func (e *refEncoder) EncodeSparse(text string) Sparse {
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
