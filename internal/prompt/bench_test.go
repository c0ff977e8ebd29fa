package prompt

import (
	"testing"

	"repro/internal/tag"
)

// benchQuery is one prompt shaped like batch-boost's: a generated
// pubmed target and four neighbors, each with its abstract, two of them
// labeled.
func benchQuery(b *testing.B) Query {
	spec, err := tag.SmallSpec("pubmed", 200)
	if err != nil {
		b.Fatal(err)
	}
	g := tag.Generate(spec, 1, tag.Options{})
	q := Query{
		Dict:           g.Dict(),
		TargetTitle:    g.TitleIDs(0),
		TargetAbstract: g.AbstractIDs(0),
		Categories:     g.Classes,
		Ranked:         true,
	}
	for i := tag.NodeID(1); i <= 4; i++ {
		nb := QueryNeighbor{Title: g.TitleIDs(i), Abstract: g.AbstractIDs(i)}
		if i%2 == 0 {
			nb.Label = g.Classes[g.Nodes[i].Label]
		}
		q.Neighbors = append(q.Neighbors, nb)
	}
	return q
}

// BenchmarkCompressStats measures level-1 compression of the prompt
// text, which interns every field into a dictionary of its own.
func BenchmarkCompressStats(b *testing.B) {
	q := benchQuery(b)
	p := q.Render()
	c := Compressor{Level: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, benchStats = c.CompressStats(p)
	}
}

// BenchmarkCompressQuery measures level-1 compression on the plan
// path: from the graph's word IDs to the rendered compressed prompt.
func BenchmarkCompressQuery(b *testing.B) {
	q := benchQuery(b)
	c := Compressor{Level: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, benchStats = c.CompressQuery(&q)
	}
}

// BenchmarkNewTemplate measures compiling a run's template, which the
// first query over a new dictionary, node type, edge relation or
// category list pays.
func BenchmarkNewTemplate(b *testing.B) {
	q := benchQuery(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		newTemplate(q.Dict, q.NodeType, q.EdgeRelation, q.Categories, len(q.Neighbors))
	}
}

// BenchmarkRender measures rendering the prompt from word IDs.
func BenchmarkRender(b *testing.B) {
	q := benchQuery(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPrompt = q.Render()
	}
}

var (
	benchStats  CompressStats
	benchPrompt string
)
