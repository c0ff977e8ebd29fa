package prompt

import (
	"testing"

	"repro/internal/tag"
)

// BenchmarkCompressStats measures level-1 compression of one prompt
// shaped like batch-boost's: a generated pubmed target and four
// neighbors, each with its abstract, two of them labeled.
func BenchmarkCompressStats(b *testing.B) {
	spec, err := tag.SmallSpec("pubmed", 200)
	if err != nil {
		b.Fatal(err)
	}
	g := tag.Generate(spec, 1, tag.Options{})
	req := Request{
		TargetTitle:    g.Nodes[0].Title,
		TargetAbstract: g.Nodes[0].Abstract,
		Categories:     g.Classes,
		Ranked:         true,
	}
	for i := 1; i <= 4; i++ {
		nb := Neighbor{Title: g.Nodes[i].Title, Abstract: g.Nodes[i].Abstract}
		if i%2 == 0 {
			nb.Label = g.Classes[g.Nodes[i].Label]
		}
		req.Neighbors = append(req.Neighbors, nb)
	}
	p := Build(req)
	c := Compressor{Level: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, benchStats = c.CompressStats(p)
	}
}

var benchStats CompressStats
