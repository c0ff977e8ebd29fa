package batch

import (
	"fmt"
	"testing"

	"repro/internal/prompt"
	"repro/internal/tag"
)

// simPrompts generates n valid Table III zero-shot prompts over a small
// Cora graph.
func simPrompts(t testing.TB, n int) (*tag.Graph, []Request) {
	t.Helper()
	spec, err := tag.SpecByName("cora")
	if err != nil {
		t.Fatal(err)
	}
	g := tag.Generate(spec, 4, tag.Options{Scale: 0.1})
	if g.NumNodes() < n {
		t.Fatalf("graph too small: %d nodes", g.NumNodes())
	}
	out := make([]Request, n)
	for i := 0; i < n; i++ {
		out[i] = Request{
			ID: fmt.Sprintf("node-%d", i),
			Prompt: prompt.Build(prompt.Request{
				TargetTitle:    g.Title(tag.NodeID(i)),
				TargetAbstract: g.Abstract(tag.NodeID(i)),
				Categories:     g.Classes,
			}),
		}
	}
	return g, out
}
