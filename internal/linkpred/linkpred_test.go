package linkpred

import (
	"math"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/tag"
)

func testDataset(t testing.TB, nodes, nTest int, seed uint64) *Dataset {
	t.Helper()
	spec, err := tag.SmallSpec("cora", nodes)
	if err != nil {
		t.Fatal(err)
	}
	g := tag.Generate(spec, seed, tag.Options{})
	d, err := MakeDataset(g, nTest, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestMakeDatasetBalanced(t *testing.T) {
	d := testDataset(t, 800, 200, 1)
	pos, neg := 0, 0
	for _, p := range d.Test {
		if p.Positive {
			pos++
		} else {
			neg++
		}
	}
	if pos != 100 || neg != 100 {
		t.Fatalf("pos=%d neg=%d, want 100/100", pos, neg)
	}
}

func TestMakeDatasetHoldsOutPositives(t *testing.T) {
	d := testDataset(t, 800, 200, 2)
	for _, p := range d.Test {
		if !p.Positive {
			continue
		}
		for _, u := range d.VisibleNeighbors(p.A) {
			if u == p.B {
				t.Fatalf("held-out edge {%d,%d} still visible", p.A, p.B)
			}
		}
	}
}

func TestMakeDatasetNegativesAreNonEdges(t *testing.T) {
	d := testDataset(t, 800, 200, 3)
	for _, p := range d.Test {
		if p.Positive {
			continue
		}
		if d.Graph.HasEdge(p.A, p.B) {
			t.Fatalf("negative pair {%d,%d} is an actual edge", p.A, p.B)
		}
		if p.A == p.B {
			t.Fatal("self pair sampled")
		}
	}
}

func TestMakeDatasetErrors(t *testing.T) {
	spec, _ := tag.SmallSpec("cora", 100)
	g := tag.Generate(spec, 5, tag.Options{})
	if _, err := MakeDataset(g, 1, 1); err == nil {
		t.Fatal("tiny nTest accepted")
	}
	if _, err := MakeDataset(g, 100000, 1); err == nil {
		t.Fatal("oversized nTest accepted")
	}
}

func TestAddLinkIdempotent(t *testing.T) {
	d := testDataset(t, 300, 40, 7)
	a, b := d.Test[0].A, d.Test[0].B
	before := len(d.VisibleNeighbors(a))
	d.AddLink(a, b)
	d.AddLink(a, b)
	if got := len(d.VisibleNeighbors(a)); got != before+1 {
		t.Fatalf("AddLink not idempotent: %d -> %d", before, got)
	}
}

func TestLinkPromptRoundTrip(t *testing.T) {
	d := testDataset(t, 300, 40, 11)
	p := d.Test[0]
	parsed, err := parseLinkPrompt(d.BuildLinkPrompt(p, true, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(parsed.textA, d.Graph.Title(p.A)) {
		t.Fatalf("text A = %q", parsed.textA)
	}
	if !strings.HasPrefix(parsed.textB, d.Graph.Title(p.B)) {
		t.Fatalf("text B = %q", parsed.textB)
	}
	if len(parsed.linksA) > 4 || len(parsed.linksB) > 4 {
		t.Fatalf("link cap violated: %d/%d", len(parsed.linksA), len(parsed.linksB))
	}
}

func TestLinkPromptVanillaHasNoLinks(t *testing.T) {
	d := testDataset(t, 300, 40, 13)
	parsed, err := parseLinkPrompt(d.BuildLinkPrompt(d.Test[0], false, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.linksA)+len(parsed.linksB) != 0 {
		t.Fatal("vanilla link prompt contains links")
	}
}

func TestParseLinkPromptRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"", "hi", "Target pair:\nnope"} {
		if _, err := parseLinkPrompt(bad); err == nil {
			t.Fatalf("parseLinkPrompt(%q) accepted", bad)
		}
	}
}

func TestSimLinkDeterministic(t *testing.T) {
	d := testDataset(t, 500, 60, 17)
	s := NewSimLink(d.Graph, 3)
	p := d.BuildLinkPrompt(d.Test[0], true, 4)
	r1, err := s.Query(p)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Query(p)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Yes != r2.Yes {
		t.Fatal("identical link prompts answered differently")
	}
	if s.Meter().Queries() != 2 {
		t.Fatal("meter not counting")
	}
}

func TestSimLinkBetterThanChance(t *testing.T) {
	d := testDataset(t, 1000, 300, 19)
	s := NewSimLink(d.Graph, 5)
	res, err := Run(d, s, RunConfig{WithLinks: false})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0.6 {
		t.Fatalf("vanilla link accuracy %.3f barely above chance", res.Accuracy)
	}
}

func TestBaseBeatsOrMatchesVanilla(t *testing.T) {
	d := testDataset(t, 1000, 300, 23)
	s := NewSimLink(d.Graph, 5)
	v, err := Run(d, s, RunConfig{WithLinks: false})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(d, s, RunConfig{WithLinks: true, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	if b.Accuracy < v.Accuracy-0.05 {
		t.Fatalf("base %.3f well below vanilla %.3f", b.Accuracy, v.Accuracy)
	}
	if b.Meter.InputTokens() <= v.Meter.InputTokens() {
		t.Fatal("links did not increase token cost")
	}
}

func TestBoostAddsPseudoLinksAndHelps(t *testing.T) {
	d := testDataset(t, 1000, 300, 29)
	s := NewSimLink(d.Graph, 7)
	base, err := Run(d, s, RunConfig{WithLinks: true, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	boost, err := Run(d, s, RunConfig{WithLinks: true, M: 4, Boost: true, Gamma1: 3})
	if err != nil {
		t.Fatal(err)
	}
	if boost.Rounds < 2 {
		t.Fatalf("boosting ran in %d rounds", boost.Rounds)
	}
	if boost.Accuracy < base.Accuracy-0.03 {
		t.Fatalf("boost %.3f well below base %.3f", boost.Accuracy, base.Accuracy)
	}
}

func TestRunDoesNotMutateDataset(t *testing.T) {
	d := testDataset(t, 500, 100, 31)
	s := NewSimLink(d.Graph, 9)
	before := map[tag.NodeID]int{}
	for v := range d.adj {
		before[v] = len(d.adj[v])
	}
	if _, err := Run(d, s, RunConfig{WithLinks: true, M: 4, Boost: true, Gamma1: 2}); err != nil {
		t.Fatal(err)
	}
	for v, n := range before {
		if len(d.adj[v]) != n {
			t.Fatalf("Run mutated adjacency of %d", v)
		}
	}
}

func TestPairInadequacy(t *testing.T) {
	d := testDataset(t, 800, 150, 37)
	cfg := nn.DefaultMLPConfig()
	cfg.Epochs = 30
	pi, err := FitPairInadequacy(d, 150, 37, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range d.Test[:20] {
		s := pi.Score(d, p)
		if s < 0 || s > 0.5+1e-9 {
			t.Fatalf("pair inadequacy %v out of [0, 0.5]", s)
		}
	}
}

func TestPruneKeepsAccuracyAndCutsTokens(t *testing.T) {
	d := testDataset(t, 1000, 250, 41)
	s := NewSimLink(d.Graph, 11)
	cfg := nn.DefaultMLPConfig()
	cfg.Epochs = 30
	pi, err := FitPairInadequacy(d, 200, 41, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(d, s, RunConfig{WithLinks: true, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Run(d, s, RunConfig{WithLinks: true, M: 4, PruneTau: 0.2, Pruner: pi})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Pruned != 50 {
		t.Fatalf("pruned %d pairs, want 50", pruned.Pruned)
	}
	if pruned.Meter.InputTokens() >= base.Meter.InputTokens() {
		t.Fatal("pruning did not cut tokens")
	}
	if pruned.Accuracy < base.Accuracy-0.06 {
		t.Fatalf("pruning cost too much accuracy: %.3f vs %.3f", pruned.Accuracy, base.Accuracy)
	}
}

func TestRunConfigValidation(t *testing.T) {
	d := testDataset(t, 300, 40, 43)
	s := NewSimLink(d.Graph, 13)
	if _, err := Run(d, s, RunConfig{WithLinks: true}); err == nil {
		t.Fatal("WithLinks without M accepted")
	}
	if _, err := Run(d, s, RunConfig{WithLinks: true, M: 4, PruneTau: 0.2}); err == nil {
		t.Fatal("PruneTau without Pruner accepted")
	}
}

func TestVariantsComplete(t *testing.T) {
	d := testDataset(t, 800, 120, 47)
	s := NewSimLink(d.Graph, 15)
	cfg := nn.DefaultMLPConfig()
	cfg.Epochs = 25
	pi, err := FitPairInadequacy(d, 100, 47, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Variants(d, s, 4, 0.2, 3, pi)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"vanilla", "base", "boost", "prune", "both"} {
		r, ok := out[name]
		if !ok {
			t.Fatalf("variant %s missing", name)
		}
		if r.Accuracy <= 0.4 || r.Accuracy > 1 {
			t.Fatalf("variant %s accuracy %.3f implausible", name, r.Accuracy)
		}
	}
}

// TestAffinityBitIdentical pins the affinity SimLink.Query thresholds
// to one float64 per prompt: the cosine of two class-evidence vectors
// sums in class order, so repeated calls agree bit for bit and a link
// answer cannot flip between runs.
func TestAffinityBitIdentical(t *testing.T) {
	d := testDataset(t, 500, 60, 17)
	s := NewSimLink(d.Graph, 3)
	multi := 0
	for _, pair := range d.Test {
		parsed, err := parseLinkPrompt(d.BuildLinkPrompt(pair, true, 4))
		if err != nil {
			t.Fatal(err)
		}
		if len(s.classEvidence(parsed.textA).Dims) > 1 && len(s.classEvidence(parsed.textB).Dims) > 1 {
			multi++
		}
		want := math.Float64bits(s.affinity(parsed.textA, parsed.textB))
		for i := 0; i < 200; i++ {
			if got := math.Float64bits(s.affinity(parsed.textA, parsed.textB)); got != want {
				t.Fatalf("pair %v: affinity bits %x on call %d, %x on the first", pair, got, i+2, want)
			}
		}
	}
	if multi == 0 {
		t.Fatal("no pair has evidence for several classes on both sides, so summation order is untested")
	}
}
