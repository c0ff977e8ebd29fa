package llm

import (
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/prompt"
	"repro/internal/tag"
	"repro/internal/textgen"
	"repro/internal/xrand"
)

func testGraph(t testing.TB, nodes int) (*tag.Graph, tag.Spec) {
	t.Helper()
	spec, err := tag.SmallSpec("cora", nodes)
	if err != nil {
		t.Fatal(err)
	}
	return tag.Generate(spec, 101, tag.Options{}), spec
}

func buildVanilla(g *tag.Graph, v tag.NodeID) string {
	return prompt.Build(prompt.Request{
		TargetTitle:    g.Title(v),
		TargetAbstract: g.Abstract(v),
		Categories:     g.Classes,
	})
}

func TestQueryDeterministic(t *testing.T) {
	g, _ := testGraph(t, 300)
	sim := NewSim(GPT35(), g.Vocab, g.Classes, 7)
	p := buildVanilla(g, 0)
	r1, err := sim.Query(p)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sim.Query(p)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Category != r2.Category {
		t.Fatalf("identical prompts answered differently: %q vs %q", r1.Category, r2.Category)
	}
}

func TestQueryReturnsValidCategory(t *testing.T) {
	g, _ := testGraph(t, 300)
	sim := NewSim(GPT35(), g.Vocab, g.Classes, 7)
	valid := map[string]bool{}
	for _, c := range g.Classes {
		valid[c] = true
	}
	for v := tag.NodeID(0); v < 50; v++ {
		r, err := sim.Query(buildVanilla(g, v))
		if err != nil {
			t.Fatal(err)
		}
		if !valid[r.Category] {
			t.Fatalf("predicted unknown category %q", r.Category)
		}
		if got, err := prompt.ParseResponse(r.Text); err != nil || got != r.Category {
			t.Fatalf("response text %q does not parse back to %q", r.Text, r.Category)
		}
		if r.InputTokens <= 0 || r.OutputTokens <= 0 {
			t.Fatalf("token counts not positive: %+v", r)
		}
	}
}

// TestQueryCategoryDoesNotAliasPrompt: the answer's category must not
// share the prompt's memory, or every kept answer pins its whole
// prompt (a few KB each) for as long as the answer lives.
func TestQueryCategoryDoesNotAliasPrompt(t *testing.T) {
	g, _ := testGraph(t, 300)
	sim := NewSim(GPT35(), g.Vocab, g.Classes, 7)
	p := buildVanilla(g, 0)
	r, err := sim.Query(p)
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(p)))
	hi := lo + uintptr(len(p))
	if c := uintptr(unsafe.Pointer(unsafe.StringData(r.Category))); c >= lo && c < hi {
		t.Fatalf("category %q points into the prompt's bytes", r.Category)
	}
}

func TestQueryRejectsGarbage(t *testing.T) {
	g, _ := testGraph(t, 50)
	sim := NewSim(GPT35(), g.Vocab, g.Classes, 7)
	if _, err := sim.Query("tell me a joke"); err == nil {
		t.Fatal("expected error on malformed prompt")
	}
}

func TestMeterAccumulates(t *testing.T) {
	g, _ := testGraph(t, 100)
	sim := NewSim(GPT35(), g.Vocab, g.Classes, 7)
	for v := tag.NodeID(0); v < 10; v++ {
		if _, err := sim.Query(buildVanilla(g, v)); err != nil {
			t.Fatal(err)
		}
	}
	if sim.Meter().Queries() != 10 {
		t.Fatalf("meter queries = %d, want 10", sim.Meter().Queries())
	}
	if sim.Meter().InputTokens() == 0 {
		t.Fatal("meter recorded no input tokens")
	}
}

// Zero-shot accuracy must track the dataset's saturated fraction: this
// is the calibration contract that makes Table V's τ estimate work.
func TestZeroShotAccuracyNearSaturatedFraction(t *testing.T) {
	spec, err := tag.SmallSpec("cora", 1200)
	if err != nil {
		t.Fatal(err)
	}
	g := tag.Generate(spec, 5, tag.Options{})
	sim := NewSim(GPT35(), g.Vocab, g.Classes, 11)
	correct := 0
	n := 400
	for v := tag.NodeID(0); v < tag.NodeID(n); v++ {
		r, err := sim.Query(buildVanilla(g, v))
		if err != nil {
			t.Fatal(err)
		}
		if r.Category == g.Classes[g.Nodes[v].Label] {
			correct++
		}
	}
	acc := float64(correct) / float64(n)
	if acc < spec.SaturatedFrac-0.15 || acc > spec.SaturatedFrac+0.15 {
		t.Fatalf("zero-shot accuracy %.3f too far from target %.3f", acc, spec.SaturatedFrac)
	}
}

// Saturated (low-ambiguity) nodes must be classified correctly far more
// often than ambiguous nodes, and label-noise nodes — whose text reads
// as another class — must be essentially unclassifiable. Definition 2
// made measurable, per population.
func TestSaturationSeparatesAccuracy(t *testing.T) {
	g, _ := testGraph(t, 1200)
	sim := NewSim(GPT35(), g.Vocab, g.Classes, 13)
	var satCorrect, satN, ambCorrect, ambN, noisyCorrect, noisyN int
	for v := tag.NodeID(0); v < 600; v++ {
		r, err := sim.Query(buildVanilla(g, v))
		if err != nil {
			t.Fatal(err)
		}
		ok := r.Category == g.Classes[g.Nodes[v].Label]
		switch {
		case g.Nodes[v].Noisy:
			noisyN++
			if ok {
				noisyCorrect++
			}
		case g.Nodes[v].Ambiguity < 0.3:
			satN++
			if ok {
				satCorrect++
			}
		default:
			ambN++
			if ok {
				ambCorrect++
			}
		}
	}
	satAcc := float64(satCorrect) / float64(satN)
	ambAcc := float64(ambCorrect) / float64(ambN)
	if satAcc < ambAcc+0.2 {
		t.Fatalf("saturated accuracy %.3f not well above ambiguous %.3f", satAcc, ambAcc)
	}
	if satAcc < 0.85 {
		t.Fatalf("saturated accuracy %.3f too low", satAcc)
	}
	// Ambiguous 50/50 pairs should be near a coin flip, not solvable.
	if ambAcc < 0.25 || ambAcc > 0.75 {
		t.Fatalf("ambiguous accuracy %.3f, want coin-flip-ish", ambAcc)
	}
	if noisyN > 0 {
		if noisyAcc := float64(noisyCorrect) / float64(noisyN); noisyAcc > 0.25 {
			t.Fatalf("label-noise accuracy %.3f, want near zero", noisyAcc)
		}
	}
}

// Correct neighbor labels must lift accuracy on ambiguous nodes — the
// homophily mechanism behind query boosting.
func TestNeighborLabelsBoostAmbiguousNodes(t *testing.T) {
	g, _ := testGraph(t, 1200)
	sim := NewSim(GPT35(), g.Vocab, g.Classes, 17)

	run := func(withLabels bool) float64 {
		correct, n := 0, 0
		for v := tag.NodeID(0); v < 900 && n < 250; v++ {
			if g.Nodes[v].Ambiguity < 0.5 {
				continue
			}
			n++
			// Two synthetic same-class neighbors (homophily).
			var nbs []prompt.Neighbor
			rng := xrand.New(uint64(v) + 99)
			for j := 0; j < 2; j++ {
				title, _ := g.Vocab.Generate(rng, g.Nodes[v].Label, 0.1, sampleTextCfg())
				nb := prompt.Neighbor{Title: title}
				if withLabels {
					nb.Label = g.Classes[g.Nodes[v].Label]
				}
				nbs = append(nbs, nb)
			}
			p := prompt.Build(prompt.Request{
				TargetTitle:    g.Title(v),
				TargetAbstract: g.Abstract(v),
				Neighbors:      nbs,
				Categories:     g.Classes,
			})
			r, err := sim.Query(p)
			if err != nil {
				t.Fatal(err)
			}
			if r.Category == g.Classes[g.Nodes[v].Label] {
				correct++
			}
		}
		return float64(correct) / float64(n)
	}

	withL := run(true)
	withoutL := run(false)
	if withL <= withoutL {
		t.Fatalf("labels did not help: with %.3f, without %.3f", withL, withoutL)
	}
}

func sampleTextCfg() textgen.TextConfig {
	return textgen.TextConfig{TitleWords: 10, AbstractWords: 1, TitleSignal: 0.55}
}

// Neighbor text from same-class neighbors must help ambiguous nodes
// even without labels (the unique/synergistic information of Eq. 5).
func TestNeighborTextBoostsAmbiguousNodes(t *testing.T) {
	g, _ := testGraph(t, 1200)
	sim := NewSim(GPT35(), g.Vocab, g.Classes, 19)

	run := func(withNeighbors bool) float64 {
		correct, n := 0, 0
		for v := tag.NodeID(0); v < 900 && n < 250; v++ {
			if g.Nodes[v].Ambiguity < 0.5 {
				continue
			}
			n++
			req := prompt.Request{
				TargetTitle:    g.Title(v),
				TargetAbstract: g.Abstract(v),
				Categories:     g.Classes,
			}
			if withNeighbors {
				rng := xrand.New(uint64(v) + 7)
				for j := 0; j < 4; j++ {
					title, abs := g.Vocab.Generate(rng, g.Nodes[v].Label, 0.15, sampleFullCfg())
					req.Neighbors = append(req.Neighbors, prompt.Neighbor{Title: title + " " + abs})
				}
			}
			r, err := sim.Query(prompt.Build(req))
			if err != nil {
				t.Fatal(err)
			}
			if r.Category == g.Classes[g.Nodes[v].Label] {
				correct++
			}
		}
		return float64(correct) / float64(n)
	}
	with := run(true)
	without := run(false)
	if with <= without+0.05 {
		t.Fatalf("neighbor text gain too small: with %.3f, without %.3f", with, without)
	}
}

func sampleFullCfg() textgen.TextConfig {
	return textgen.TextConfig{TitleWords: 10, AbstractWords: 30, TitleSignal: 0.55, AbstractSig: 0.4}
}

func TestProfilesDiffer(t *testing.T) {
	g, _ := testGraph(t, 800)
	s35 := NewSim(GPT35(), g.Vocab, g.Classes, 31)
	s4o := NewSim(GPT4oMini(), g.Vocab, g.Classes, 31)
	agree, n := 0, 300
	for v := tag.NodeID(0); v < tag.NodeID(n); v++ {
		p := buildVanilla(g, v)
		r1, err := s35.Query(p)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := s4o.Query(p)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Category == r2.Category {
			agree++
		}
	}
	if agree == n {
		t.Fatal("different profiles produced identical predictions on all prompts")
	}
}

// GPT-3.5 should outperform GPT-4o-mini zero-shot on this benchmark, as
// the paper reports (Table VII).
func TestProfileOrdering(t *testing.T) {
	g, _ := testGraph(t, 1500)
	s35 := NewSim(GPT35(), g.Vocab, g.Classes, 37)
	s4o := NewSim(GPT4oMini(), g.Vocab, g.Classes, 37)
	acc := func(s *Sim) float64 {
		correct, n := 0, 500
		for v := tag.NodeID(0); v < tag.NodeID(n); v++ {
			r, err := s.Query(buildVanilla(g, v))
			if err != nil {
				t.Fatal(err)
			}
			if r.Category == g.Classes[g.Nodes[v].Label] {
				correct++
			}
		}
		return float64(correct) / float64(n)
	}
	a35, a4o := acc(s35), acc(s4o)
	if a35 <= a4o-0.02 {
		t.Fatalf("gpt-3.5 (%.3f) should not trail gpt-4o-mini (%.3f)", a35, a4o)
	}
}

func TestBiasVectorStable(t *testing.T) {
	g, _ := testGraph(t, 100)
	a := NewSim(GPT35(), g.Vocab, g.Classes, 41)
	b := NewSim(GPT35(), g.Vocab, g.Classes, 41)
	for _, c := range g.Classes {
		if a.bias[a.class[c]] != b.bias[b.class[c]] {
			t.Fatal("bias vector not deterministic")
		}
	}
}

func TestPromptPerturbationCanChangeAnswer(t *testing.T) {
	// The decision noise is keyed by the prompt; at least one of many
	// single-word perturbations should flip some answer, showing the
	// noise is actually content-dependent.
	g, _ := testGraph(t, 600)
	sim := NewSim(GPT35(), g.Vocab, g.Classes, 43)
	flipped := false
	for v := tag.NodeID(0); v < 200 && !flipped; v++ {
		p := buildVanilla(g, v)
		r1, err := sim.Query(p)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := sim.Query(strings.Replace(p, "Title: ", "Title: the ", 1))
		if err != nil {
			t.Fatal(err)
		}
		if r1.Category != r2.Category {
			flipped = true
		}
	}
	if !flipped {
		t.Fatal("no perturbation changed any answer; noise appears prompt-independent")
	}
}

func TestSimOrderIndependentUnderConcurrency(t *testing.T) {
	// The concurrency tentpole relies on Sim keying every decision on
	// hash(seed, prompt), never on call order: a serial pass and a
	// scrambled concurrent pass over the same prompts must agree
	// prediction-for-prediction and token-for-token.
	g, _ := testGraph(t, 300)
	prompts := make([]string, 60)
	for i := range prompts {
		prompts[i] = buildVanilla(g, tag.NodeID(i))
	}

	serial := NewSim(GPT35(), g.Vocab, g.Classes, 7)
	want := make([]Response, len(prompts))
	for i, p := range prompts {
		r, err := serial.Query(p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	concurrent := NewSim(GPT35(), g.Vocab, g.Classes, 7)
	got := make([]Response, len(prompts))
	var wg sync.WaitGroup
	errs := make(chan error, len(prompts))
	// Reverse order across 8 goroutines to scramble scheduling.
	sem := make(chan struct{}, 8)
	for i := len(prompts) - 1; i >= 0; i-- {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			r, err := concurrent.Query(prompts[i])
			if err != nil {
				errs <- err
				return
			}
			got[i] = r
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for i := range prompts {
		if got[i].Category != want[i].Category {
			t.Fatalf("prompt %d: concurrent category %q != serial %q", i, got[i].Category, want[i].Category)
		}
		if got[i].InputTokens != want[i].InputTokens || got[i].OutputTokens != want[i].OutputTokens {
			t.Fatalf("prompt %d: concurrent usage (%d,%d) != serial (%d,%d)", i,
				got[i].InputTokens, got[i].OutputTokens, want[i].InputTokens, want[i].OutputTokens)
		}
	}
	if concurrent.Meter().Total() != serial.Meter().Total() {
		t.Fatalf("meter totals differ: concurrent %d != serial %d",
			concurrent.Meter().Total(), serial.Meter().Total())
	}
}
