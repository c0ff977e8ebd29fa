package llm

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/prompt"
	"repro/internal/tag"
	"repro/internal/textgen"
	"repro/internal/token"
	"repro/internal/xrand"
)

// refSim is the simulator before it read prompts in one pass, its
// construction, evidence and Query kept verbatim apart from names: it
// parsed each prompt into strings, split every text again with
// strings.Fields and scored classes through per-call maps.
type refSim struct {
	profile   Profile
	wordClass map[string]string // word -> class name (noisy knowledge)
	bias      map[string]float64
	seed      uint64
	meter     token.Meter
	rec       obs.Recorder
}

func newRefSim(p Profile, vocab *textgen.Vocabulary, classes []string, seed uint64) *refSim {
	var signal [][]string
	if vocab != nil {
		if len(classes) != vocab.Classes() {
			panic(fmt.Sprintf("llm: %d class names for %d vocabulary classes", len(classes), vocab.Classes()))
		}
		signal = vocab.Signal
	}
	root := xrand.New(seed).SplitString("llm/" + p.Name)
	krng := root.SplitString("knowledge")
	s := &refSim{
		profile:   p,
		wordClass: make(map[string]string),
		bias:      make(map[string]float64, len(classes)),
		seed:      seed,
	}
	for k, words := range signal {
		for _, w := range words {
			switch {
			case krng.Float64() < p.VocabNoise/2:
				// Forgotten: the model treats the word as background.
			case krng.Float64() < p.VocabNoise/2:
				// Confused: attributed to a random other class.
				s.wordClass[w] = classes[krng.Intn(len(classes))]
			default:
				s.wordClass[w] = classes[k]
			}
		}
	}
	brng := root.SplitString("bias")
	for _, c := range classes {
		s.bias[c] = p.BiasStd * brng.NormFloat64()
	}
	return s
}

// evidence accumulates, per class name, the normalized fraction of
// known signal words in text, and reports the raw signal-word count.
// Normalizing by total signal hits keeps datasets with different text
// lengths on one evidence scale; callers use the hit count to weigh
// down sparse-signal snippets (a single keyword in a neighbor title is
// weak evidence, not total conviction).
func (s *refSim) evidence(text string) (map[string]float64, float64) {
	counts := make(map[string]float64)
	var total float64
	for _, w := range strings.Fields(text) {
		if c, ok := s.wordClass[w]; ok {
			counts[c]++
			total++
		}
	}
	if total == 0 {
		return counts, 0
	}
	out := make(map[string]float64, len(counts))
	for c, n := range counts {
		out[c] = n / total
	}
	return out, total
}

// Query implements Predictor. It fails only on prompts that do not
// follow the Table III templates.
func (s *refSim) Query(promptText string) (Response, error) {
	rec := obs.Active(s.rec)
	live := obs.Enabled(rec)
	var start time.Time
	if live {
		start = time.Now()
	}
	parsed, err := prompt.Parse(promptText)
	if err != nil {
		rec.Add("mqo_sim_errors_total", 1)
		return Response{}, fmt.Errorf("llm: unreadable prompt: %w", err)
	}
	scores := make(map[string]float64, len(parsed.Categories))
	for _, c := range parsed.Categories {
		scores[c] = s.bias[c]
	}

	// Target text evidence.
	targetEv, _ := s.evidence(parsed.TargetText)
	for c, v := range targetEv {
		if _, ok := scores[c]; ok {
			scores[c] += s.profile.TargetWeight * v
		}
	}
	// Attention saturation: long neighbor lists contribute at a scaled
	// aggregate weight rather than growing without bound.
	nNeighbors := len(parsed.NeighborTexts)
	neighborScale := 1.0
	if span := s.profile.AttentionSpan; span > 0 && nNeighbors > span {
		neighborScale = float64(span) / float64(nNeighbors)
	}
	// Neighbor text evidence, weighted by signal density: a snippet
	// with few recognizable keywords carries proportionally weaker
	// conviction.
	for _, nb := range parsed.NeighborTexts {
		ev, hits := s.evidence(nb)
		density := hits / (hits + 2)
		for c, v := range ev {
			if _, ok := scores[c]; ok {
				scores[c] += s.profile.NeighborWeight * neighborScale * density * v
			}
		}
	}
	// Neighbor label votes.
	for _, label := range parsed.NeighborLabels {
		if label == "" {
			continue
		}
		if _, ok := scores[label]; ok {
			scores[label] += s.profile.LabelWeight * neighborScale
		}
	}

	// Deterministic decision noise keyed by the prompt content. Longer
	// neighbor context distracts, and conflicting neighbor labels
	// confuse more than they inform.
	distinct := map[string]bool{}
	for _, label := range parsed.NeighborLabels {
		if label != "" {
			distinct[label] = true
		}
	}
	conflicts := 0
	if len(distinct) > 1 {
		conflicts = len(distinct) - 1
	}
	// Entries past the attention span are skimmed, not read: they
	// neither contribute evidence at full weight nor distract.
	attended := nNeighbors
	if span := s.profile.AttentionSpan; span > 0 && attended > span {
		attended = span
	}
	temperature := s.profile.Temperature *
		(1 + s.profile.Distraction*float64(attended) + s.profile.ConflictNoise*float64(conflicts))
	nrng := xrand.New(s.seed ^ hash(promptText)).SplitString("decision")
	best, bestScore := "", 0.0
	for _, c := range parsed.Categories { // iterate in prompt order: deterministic
		sc := scores[c] + temperature*nrng.Gumbel()
		if best == "" || sc > bestScore {
			best, bestScore = c, sc
		}
	}

	out := prompt.FormatResponse(best)
	// best is a substring of promptText (Parse slices the category list
	// out of it); the answer carries a copy, so whoever keeps the answer
	// does not pin the whole prompt.
	resp := Response{
		Text:         out,
		Category:     strings.Clone(best),
		InputTokens:  token.Count(promptText),
		OutputTokens: token.Count(out),
	}
	s.meter.AddQuery(resp.InputTokens, resp.OutputTokens)
	if live {
		rec.Add("mqo_sim_queries_total", 1)
		rec.Observe("mqo_sim_predict_duration_seconds", time.Since(start).Seconds())
	}
	return resp, nil
}

// sameAnswer fails unless the simulator and the reference answer p
// alike: the same response, or the same error text.
func sameAnswer(t *testing.T, label string, s *Sim, ref *refSim, p string) {
	t.Helper()
	got, err := s.Query(p)
	want, wantErr := ref.Query(p)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%s: error %v, reference %v\n%s", label, err, wantErr, p)
	}
	if got != want {
		t.Fatalf("%s: answer %+v, reference %+v\n%s", label, got, want, p)
	}
}

// simPair builds the simulator and the reference from the same inputs.
func simPair(p Profile, vocab *textgen.Vocabulary, classes []string, seed uint64) (*Sim, *refSim) {
	return NewSim(p, vocab, classes, seed), newRefSim(p, vocab, classes, seed)
}

// testProfiles are the calibrated profiles and one with no attention
// span and no bias, whose zero biases carry a sign.
func testProfiles() []Profile {
	flat := GPT35()
	flat.Name, flat.AttentionSpan, flat.BiasStd = "flat", 0, 0
	return []Profile{GPT35(), GPT4oMini(), flat}
}

// TestSimMatchesReference pins Sim.Query to refSim on every prompt of
// the shipped datasets: every node of a 120-node graph with 0–6
// neighbors, some labeled (some with the wrong class), with or without
// abstracts, as built and compressed at each level, under each test
// profile. Answers, token counts and error text must be identical.
func TestSimMatchesReference(t *testing.T) {
	prompts := 0
	for _, name := range []string{"cora", "citeseer", "pubmed", "ogbn-arxiv", "ogbn-products"} {
		spec, err := tag.SmallSpec(name, 120)
		if err != nil {
			t.Fatal(err)
		}
		g := tag.Generate(spec, 7, tag.Options{})
		for pi, prof := range testProfiles() {
			s, ref := simPair(prof, g.Vocab, g.Classes, uint64(11+pi))
			for v := 0; v < g.NumNodes(); v++ {
				id := tag.NodeID(v)
				r := prompt.Request{
					TargetTitle:    g.Title(id),
					TargetAbstract: g.Abstract(id),
					Categories:     g.Classes,
					Ranked:         v%3 == 0,
				}
				for k := 0; k < v%7; k++ {
					u := tag.NodeID((v + 13*k + 1) % g.NumNodes())
					nb := prompt.Neighbor{Title: g.Title(u)}
					if (v+k)%2 == 0 {
						nb.Abstract = g.Abstract(u)
					}
					switch (v + k) % 4 {
					case 1:
						nb.Label = g.Classes[g.Nodes[u].Label]
					case 2:
						nb.Label = g.Classes[(g.Nodes[u].Label+1)%len(g.Classes)]
					}
					r.Neighbors = append(r.Neighbors, nb)
				}
				p := prompt.Build(r)
				label := fmt.Sprintf("%s %s node %d", name, prof.Name, v)
				sameAnswer(t, label, s, ref, p)
				for level := 1; level <= prompt.MaxCompressLevel; level++ {
					sameAnswer(t, fmt.Sprintf("%s level %d", label, level), s, ref, prompt.Compressor{Level: level}.Compress(p))
				}
				// The same query with its categories listed twice, the
				// second time in reverse and beside one the simulator
				// does not know.
				rev := slices.Clone(g.Classes)
				slices.Reverse(rev)
				r.Categories = append(append(slices.Clone(g.Classes), "Unlisted"), rev...)
				sameAnswer(t, label+" listed twice", s, ref, prompt.Build(r))
				prompts += 2 + prompt.MaxCompressLevel
			}
			if s.Meter().InputTokens() != ref.meter.InputTokens() || s.Meter().Queries() != ref.meter.Queries() {
				t.Fatalf("%s %s: meters differ", name, prof.Name)
			}
		}
	}
	t.Logf("%d calibration prompts answered as the reference answers them", prompts)
}

// TestSimMatchesReferenceOnEdgePrompts pins Sim.Query to refSim where
// its reading takes its less travelled paths: unreadable prompts
// (today's error text), duplicate categories, categories and labels
// the simulator does not know (one listed twice and voted for), non-ASCII words and the Kelvin sign,
// odd whitespace, entries with several text and Category lines, more
// categories, entries and lines than its stack buffers hold, and
// simulators with duplicate class names or more classes than a stack
// buffer holds.
func TestSimMatchesReferenceOnEdgePrompts(t *testing.T) {
	spec, err := tag.SmallSpec("cora", 80)
	if err != nil {
		t.Fatal(err)
	}
	g := tag.Generate(spec, 5, tag.Options{})
	cls := g.Classes
	word := func(k, i int) string { return g.Vocab.Signal[k][i%len(g.Vocab.Signal[k])] }
	text := func(k int) string {
		return word(k, 0) + " of " + word(k, 1) + " and " + word((k+1)%len(cls), 2) + " " + word(k, 3) + "."
	}
	many := func(n int) []prompt.Neighbor {
		var nbs []prompt.Neighbor
		for i := 0; i < n; i++ {
			nbs = append(nbs, prompt.Neighbor{Title: text(i % len(cls)), Abstract: text((i + 2) % len(cls)), Label: cls[(i*5)%len(cls)]})
		}
		return nbs
	}
	manyCats := append([]string{}, cls...)
	for i := 0; len(manyCats) < 24; i++ {
		manyCats = append(manyCats, fmt.Sprintf("Extra%d", i))
	}
	build := func(r prompt.Request) string {
		if r.Categories == nil {
			r.Categories = cls
		}
		return prompt.Build(r)
	}
	kelvin := strings.ReplaceAll(word(0, 0), "k", "\u212a")
	prompts := []string{
		"", "garbage", "Target paper", "Target paper: Title: t ",
		"Target paper: Title: t \nAbstract: a \nstray line",
		"Target paper: Title: t \nAbstract: a \nNeighbor Paper0: {{\nTitle: u ",
		"Target paper: Title: t \nAbstract: a ",
		"Target paper: Title: t \nAbstract: a \nTask: \n",
		"Target paper: Title: t \nAbstract: a \nTask: \nCategories: \n",
		"Target paper: Title: t \nAbstract: a \nTask: \nCategories: \n[ , ]",
		build(prompt.Request{TargetTitle: text(0), TargetAbstract: text(1), Categories: []string{cls[1], cls[0], cls[1], cls[0]}}),
		build(prompt.Request{TargetTitle: text(2), Categories: []string{"Unknown", cls[2], "Other"},
			Neighbors: []prompt.Neighbor{{Title: text(2), Label: "Unknown"}, {Title: text(1), Label: "Stranger"}, {Title: "x", Label: cls[2]}}}),
		build(prompt.Request{TargetTitle: "caf\u00e9 na\u00efve " + text(0), TargetAbstract: kelvin + " li\u212aely " + strings.ToUpper(text(1)) + " \u212a\u212a \u00e9t\u00e9",
			Neighbors: []prompt.Neighbor{{Title: kelvin + " " + text(3), Abstract: "\u0663\u0664 12345 " + text(3)}}}),
		build(prompt.Request{TargetTitle: text(1), TargetAbstract: text(0), Neighbors: many(40), Categories: manyCats, Ranked: true}),
		build(prompt.Request{TargetTitle: text(1), Neighbors: many(3), NodeType: "Product", EdgeRelation: "co-purchase"}),
		"Target paper: Title:   " + text(0) + "\t\u00a0" + text(1) + " \nAbstract: \u2003" + text(2) + "\n\n" +
			"Target paper has the following important neighbors, from most related to least related:\n" +
			"Neighbor Paper0: {{\nCategory: " + cls[0] + " \nTitle: " + text(0) + "\nAbstract: " + text(1) + " \nTitle: " + text(1) +
			"\nnoise line\nCategory: " + cls[1] + " \n}}\n\nNeighbor Paper1: {{\n}}\nNeighbor Paper2: {{\nCategory: \n}}\n" +
			"Task: \nCategories: \n[" + cls[0] + ", , " + cls[1] + ",  " + cls[2] + " ]\ntrailing",
	}
	dup := append([]string{}, cls...)
	dup[1] = dup[0]
	wide := make([]string, 70)
	for i := range wide {
		wide[i] = fmt.Sprintf("Class%d", i)
	}
	// A name the simulator does not know, listed twice and voted for by
	// neighbor labels, against known classes: which listing's noise
	// wins varies with the target text.
	for i := 0; i < 60; i++ {
		prompts = append(prompts, build(prompt.Request{TargetTitle: text(i % len(cls)), TargetAbstract: word(i%len(cls), i) + " " + text((i+1)%len(cls)),
			Categories: []string{"Mystery", cls[i%len(cls)], "Mystery", cls[(i+1)%len(cls)]},
			Neighbors:  []prompt.Neighbor{{Title: text(0), Label: "Mystery"}, {Title: text(1), Label: "Mystery"}}}))
	}
	widePrompt := build(prompt.Request{TargetTitle: text(0), Categories: wide,
		Neighbors: []prompt.Neighbor{{Title: "a", Label: wide[69]}, {Title: "b", Label: wide[3]}, {Title: "c", Label: wide[69]}}})
	for pi, prof := range testProfiles() {
		for _, sims := range []struct {
			name    string
			vocab   *textgen.Vocabulary
			classes []string
		}{{"graph", g.Vocab, cls}, {"duplicate names", g.Vocab, dup}, {"no vocabulary", nil, cls}, {"70 classes", nil, wide}} {
			s, ref := simPair(prof, sims.vocab, sims.classes, uint64(3+pi))
			for i, p := range append(prompts, widePrompt) {
				sameAnswer(t, fmt.Sprintf("%s, %s sim, prompt %d", prof.Name, sims.name, i), s, ref, p)
			}
		}
	}
}

// TestSimScoresWithoutAllocating: beyond its answer's text, a query
// allocates nothing — its decision RNG stays on the stack — on the
// shipped dataset with the most classes (ogbn-products, 47) as on cora.
func TestSimScoresWithoutAllocating(t *testing.T) {
	for _, name := range []string{"cora", "ogbn-products"} {
		spec, err := tag.SmallSpec(name, 200)
		if err != nil {
			t.Fatal(err)
		}
		g := tag.Generate(spec, 101, tag.Options{})
		s := NewSim(GPT35(), g.Vocab, g.Classes, 1)
		r := prompt.Request{TargetTitle: g.Title(0), TargetAbstract: g.Abstract(0), Categories: g.Classes, Ranked: true}
		for u := tag.NodeID(1); u <= 4; u++ {
			r.Neighbors = append(r.Neighbors, prompt.Neighbor{Title: g.Title(u), Abstract: g.Abstract(u), Label: g.Classes[g.Nodes[u].Label]})
		}
		p := prompt.Build(r)
		if allocs := testing.AllocsPerRun(50, func() {
			if _, err := s.Query(p); err != nil {
				t.Fatal(err)
			}
		}); allocs > 1 {
			t.Fatalf("%s: a query allocates %.1f times, want at most 1", name, allocs)
		}
	}
}
