// Package llm provides the black-box LLM predictor the paper queries.
//
// The paper's pipeline is LLM(t_i, N_i; prompt) -> pseudo-label, with
// the LLM priced per input token and accessed strictly as a black box.
// Offline we replace the network call with a simulated predictor that
// keeps the same contract: it receives only the final prompt string,
// parses it the way a language model reads it (target text, neighbor
// texts, neighbor Category lines, the category list), and scores each
// candidate class by
//
//	score(k) = Wt·targetEvidence(k) + Wn·neighborEvidence(k)
//	         + Wl·labelVotes(k) + bias(k) + temperature·Gumbel
//
// where evidence comes from the model's *noisy* copy of the dataset's
// class-signal vocabulary (its "pretraining knowledge": a fraction of
// word-class associations are forgotten or confused per profile), bias
// is a fixed per-class miscalibration vector, and the Gumbel term makes
// decisions stochastic-but-deterministic — the noise is derived from a
// hash of the prompt itself, so identical prompts always produce
// identical answers (a temperature-0 API with caching) while any change
// to the prompt re-rolls the decision.
//
// Two profiles are calibrated so that vanilla zero-shot accuracy, the
// gain from neighbor text and the gain from neighbor labels land near
// the paper's GPT-3.5-0125 and GPT-4o-mini numbers.
package llm

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/prompt"
	"repro/internal/textgen"
	"repro/internal/token"
	"repro/internal/xrand"
)

// Response is the outcome of one LLM query.
type Response struct {
	Text         string // raw model output, e.g. "Category: ['Theory']"
	Category     string // parsed category
	InputTokens  int
	OutputTokens int
}

// Predictor is the black-box query interface (Eq. 1 of the paper).
// Implementations must derive everything from the prompt text alone.
type Predictor interface {
	Name() string
	Query(promptText string) (Response, error)
}

// Identifier is implemented by predictors that can state their full
// answer-function identity: everything that determines which response
// a given prompt receives. For the simulator that is the profile name
// plus the construction seed — two sims with different seeds answer
// the same prompt differently, so anything keyed on Name alone (such
// as a persistent prompt cache) would serve wrong answers across
// seeds. Predictors that do not implement it are identified by Name.
type Identifier interface {
	Identity() string
}

// IdentityOf returns p's full identity when it exposes one, and its
// Name otherwise.
func IdentityOf(p Predictor) string {
	if id, ok := p.(Identifier); ok {
		return id.Identity()
	}
	return p.Name()
}

// ContextPredictor is implemented by predictors whose queries can be
// canceled mid-flight. The batch executor prefers this path when
// enforcing per-query deadlines: a hung call is abandoned the moment
// its context expires instead of being parked behind a watchdog.
// HTTPPredictor implements it.
type ContextPredictor interface {
	Predictor
	QueryContext(ctx context.Context, promptText string) (Response, error)
}

// Profile parameterizes a simulated model's skill and failure modes.
type Profile struct {
	Name string
	// VocabNoise is the fraction of signal-word associations the model
	// gets wrong: half forgotten, half attributed to a random class.
	VocabNoise float64
	// TargetWeight scales evidence from the target node's own text.
	TargetWeight float64
	// NeighborWeight scales evidence from neighbor texts.
	NeighborWeight float64
	// LabelWeight scales votes from neighbor Category lines.
	LabelWeight float64
	// BiasStd scales the per-class miscalibration vector.
	BiasStd float64
	// Temperature scales the Gumbel decision noise.
	Temperature float64
	// AttentionSpan models attention saturation over neighbor context:
	// the first AttentionSpan neighbors contribute at full weight, and
	// the aggregate neighbor evidence (text and label votes) of longer
	// lists is scaled by AttentionSpan/n. This reproduces the empirical
	// finding that stacking ever more neighbors into a prompt stops
	// helping real LLMs. 0 disables the cap.
	AttentionSpan int
	// Distraction grows the decision noise with the number of neighbor
	// entries: temperature × (1 + Distraction·n). It reproduces the
	// paper's observation that neighbor text "might also introduce
	// noise that impairs the LLM's task performance" (Section VI-C).
	Distraction float64
	// ConflictNoise grows the decision noise with the number of
	// *distinct* neighbor labels beyond the first: conflicting label
	// cues confuse the model rather than being tallied as clean votes.
	// This is the failure mode Algorithm 2's LC_i ≤ γ2 candidate
	// criterion exists to avoid.
	ConflictNoise float64
}

// GPT35 returns the profile calibrated to the paper's default model,
// GPT-3.5-0125.
func GPT35() Profile {
	return Profile{
		Name:           "gpt-3.5",
		VocabNoise:     0.12,
		TargetWeight:   6.0,
		NeighborWeight: 1.1,
		LabelWeight:    1.4,
		BiasStd:        0.55,
		Temperature:    0.75,
		AttentionSpan:  4,
		Distraction:    0.10,
		ConflictNoise:  0.30,
	}
}

// GPT4oMini returns the profile calibrated to GPT-4o-mini, which the
// paper reports as slightly weaker than GPT-3.5 on these benchmarks
// (Table VII).
func GPT4oMini() Profile {
	return Profile{
		Name:           "gpt-4o-mini",
		VocabNoise:     0.18,
		TargetWeight:   6.0,
		NeighborWeight: 1.0,
		LabelWeight:    1.3,
		BiasStd:        0.70,
		Temperature:    0.95,
		AttentionSpan:  4,
		Distraction:    0.12,
		ConflictNoise:  0.35,
	}
}

// Sim is the simulated black-box LLM. It is safe for concurrent use:
// queries read immutable state built by NewSim and mutate only the
// synchronized usage meter. Decisions are keyed by hash(seed, prompt)
// rather than sequential RNG state, so a given prompt receives the same
// answer no matter how many workers issue the batch or in what order —
// the property the concurrent plan executor's determinism rests on.
type Sim struct {
	profile   Profile
	wordClass map[string]string // word -> class name (noisy knowledge)
	bias      map[string]float64
	seed      uint64
	meter     token.Meter
	rec       obs.Recorder
}

// NewSim builds a simulated model whose world knowledge derives from
// the dataset vocabulary with profile-dependent corruption. classes
// maps label index to class name (the names used in prompts).
func NewSim(p Profile, vocab *textgen.Vocabulary, classes []string, seed uint64) *Sim {
	if len(classes) != vocab.Classes() {
		panic(fmt.Sprintf("llm: %d class names for %d vocabulary classes", len(classes), vocab.Classes()))
	}
	root := xrand.New(seed).SplitString("llm/" + p.Name)
	krng := root.SplitString("knowledge")
	s := &Sim{
		profile:   p,
		wordClass: make(map[string]string),
		bias:      make(map[string]float64, len(classes)),
		seed:      seed,
	}
	for k, words := range vocab.Signal {
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

// Name returns the profile name.
func (s *Sim) Name() string { return s.profile.Name }

// Identity implements Identifier: the profile name plus the seed that
// shaped the simulator's noisy knowledge, bias vector and decision
// noise. Persistent caches key on this, so reseeding the sim can never
// replay another seed's answers.
func (s *Sim) Identity() string { return fmt.Sprintf("%s/seed=%d", s.profile.Name, s.seed) }

// Meter exposes cumulative token usage across all queries.
func (s *Sim) Meter() *token.Meter { return &s.meter }

// SetObserver routes this simulator's query metrics (count, errors,
// predict latency) to r instead of the process-default recorder. Call
// it before serving; it must not race with Query.
func (s *Sim) SetObserver(r obs.Recorder) { s.rec = r }

// evidence accumulates, per class name, the normalized fraction of
// known signal words in text, and reports the raw signal-word count.
// Normalizing by total signal hits keeps datasets with different text
// lengths on one evidence scale; callers use the hit count to weigh
// down sparse-signal snippets (a single keyword in a neighbor title is
// weak evidence, not total conviction).
func (s *Sim) evidence(text string) (map[string]float64, float64) {
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
func (s *Sim) Query(promptText string) (Response, error) {
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

// hash is FNV-1a over the prompt text.
func hash(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// MisclassRatios runs the model zero-shot over the given calibration
// texts with known labels and returns, per class, the fraction of its
// nodes the model misclassifies — the paper's w vector (Section V-A).
// It is exposed here because both the core strategy and the harness
// need it. categories is the full class-name list used in prompts.
type Calibration struct {
	// W[k] is the misclassification ratio of class k.
	W []float64
	// Accuracy is overall zero-shot accuracy on the calibration set.
	Accuracy float64
}

// Calibrate executes |texts| vanilla zero-shot queries. texts[i] is the
// (title, abstract) of calibration node i with true label labels[i].
func Calibrate(p Predictor, titles, abstracts []string, labels []int, categories []string, nodeType string) (Calibration, error) {
	if len(titles) != len(labels) || len(abstracts) != len(labels) {
		return Calibration{}, fmt.Errorf("llm: calibration size mismatch")
	}
	k := len(categories)
	wrong := make([]float64, k)
	count := make([]float64, k)
	correct := 0
	for i := range titles {
		pr := prompt.Build(prompt.Request{
			TargetTitle:    titles[i],
			TargetAbstract: abstracts[i],
			Categories:     categories,
			NodeType:       nodeType,
		})
		resp, err := p.Query(pr)
		if err != nil {
			return Calibration{}, err
		}
		y := labels[i]
		count[y]++
		if resp.Category == categories[y] {
			correct++
		} else {
			wrong[y]++
		}
	}
	cal := Calibration{W: make([]float64, k)}
	for c := 0; c < k; c++ {
		if count[c] > 0 {
			cal.W[c] = wrong[c] / count[c]
		}
	}
	if len(titles) > 0 {
		cal.Accuracy = float64(correct) / float64(len(titles))
	}
	return cal, nil
}
