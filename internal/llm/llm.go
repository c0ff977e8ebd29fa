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
	"errors"
	"fmt"
	"slices"
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
// Implementations must derive everything from the prompt text alone,
// and must be safe for concurrent use: the batch executor's workers,
// the replica pool's hedges and the HTTP handler each call one
// Predictor from many goroutines, with no lock around the call.
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
// canceled mid-flight, and that forward the context's trace span and
// ledger to the layers under them. HTTPPredictor implements it. Call
// predictors through Ask, which decides whether a call can be canceled.
type ContextPredictor interface {
	Predictor
	QueryContext(ctx context.Context, promptText string) (Response, error)
}

// Ask queries p with ctx: a ContextPredictor gets ctx, so the call can
// be canceled and can carry the trace onward; any other predictor runs
// Query to completion even after ctx ends. Ask never abandons a call,
// so a hedge loser still finishes and warms its replica's cache; the
// one caller with a deadline (the batch executor's QueryTimeout) keeps
// its own watchdog.
func Ask(ctx context.Context, p Predictor, promptText string) (Response, error) {
	if cp, ok := p.(ContextPredictor); ok {
		return cp.QueryContext(ctx, promptText)
	}
	return p.Query(promptText)
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
	profile Profile
	// names are the distinct class names, in first-appearance order;
	// class maps each to its index, wordClass maps each signal word the
	// model knows to the index of its class (noisy knowledge), and
	// bias[k] is class k's miscalibration.
	names     []string
	class     map[string]int
	wordClass map[string]int32
	bias      []float64
	seed      uint64
	meter     token.Meter
	rec       obs.Recorder
}

// NewSim builds a simulated model whose world knowledge derives from
// the dataset vocabulary with profile-dependent corruption. classes
// maps label index to class name (the names used in prompts). With no
// vocabulary (a snapshot saved without one) the model knows no signal
// words, and its answers rest on its per-class bias and the
// neighbors' labels.
func NewSim(p Profile, vocab *textgen.Vocabulary, classes []string, seed uint64) *Sim {
	var signal [][]string
	if vocab != nil {
		if len(classes) != vocab.Classes() {
			panic(fmt.Sprintf("llm: %d class names for %d vocabulary classes", len(classes), vocab.Classes()))
		}
		signal = vocab.Signal
	}
	root := xrand.New(seed).SplitString("llm/" + p.Name)
	krng := root.SplitString("knowledge")
	s := &Sim{
		profile:   p,
		class:     make(map[string]int, len(classes)),
		wordClass: make(map[string]int32),
		seed:      seed,
	}
	// A class name listed twice is one class, as a prompt's category
	// list reads it.
	index := make([]int32, len(classes))
	for k, c := range classes {
		i, ok := s.class[c]
		if !ok {
			i = len(s.names)
			s.class[c] = i
			s.names = append(s.names, c)
		}
		index[k] = int32(i)
	}
	for k, words := range signal {
		for _, w := range words {
			switch {
			case krng.Float64() < p.VocabNoise/2:
				// Forgotten: the model treats the word as background.
			case krng.Float64() < p.VocabNoise/2:
				// Confused: attributed to a random other class.
				s.wordClass[w] = index[krng.Intn(len(classes))]
			default:
				s.wordClass[w] = index[k]
			}
		}
	}
	brng := root.SplitString("bias")
	s.bias = make([]float64, len(s.names))
	for k := range classes {
		s.bias[index[k]] = p.BiasStd * brng.NormFloat64()
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

// evidence counts the known signal words among the fields of texts
// into counts, by class index, and returns how many there were.
// Callers normalize each class's count by that total, which keeps
// datasets with different text lengths on one evidence scale, and use
// the total to weigh down sparse-signal snippets (a single keyword in a
// neighbor title is weak evidence, not total conviction).
func (s *Sim) evidence(counts []int32, texts ...string) (total int32) {
	clear(counts)
	for _, text := range texts {
		token.ForFields(text, func(w string) {
			if k, ok := s.wordClass[w]; ok {
				counts[k]++
				total++
			}
		})
	}
	return total
}

// Buffers a query's reading keeps on the stack; a prompt with more of
// anything spills that buffer to the heap, with the same answer. 64
// classes hold the largest class list of the shipped datasets
// (ogbn-products, 47), and 16 entries hold four times the neighbors
// the plan path lists by default (M = 4), each with a Title and an
// Abstract line.
const (
	stackClasses   = 64 // classes the simulator knows, and names in the category list
	stackNeighbors = 16 // neighbor entries
	stackTexts     = 2 * stackNeighbors
)

// ErrUnreadablePrompt marks a prompt that does not follow the Table III
// templates: the caller's fault, so a server answers it 400 and no
// client retries it.
var ErrUnreadablePrompt = errors.New("llm: unreadable prompt")

// Query implements Predictor. It fails only on prompts that do not
// follow the Table III templates, with ErrUnreadablePrompt.
//
// It reads the prompt once, with a prompt.Scanner, holding every part
// it needs as a substring in a stack buffer, and counts signal words
// by class in arrays, so scoring a prompt allocates nothing. Each
// category's score is summed in a fixed order, exact integer counts
// turned into the same float64 terms: its bias, the target's
// evidence, each neighbor's text evidence in prompt order, then each
// neighbor label's vote.
func (s *Sim) Query(promptText string) (Response, error) {
	rec := obs.Active(s.rec)
	live := obs.Enabled(rec)
	var start time.Time
	if live {
		start = time.Now()
	}

	var catBuf [stackClasses]string
	var textBuf [stackTexts]string
	var endBuf [stackNeighbors]int
	var labelBuf [stackNeighbors]string
	var title, abstract string
	cats, texts, ends, labels := catBuf[:0], textBuf[:0], endBuf[:0], labelBuf[:0]
	sc := prompt.NewScanner(promptText)
	for sc.Scan() {
		switch sc.Part() {
		case prompt.TargetTitle:
			title = sc.Text()
		case prompt.TargetAbstract:
			abstract = sc.Text()
		case prompt.NeighborText:
			texts = append(texts, sc.Text())
		case prompt.NeighborEnd:
			ends = append(ends, len(texts))
			labels = append(labels, sc.Text())
		case prompt.Category:
			cats = append(cats, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		rec.Add("mqo_sim_errors_total", 1)
		return Response{}, fmt.Errorf("%w: %w", ErrUnreadablePrompt, err)
	}

	// Each category scores into the slot of its name's first listing;
	// slotOf[k] is the slot of known class k, or -1 when unlisted.
	var slotBuf [stackClasses]int
	var scoreBuf [stackClasses]float64
	var slotOfBuf [stackClasses]int
	var countBuf [stackClasses]int32
	slot, scores, slotOf, counts := slotBuf[:0], scoreBuf[:0], slotOfBuf[:0], countBuf[:0]
	for range s.names {
		slotOf, counts = append(slotOf, -1), append(counts, 0)
	}
	for i, c := range cats {
		j, score := i, 0.0
		if k, ok := s.class[c]; !ok {
			// A name the simulator does not know scores 0 wherever it
			// is listed.
			j = slices.Index(cats[:i], c)
			if j < 0 {
				j = i
			}
		} else if slotOf[k] >= 0 {
			j = slotOf[k]
		} else {
			slotOf[k], score = i, s.bias[k]
		}
		slot = append(slot, j)
		scores = append(scores, score)
	}
	slotFor := func(c string) int {
		if i := slices.Index(cats, c); i >= 0 {
			return slot[i]
		}
		return -1
	}

	// Target text evidence.
	if hits := s.evidence(counts, title, abstract); hits > 0 {
		for k, n := range counts {
			if j := slotOf[k]; n > 0 && j >= 0 {
				scores[j] += s.profile.TargetWeight * (float64(n) / float64(hits))
			}
		}
	}
	// Attention saturation: long neighbor lists contribute at a scaled
	// aggregate weight rather than growing without bound.
	nNeighbors := len(ends)
	neighborScale := 1.0
	if span := s.profile.AttentionSpan; span > 0 && nNeighbors > span {
		neighborScale = float64(span) / float64(nNeighbors)
	}
	// Neighbor text evidence, weighted by signal density: a snippet
	// with few recognizable keywords carries proportionally weaker
	// conviction.
	from := 0
	for _, end := range ends {
		hits := float64(s.evidence(counts, texts[from:end]...))
		from = end
		if hits == 0 {
			continue
		}
		density := hits / (hits + 2)
		for k, n := range counts {
			if j := slotOf[k]; n > 0 && j >= 0 {
				scores[j] += s.profile.NeighborWeight * neighborScale * density * (float64(n) / hits)
			}
		}
	}
	// Neighbor label votes, and how many distinct labels conflict.
	distinct := 0
	for i, label := range labels {
		if label == "" {
			continue
		}
		if j := slotFor(label); j >= 0 {
			scores[j] += s.profile.LabelWeight * neighborScale
		}
		if !slices.Contains(labels[:i], label) {
			distinct++
		}
	}

	// Deterministic decision noise keyed by the prompt content. Longer
	// neighbor context distracts, and conflicting neighbor labels
	// confuse more than they inform.
	conflicts := 0
	if distinct > 1 {
		conflicts = distinct - 1
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
	best, bestScore := -1, 0.0
	for i := range cats { // iterate in prompt order: deterministic
		sc := scores[slot[i]] + temperature*nrng.Gumbel()
		if best < 0 || sc > bestScore {
			best, bestScore = i, sc
		}
	}

	// The category is a substring of promptText; the answer carries the
	// simulator's own copy of the name, or a clone of one it does not
	// know, so whoever keeps the answer does not pin the whole prompt.
	var category string
	if k, ok := s.class[cats[best]]; ok {
		category = s.names[k]
	} else {
		category = strings.Clone(cats[best])
	}
	out := prompt.FormatResponse(category)
	resp := Response{
		Text:         out,
		Category:     category,
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
