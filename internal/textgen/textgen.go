// Package textgen synthesizes class-conditional node text for
// text-attributed graphs.
//
// The paper's datasets attach a title and an abstract (or a product
// description) to every node; the text of a node carries a variable
// amount of information about its class. This package reproduces that
// property synthetically: each class owns a vocabulary of signal words,
// all classes share a large background vocabulary, and each node has an
// "ambiguity" level in [0, 1] that controls how much of its text is
// drawn from its own class's signal vocabulary versus a confuser
// class's. Low-ambiguity nodes are the paper's saturated nodes — their
// own text suffices for classification — while high-ambiguity nodes
// need neighbor cues.
package textgen

import (
	"strings"

	"repro/internal/xrand"
)

// Vocabulary holds the word model for one dataset: per-class signal
// words plus a shared background vocabulary.
type Vocabulary struct {
	// Signal[k] lists words that indicate class k.
	Signal [][]string
	// Background lists class-neutral filler words.
	Background []string
	// Confuser[k] is the class whose vocabulary ambiguous class-k nodes
	// borrow from. It is a fixed derangement of the classes so that
	// ambiguity has a consistent direction (as in real corpora, where
	// e.g. "Theory" papers are most often confusable with "Probabilistic
	// Methods", not with a random class each time).
	Confuser []int

	// classOf maps a signal word to its class for O(1) scoring; words
	// lists every word in index order and start[k] is the index of
	// Signal[k][0]. All three are built once at construction.
	classOf map[string]int
	words   []string
	start   []int32
}

// syllable inventory for pseudo-English word synthesis.
var (
	onsets  = []string{"b", "br", "c", "cr", "d", "dr", "f", "fl", "g", "gl", "gr", "h", "j", "k", "kl", "l", "m", "n", "p", "pl", "pr", "qu", "r", "s", "sc", "sk", "sl", "sp", "st", "str", "t", "th", "tr", "v", "vr", "w", "z"}
	nuclei  = []string{"a", "e", "i", "o", "u", "ai", "au", "ea", "ee", "ia", "ie", "io", "oa", "oo", "ou"}
	codas   = []string{"", "b", "ck", "d", "g", "l", "ll", "m", "mb", "n", "nd", "ng", "nt", "p", "r", "rd", "rk", "rm", "rn", "s", "ss", "st", "t", "th", "x"}
	endings = []string{"", "", "", "ic", "al", "ive", "ion", "ment", "ity", "ism", "ous", "ary"}
)

// synthWord builds a deterministic pseudo-English word of the requested
// syllable count from the stream.
func synthWord(rng *xrand.RNG, syllables int) string {
	var b strings.Builder
	for s := 0; s < syllables; s++ {
		b.WriteString(onsets[rng.Intn(len(onsets))])
		b.WriteString(nuclei[rng.Intn(len(nuclei))])
		if s == syllables-1 || rng.Float64() < 0.5 {
			b.WriteString(codas[rng.Intn(len(codas))])
		}
	}
	if rng.Float64() < 0.25 {
		b.WriteString(endings[rng.Intn(len(endings))])
	}
	return b.String()
}

// VocabularyConfig sizes a Vocabulary.
type VocabularyConfig struct {
	Classes        int // number of classes K
	SignalPerClass int // signal words owned by each class
	Background     int // shared background words
}

// NewVocabulary deterministically builds a vocabulary from the stream.
// Words are globally unique across signal classes and background so
// that a word's class evidence is unambiguous at generation time (the
// simulated LLM later corrupts this knowledge per its skill level).
func NewVocabulary(rng *xrand.RNG, cfg VocabularyConfig) *Vocabulary {
	if cfg.Classes <= 0 {
		panic("textgen: vocabulary needs at least one class")
	}
	if cfg.SignalPerClass <= 0 || cfg.Background <= 0 {
		panic("textgen: vocabulary needs positive word counts")
	}
	v := &Vocabulary{
		Signal:     make([][]string, cfg.Classes),
		Confuser:   make([]int, cfg.Classes),
		Background: make([]string, 0, cfg.Background),
	}
	seen := map[string]bool{}
	draw := func(syllables int) string {
		for {
			w := synthWord(rng, syllables)
			if !seen[w] && len(w) >= 3 {
				seen[w] = true
				return w
			}
		}
	}
	for k := 0; k < cfg.Classes; k++ {
		words := make([]string, cfg.SignalPerClass)
		for i := range words {
			words[i] = draw(2 + rng.Intn(2))
		}
		v.Signal[k] = words
	}
	for i := 0; i < cfg.Background; i++ {
		v.Background = append(v.Background, draw(1+rng.Intn(3)))
	}
	// Mutual confuser pairing: classes confuse each other in pairs
	// (0↔1, 2↔3, …), so an ambiguous class-A text and an ambiguous
	// class-B text draw from the same word mixture and are *genuinely*
	// indistinguishable — no classifier can learn the ambiguity away.
	// (A one-directional derangement would leak the true class: only
	// A-nodes would ever produce the exact A+confuser(A) mixture.)
	// With an odd class count the last class pairs with class 0.
	for k := range v.Confuser {
		if k%2 == 0 {
			v.Confuser[k] = (k + 1) % cfg.Classes
		} else {
			v.Confuser[k] = k - 1
		}
	}
	if cfg.Classes == 1 {
		v.Confuser[0] = 0
	}
	v.RebuildIndex()
	return v
}

// RebuildIndex reconstructs the word→class lookup and the word indices
// from Signal and Background. Call it after deserializing a
// Vocabulary, whose index is not persisted.
func (v *Vocabulary) RebuildIndex() {
	n := len(v.Background)
	for _, words := range v.Signal {
		n += len(words)
	}
	v.classOf = make(map[string]int, n-len(v.Background))
	v.words = make([]string, 0, n)
	v.start = make([]int32, len(v.Signal))
	for k, words := range v.Signal {
		v.start[k] = int32(len(v.words))
		v.words = append(v.words, words...)
		for _, w := range words {
			v.classOf[w] = k
		}
	}
	v.words = append(v.words, v.Background...)
}

// Words lists every word of the vocabulary once, in index order: each
// class's signal words, class after class, then the background words.
// AppendText emits indices into it. The slice is shared; callers must
// not modify it.
func (v *Vocabulary) Words() []string { return v.words }

// ClassOf reports the class that owns word as a signal word, or -1 if
// the word is background (or unknown).
func (v *Vocabulary) ClassOf(word string) int {
	if k, ok := v.classOf[word]; ok {
		return k
	}
	return -1
}

// Classes returns the number of classes in the vocabulary.
func (v *Vocabulary) Classes() int { return len(v.Signal) }

// TextConfig controls per-node text synthesis.
type TextConfig struct {
	TitleWords    int     // words in the title
	AbstractWords int     // words in the abstract/description
	TitleSignal   float64 // fraction of title words that are class evidence
	AbstractSig   float64 // fraction of abstract words that are class evidence
}

// AppendText appends a (title, abstract) pair for a node of class k
// with the given ambiguity in [0, 1] to dst, as indices into Words: the
// title's cfg.TitleWords words, then the abstract's cfg.AbstractWords.
// Each evidence slot borrows from the confuser class with probability
// ambiguity/2, so maximal ambiguity is a 50/50 word mixture — the point
// of genuine indistinguishability (H(y|t) ≈ 1 bit between the pair),
// never a text that simply looks like the other class. Remaining slots
// are background words.
func (v *Vocabulary) AppendText(dst []int32, rng *xrand.RNG, k int, ambiguity float64, cfg TextConfig) []int32 {
	if k < 0 || k >= len(v.Signal) {
		panic("textgen: class out of range")
	}
	if ambiguity < 0 {
		ambiguity = 0
	}
	if ambiguity > 1 {
		ambiguity = 1
	}
	background := int32(len(v.words) - len(v.Background))
	gen := func(words int, sigFrac float64) {
		for i := 0; i < words; i++ {
			switch {
			case rng.Float64() < sigFrac:
				src := k
				if rng.Float64() < ambiguity/2 {
					src = v.Confuser[k]
				}
				dst = append(dst, v.start[src]+int32(rng.Intn(len(v.Signal[src]))))
			default:
				dst = append(dst, background+int32(rng.Intn(len(v.Background))))
			}
		}
	}
	gen(cfg.TitleWords, cfg.TitleSignal)
	gen(cfg.AbstractWords, cfg.AbstractSig)
	return dst
}

// Generate is AppendText rendered as text: the title's and the
// abstract's words, each joined by single spaces.
func (v *Vocabulary) Generate(rng *xrand.RNG, k int, ambiguity float64, cfg TextConfig) (title, abstract string) {
	ids := v.AppendText(nil, rng, k, ambiguity, cfg)
	join := func(ids []int32) string {
		words := make([]string, len(ids))
		for i, id := range ids {
			words[i] = v.words[id]
		}
		return strings.Join(words, " ")
	}
	n := max(cfg.TitleWords, 0)
	return join(ids[:n]), join(ids[n:])
}

// Evidence tallies, per class, how many words of text are signal words
// of that class. It is the ground-truth scoring rule the simulated LLM
// applies (with its own noisy copy of the vocabulary).
func (v *Vocabulary) Evidence(text string) []float64 {
	scores := make([]float64, len(v.Signal))
	for _, w := range strings.Fields(text) {
		if k, ok := v.classOf[w]; ok {
			scores[k]++
		}
	}
	return scores
}
