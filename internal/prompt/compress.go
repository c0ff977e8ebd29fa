// Prompt compression: token-pruning v2. The paper's τ-pruning decides
// *which* queries keep neighbor text; the Compressor decides *what
// survives inside* a prompt that kept it. Abstract text — the target
// node's and each neighbor's — is split into spans (sentences, long
// sentences chunked into fixed word windows), each span is scored for
// signal density against the whole prompt's word distribution with the
// infotheory machinery, and the lowest-density spans are dropped until
// the per-level span caps and the optional per-query token budget are
// met. Titles, labels, the category list and the task instruction are
// structural and never touched, so Parse recovers the same query from
// the compressed prompt.
//
// The two properties everything downstream leans on:
//
//   - Determinism: compression is a pure function of (prompt text,
//     Level, TargetTokens). Same input, same output, on any goroutine,
//     at any worker count.
//   - Idempotence: Compress(Compress(p)) == Compress(p). Kept spans are
//     re-rendered canonically (single-space joins), the span splitter
//     re-derives identical boundaries from the rendered text, and a
//     prompt already within its caps and budget is never altered — so a
//     second pass finds nothing to drop.
package prompt

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/infotheory"
	"repro/internal/token"
)

// compressedTemplateVersion is the template generation of compressed
// prompts; the compression level is appended (e.g. "v2+c2") so every
// level owns a disjoint prompt-cache namespace. A cached answer is only
// valid for the exact bytes that bought it, and compression changes the
// bytes — versioning the namespace makes that invalidation structural
// instead of accidental.
const compressedTemplateVersion = "v2"

// spanWords is the chunking window: sentences longer than this many
// words are split into fixed windows so span-level dropping still has
// granularity on the generated abstracts, which are long single
// "sentences" without terminal punctuation.
const spanWords = 8

// MaxCompressLevel is the strongest compression level.
const MaxCompressLevel = 3

// levelSpanCap maps a compression level to the maximum spans kept per
// abstract: level 1 trims tails, level 2 halves, level 3 keeps only the
// densest span of each abstract.
func levelSpanCap(level int) int {
	switch level {
	case 1:
		return 4
	case 2:
		return 2
	default:
		return 1
	}
}

// Compressor deterministically compresses prompts built by Build. The
// zero value is disabled (Compress returns its input unchanged).
type Compressor struct {
	// Level selects the per-abstract span caps (1..MaxCompressLevel);
	// values above MaxCompressLevel clamp. 0 with TargetTokens > 0
	// behaves as level 1.
	Level int
	// TargetTokens, when > 0, is the per-query compressed token budget:
	// after the level caps, the lowest-density spans anywhere in the
	// prompt keep dropping until token.Count(prompt) fits the budget or
	// only the structural floor remains (the target node always keeps at
	// least one abstract span).
	TargetTokens int
}

// Enabled reports whether the compressor does anything.
func (c Compressor) Enabled() bool { return c.Level > 0 || c.TargetTokens > 0 }

// level returns the effective level clamped to [1, MaxCompressLevel].
func (c Compressor) level() int {
	l := c.Level
	if l < 1 {
		l = 1
	}
	if l > MaxCompressLevel {
		l = MaxCompressLevel
	}
	return l
}

// TemplateVersion returns the prompt-template generation the compressor
// produces: the base TemplateVersion when disabled, "v2+c<level>" when
// enabled. It feeds promptcache.NamespaceVersion so cached answers can
// never cross compression configurations.
func (c Compressor) TemplateVersion() string {
	if !c.Enabled() {
		return TemplateVersion
	}
	return fmt.Sprintf("%s+c%d", compressedTemplateVersion, c.level())
}

// CompressStats reports one compression outcome.
type CompressStats struct {
	// TokensBefore/TokensAfter are token.Count of the prompt before and
	// after compression; equal when the compressor is disabled or the
	// prompt had nothing to drop.
	TokensBefore int
	TokensAfter  int
}

// Saved is the token saving (never negative).
func (s CompressStats) Saved() int {
	if d := s.TokensBefore - s.TokensAfter; d > 0 {
		return d
	}
	return 0
}

// Ratio is TokensAfter/TokensBefore in (0, 1]; 1 when nothing shrank.
func (s CompressStats) Ratio() float64 {
	if s.TokensBefore <= 0 {
		return 1
	}
	return float64(s.TokensAfter) / float64(s.TokensBefore)
}

// Compress returns the compressed prompt. Prompts that do not parse as
// Build output are returned unchanged — the compressor refuses to
// guess at text it cannot read back, so it can never corrupt a prompt.
func (c Compressor) Compress(promptText string) string {
	out, _ := c.CompressStats(promptText)
	return out
}

// CompressStats is Compress with before/after token accounting for the
// metrics and ledger layers.
//
// The prompt is split into lines once, and each abstract's body into
// words once; validation, span scoring and rendering all read those
// splits. Both token totals come from one table that counts each
// distinct word's tokens once. They are exact: token.Count never forms
// a token across whitespace, and strings.Fields splits on the same
// whitespace, so a prompt's count is the sum of its words' counts.
func (c Compressor) CompressStats(promptText string) (string, CompressStats) {
	if !c.Enabled() {
		return promptText, uncompressed(promptText)
	}
	lines := strings.Split(promptText, "\n")
	if _, err := parseLines(lines); err != nil {
		return promptText, uncompressed(promptText)
	}
	abs := findAbstracts(lines)
	if len(abs) == 0 {
		return promptText, uncompressed(promptText)
	}
	before := scoreSpans(lines, abs)

	// Phase 1 — level caps: each abstract keeps its cap's worth of
	// densest spans. The target abstract always keeps at least one span
	// so Parse still recovers the target node.
	spanCap := levelSpanCap(c.level())
	total := before
	for i := range abs {
		total -= abs[i].keepTop(spanCap)
	}

	// Phase 2 — token budget: drop the globally lowest-density spans
	// (later spans first on ties) until the rendered prompt fits.
	// Dropping a span shrinks the prompt by exactly that span's count,
	// plus the "Abstract:" prefix when a neighbor's line empties out and
	// is removed entirely.
	if c.TargetTokens > 0 && total > c.TargetTokens {
		for _, d := range droppable(abs) {
			if total <= c.TargetTokens {
				break
			}
			a := &abs[d.abs]
			a.kept[d.span] = false
			total -= a.spans[d.span].tokens
			if !a.target && a.keptCount() == 0 {
				total -= abstractPrefixTokens
			}
		}
	}
	return render(promptText, lines, abs), CompressStats{TokensBefore: before, TokensAfter: total}
}

// uncompressed is the accounting of a prompt left as it is.
func uncompressed(promptText string) CompressStats {
	n := token.Count(promptText)
	return CompressStats{TokensBefore: n, TokensAfter: n}
}

// abstractPrefixTokens is what removing a neighbor's emptied Abstract
// line saves beyond its spans.
var abstractPrefixTokens = token.Count("Abstract:")

// span is one scored compressible unit of an abstract: the words
// [lo, hi) of its abstract.
type span struct {
	lo, hi int
	tokens int // token.Count of the span's words
	score  float64
}

// abstract is one compressible Abstract line of a prompt.
type abstract struct {
	line   int // index into the prompt's lines
	target bool
	words  []string // the body's words, after "Abstract: "
	ids    []int32  // each word's entry in the prompt's vocab
	spans  []span
	kept   []bool
}

// keepTop keeps the cap densest spans (earlier spans win ties — the
// opening of an abstract is its topic statement) and drops the rest,
// returning the tokens dropped. The target abstract keeps at least one
// span regardless.
func (a *abstract) keepTop(spanCap int) (dropped int) {
	if spanCap < 1 {
		spanCap = 1
	}
	if len(a.spans) <= spanCap {
		return 0
	}
	idx := make([]int, len(a.spans))
	for i := range idx {
		idx[i] = i
	}
	// Deterministic selection order: density descending, position
	// ascending on ties (the stable sort preserves index order).
	sort.SliceStable(idx, func(i, j int) bool {
		return a.spans[idx[i]].score > a.spans[idx[j]].score
	})
	for _, i := range idx[spanCap:] {
		a.kept[i] = false
		dropped += a.spans[i].tokens
	}
	return dropped
}

// keptCount returns how many spans survive so far.
func (a *abstract) keptCount() int {
	n := 0
	for _, k := range a.kept {
		if k {
			n++
		}
	}
	return n
}

// dropRef addresses one droppable span.
type dropRef struct {
	abs, span int
	score     float64
}

// droppable lists the spans the budget phase may still drop, lowest
// density first (later position first on ties, preserving abstract
// openings longest). The target abstract's last surviving span is
// excluded: the prompt must keep a recoverable target node.
func droppable(abs []abstract) []dropRef {
	var out []dropRef
	for ai := range abs {
		floor := 0
		if abs[ai].target {
			floor = 1
		}
		kept := abs[ai].keptCount()
		for si := len(abs[ai].spans) - 1; si >= 0; si-- {
			if !abs[ai].kept[si] {
				continue
			}
			if kept <= floor {
				break
			}
			kept--
			out = append(out, dropRef{abs: ai, span: si, score: abs[ai].spans[si].score})
		}
	}
	// Stable sort by score ascending; the construction order above
	// already encodes later-position-first within equal scores.
	sort.SliceStable(out, func(i, j int) bool { return out[i].score < out[j].score })
	return out
}

// findAbstracts locates the compressible Abstract lines, in line order:
// the target's (line 1, guaranteed by Parse) and each neighbor entry's.
func findAbstracts(lines []string) []abstract {
	var out []abstract
	add := func(i int, target bool) {
		words := strings.Fields(strings.TrimPrefix(lines[i], "Abstract: "))
		spans := splitSpans(words)
		if len(spans) == 0 {
			return
		}
		a := abstract{line: i, target: target, words: words, spans: spans, kept: make([]bool, len(spans))}
		for j := range a.kept {
			a.kept[j] = true
		}
		out = append(out, a)
	}
	if len(lines) > 1 && strings.HasPrefix(lines[1], "Abstract: ") {
		add(1, true)
	}
	inNeighbor := false
	for i := 2; i < len(lines); i++ {
		switch {
		case strings.HasPrefix(lines[i], "Neighbor "):
			inNeighbor = true
		case lines[i] == "}}":
			inNeighbor = false
		case inNeighbor && strings.HasPrefix(lines[i], "Abstract: "):
			add(i, false)
		}
	}
	return out
}

// splitSpans cuts an abstract's words into spans: sentence boundaries
// first (a word ending in ./!/? terminates a sentence), then fixed
// windows of spanWords within each sentence. Chunking restarts at
// every sentence boundary, so re-splitting the canonical join of any
// kept subset never yields more spans than were kept — the invariant
// behind idempotence.
func splitSpans(words []string) []span {
	var out []span
	start := 0
	flush := func(end int) {
		for s := start; s < end; s += spanWords {
			out = append(out, span{lo: s, hi: min(s+spanWords, end)})
		}
		start = end
	}
	for i, w := range words {
		switch w[len(w)-1] {
		case '.', '!', '?':
			flush(i + 1)
		}
	}
	flush(len(words))
	return out
}

// vocab is a prompt's unigram table: each distinct word's occurrence
// count and its token count, counted once per distinct word.
type vocab struct {
	index map[string]int32
	stats []wordStat // by word id
	words int        // occurrences of all words
	sum   int        // tokens of all occurrences: token.Count of the prompt
}

type wordStat struct {
	n      float64 // occurrences
	tokens int     // token.Count of the word
}

// add records one occurrence of w and returns its id.
func (v *vocab) add(w string) int32 {
	id, ok := v.index[w]
	if !ok {
		id = int32(len(v.stats))
		v.index[w] = id
		v.stats = append(v.stats, wordStat{tokens: token.Count(w)})
	}
	st := &v.stats[id]
	st.n++
	v.words++
	v.sum += st.tokens
	return id
}

// scoreSpans counts the prompt's words and assigns each span its
// token count and its signal density, returning the prompt's token
// count. The density is the cross-entropy (in bits per word) of the
// span's word distribution under the whole prompt's — H(p_span) +
// D_KL(p_span ‖ p_prompt), which is the mean self-information of the
// span's words under the prompt's unigram model. It is the unigram
// analog of LongLLMLingua's perplexity ranking: a span of words
// repeated all over the prompt carries little signal and is dropped
// first; a span concentrating rare, distinctive words survives. The
// background includes the span itself, so the divergence is always
// finite.
func scoreSpans(lines []string, abs []abstract) int {
	nwords := 0
	for ai := range abs {
		nwords += len(abs[ai].words)
	}
	v := vocab{index: make(map[string]int32, nwords), stats: make([]wordStat, 0, nwords)}
	// The background is every word of the prompt: an abstract line's
	// "Abstract:" and span words, and every other line's fields.
	ids := make([]int32, nwords)
	next := 0
	for i, line := range lines {
		if next < len(abs) && abs[next].line == i {
			a := &abs[next]
			v.add("Abstract:")
			a.ids, ids = ids[:len(a.words):len(a.words)], ids[len(a.words):]
			for k, w := range a.words {
				a.ids[k] = v.add(w)
			}
			next++
			continue
		}
		for _, w := range strings.Fields(line) {
			v.add(w)
		}
	}
	// Score over the span's distinct words, in first-appearance order,
	// plus one catch-all bucket holding the rest of the prompt's mass.
	// KLDivergence normalizes q over its own sum, so this equals the
	// full-vocabulary computation exactly, at O(span words) per span
	// instead of O(vocabulary). A span has at most spanWords words, so
	// a linear scan finds repeats; the buffers serve every span.
	var distinct []int32
	var p, q []float64
	for ai := range abs {
		a := &abs[ai]
		for si := range a.spans {
			s := &a.spans[si]
			distinct, p, q = distinct[:0], p[:0], q[:0]
			rest := float64(v.words)
			for _, id := range a.ids[s.lo:s.hi] {
				st := v.stats[id]
				s.tokens += st.tokens
				k := slices.Index(distinct, id)
				if k < 0 {
					k = len(distinct)
					distinct = append(distinct, id)
					p = append(p, 0)
					q = append(q, st.n)
					rest -= st.n
				}
				p[k]++
			}
			p = append(p, 0)
			q = append(q, rest)
			s.score = infotheory.Entropy(p) + infotheory.KLDivergence(p, q)
		}
	}
	return v.sum
}

// render reconstructs the prompt with the surviving spans, writing
// into one buffer sized to the output. An abstract whose span set is
// unchanged keeps its original bytes; a changed one is re-rendered
// canonically in the Build format ("Abstract: <kept words joined by
// single spaces> "), and a neighbor abstract losing every span loses
// its whole line — exactly what Build emits for an empty neighbor
// abstract. A prompt with nothing dropped is returned as it is.
func render(promptText string, lines []string, abs []abstract) string {
	size, changed := len(promptText), false
	for ai := range abs {
		a := &abs[ai]
		kept := a.keptCount()
		if kept == len(a.spans) {
			continue
		}
		changed = true
		size -= len(lines[a.line])
		if kept == 0 && !a.target {
			size-- // the line's newline
			continue
		}
		size += len("Abstract: ")
		for si, s := range a.spans {
			if a.kept[si] {
				for _, w := range a.words[s.lo:s.hi] {
					size += len(w) + 1
				}
			}
		}
	}
	if !changed {
		return promptText
	}
	var b strings.Builder
	b.Grow(size)
	next := 0
	for i, line := range lines {
		if next < len(abs) && abs[next].line == i {
			a := &abs[next]
			next++
			if kept := a.keptCount(); kept < len(a.spans) {
				if kept == 0 && !a.target {
					continue
				}
				// An abstract is never the first line.
				b.WriteString("\nAbstract: ")
				for si, s := range a.spans {
					if a.kept[si] {
						for _, w := range a.words[s.lo:s.hi] {
							b.WriteString(w)
							b.WriteByte(' ')
						}
					}
				}
				continue
			}
		}
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(line)
	}
	return b.String()
}
