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
func (c Compressor) CompressStats(promptText string) (string, CompressStats) {
	before := token.Count(promptText)
	st := CompressStats{TokensBefore: before, TokensAfter: before}
	if !c.Enabled() {
		return promptText, st
	}
	if _, err := Parse(promptText); err != nil {
		return promptText, st
	}
	abs := findAbstracts(promptText)
	if len(abs) == 0 {
		return promptText, st
	}
	scoreSpans(promptText, abs)

	// Phase 1 — level caps: each abstract keeps its cap's worth of
	// densest spans. The target abstract always keeps at least one span
	// so Parse still recovers the target node.
	spanCap := levelSpanCap(c.level())
	for i := range abs {
		abs[i].keepTop(spanCap)
	}

	// Phase 2 — token budget: drop the globally lowest-density spans
	// (later spans first on ties) until the rendered prompt fits. The
	// running total is tracked incrementally: token.Count never forms a
	// token across whitespace, so dropping a space-separated span
	// shrinks the prompt by exactly that span's count (plus the
	// "Abstract:" prefix when a neighbor's line empties out and is
	// removed entirely).
	if c.TargetTokens > 0 {
		total := token.Count(render(promptText, abs))
		if total > c.TargetTokens {
			prefixTokens := token.Count("Abstract:")
			for _, d := range droppable(abs) {
				if total <= c.TargetTokens {
					break
				}
				a := &abs[d.abs]
				a.kept[d.span] = false
				total -= token.Count(a.spans[d.span].text)
				if !a.target && a.keptCount() == 0 {
					total -= prefixTokens
				}
			}
		}
	}

	out := render(promptText, abs)
	st.TokensAfter = token.Count(out)
	return out, st
}

// span is one scored compressible unit of an abstract.
type span struct {
	text  string
	words []string // text's words; text is their single-space join
	score float64
}

// abstract is one compressible Abstract line of a prompt.
type abstract struct {
	line   int // index into the prompt's lines
	target bool
	spans  []span
	kept   []bool
}

// keepTop keeps the cap densest spans (earlier spans win ties — the
// opening of an abstract is its topic statement) and drops the rest.
// The target abstract keeps at least one span regardless.
func (a *abstract) keepTop(spanCap int) {
	if spanCap < 1 {
		spanCap = 1
	}
	if len(a.spans) <= spanCap {
		return
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
	}
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

// findAbstracts locates the compressible Abstract lines: the target's
// (line 1, guaranteed by Parse) and each neighbor entry's.
func findAbstracts(promptText string) []abstract {
	lines := strings.Split(promptText, "\n")
	var out []abstract
	add := func(i int, target bool) {
		body := strings.TrimPrefix(lines[i], "Abstract: ")
		spans := splitSpans(body)
		if len(spans) == 0 {
			return
		}
		a := abstract{line: i, target: target, spans: spans, kept: make([]bool, len(spans))}
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

// splitSpans cuts abstract text into spans: sentence boundaries first
// (a word ending in ./!/? terminates a sentence), then fixed windows of
// spanWords within each sentence. Chunking restarts at every sentence
// boundary, so re-splitting the canonical join of any kept subset never
// yields more spans than were kept — the invariant behind idempotence.
func splitSpans(text string) []span {
	words := strings.Fields(text)
	var out []span
	start := 0
	flush := func(end int) {
		for s := start; s < end; s += spanWords {
			e := s + spanWords
			if e > end {
				e = end
			}
			out = append(out, span{text: strings.Join(words[s:e], " "), words: words[s:e:e]})
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

// scoreSpans assigns each span its signal density: the cross-entropy
// (in bits per word) of the span's word distribution under the whole
// prompt's — H(p_span) + D_KL(p_span ‖ p_prompt), which is the mean
// self-information of the span's words under the prompt's unigram
// model. It is the unigram analog of LongLLMLingua's perplexity
// ranking: a span of words repeated all over the prompt carries little
// signal and is dropped first; a span concentrating rare, distinctive
// words survives. The background includes the span itself, so the
// divergence is always finite.
func scoreSpans(promptText string, abs []abstract) {
	words := strings.Fields(promptText)
	background := make(map[string]float64, len(words))
	for _, w := range words {
		background[w]++
	}
	backgroundTotal := float64(len(words))
	// Score over the span's distinct words, in first-appearance order,
	// plus one catch-all bucket holding the rest of the prompt's mass.
	// KLDivergence normalizes q over its own sum, so this equals the
	// full-vocabulary computation exactly, at O(span words) per span
	// instead of O(vocabulary). A span has at most spanWords words, so
	// a linear scan finds repeats; the buffers serve every span.
	var distinct []string
	var p, q []float64
	for ai := range abs {
		for si := range abs[ai].spans {
			distinct, p, q = distinct[:0], p[:0], q[:0]
			rest := backgroundTotal
			for _, w := range abs[ai].spans[si].words {
				k := slices.Index(distinct, w)
				if k < 0 {
					k = len(distinct)
					distinct = append(distinct, w)
					p = append(p, 0)
					q = append(q, background[w])
					rest -= background[w]
				}
				p[k]++
			}
			p = append(p, 0)
			q = append(q, rest)
			abs[ai].spans[si].score = infotheory.Entropy(p) +
				infotheory.KLDivergence(p, q)
		}
	}
}

// render reconstructs the prompt with the surviving spans. An abstract
// whose span set is unchanged keeps its original bytes; a changed one
// is re-rendered canonically in the Build format ("Abstract: <spans
// joined by single spaces> "), and a neighbor abstract losing every
// span loses its whole line — exactly what Build emits for an empty
// neighbor abstract.
func render(promptText string, abs []abstract) string {
	lines := strings.Split(promptText, "\n")
	drop := map[int]bool{}
	for ai := range abs {
		a := &abs[ai]
		if a.keptCount() == len(a.spans) {
			continue
		}
		var kept []string
		for si, k := range a.kept {
			if k {
				kept = append(kept, a.spans[si].text)
			}
		}
		if len(kept) == 0 && !a.target {
			drop[a.line] = true
			continue
		}
		lines[a.line] = "Abstract: " + strings.Join(kept, " ") + " "
	}
	if len(drop) == 0 {
		return strings.Join(lines, "\n")
	}
	out := make([]string, 0, len(lines))
	for i, l := range lines {
		if !drop[i] {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
