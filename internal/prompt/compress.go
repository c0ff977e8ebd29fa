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
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

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
// metrics and ledger layers, for a prompt given as text.
//
// The prompt is split into lines once, and every field of every line is
// interned once into a dictionary of the call's own; the abstracts'
// words become word IDs, which the span splitter and scorer of
// CompressQuery read. Both token totals come from that dictionary,
// which counts each distinct word's tokens once. They are exact:
// token.Count never forms a token across whitespace, and fields split
// on the same whitespace, so a prompt's count is the sum of its
// fields' counts.
func (c Compressor) CompressStats(promptText string) (string, CompressStats) {
	if !c.Enabled() {
		return promptText, uncompressed(promptText)
	}
	lines := strings.Split(promptText, "\n")
	if _, err := parseLines(lines); err != nil {
		return promptText, uncompressed(promptText)
	}
	build := token.NewBuilder(len(promptText) / 16)
	d := build.Dict
	bg := backgrounds.Get().(*background)
	defer backgrounds.Put(bg)
	bg.begin(0)
	// The compressible Abstract lines are the target's (line 1,
	// guaranteed by Parse) and each neighbor entry's.
	var abs []abstract
	inNeighbor := false
	for i, line := range lines {
		if i >= 2 {
			switch {
			case strings.HasPrefix(line, "Neighbor "):
				inNeighbor = true
			case line == "}}":
				inNeighbor = false
			}
		}
		if !strings.HasPrefix(line, "Abstract: ") || (i != 1 && !inNeighbor) {
			token.ForFields(line, func(w string) { bg.add(d, build.Intern(w)) })
			continue
		}
		target := i == 1
		bg.add(d, build.Intern("Abstract:"))
		ids := build.AppendFields(nil, strings.TrimPrefix(line, "Abstract: "))
		for _, id := range ids {
			bg.add(d, id)
		}
		if a, ok := newAbstract(d, i, target, ids); ok {
			abs = append(abs, a)
		}
	}
	if len(abs) == 0 {
		return promptText, CompressStats{TokensBefore: bg.sum, TokensAfter: bg.sum}
	}
	after := c.compress(d, abs, bg)
	return render(promptText, lines, d, abs), CompressStats{TokensBefore: bg.sum, TokensAfter: after}
}

// CompressQuery is CompressStats for a prompt given as a Query: it
// returns exactly CompressStats(q.Render()), with no prompt to split.
// The abstracts' spans are cut and scored straight from their word
// IDs, the background counts the node text's IDs and the fields of
// the template text around them, and the compressed prompt is rendered
// once. With compression disabled it renders the prompt and counts its
// tokens from the dictionary.
func (c Compressor) CompressQuery(q *Query) (string, CompressStats) {
	if !q.plain() {
		// A category list or line that could break the prompt's lines
		// is left to the text path, which reads what Parse reads.
		p := q.Render()
		if !c.Enabled() {
			return p, uncompressed(p)
		}
		return c.CompressStats(p)
	}
	bg := backgrounds.Get().(*background)
	defer backgrounds.Put(bg)
	abs := q.tally(bg, c.Enabled())
	st := CompressStats{TokensBefore: bg.sum, TokensAfter: bg.sum}
	if len(abs) > 0 {
		st.TokensAfter = c.compress(q.Dict, abs, bg)
	}
	w := compressedWriter{queryWriter: queryWriter{q: q}, abs: abs}
	w.b.Grow(q.size())
	layout(&w, q.NodeType, q.EdgeRelation, q.Ranked, q.Categories, len(q.Neighbors))
	return w.b.String(), st
}

// tally starts bg on the query's prompt: the fields of its template
// text and the IDs of its node text. With cut set it also returns the
// abstracts, cut into spans.
func (q *Query) tally(bg *background, cut bool) []abstract {
	bg.begin(q.Dict.Len())
	sk := skeleton{queryWriter{q: q}}
	layout(&sk, q.NodeType, q.EdgeRelation, q.Ranked, q.Categories, len(q.Neighbors))
	bg.addText(q.Dict, sk.b.String())
	var abs []abstract
	for f := 0; f < q.fields(); f++ {
		ids := q.text(f)
		for _, id := range ids {
			bg.add(q.Dict, id)
		}
		if cut && f%2 == 1 {
			if a, ok := newAbstract(q.Dict, f, f == 1, ids); ok {
				abs = append(abs, a)
			}
		}
	}
	return abs
}

// plain reports whether the query's template text parses as Parse
// expects without a second look: no newline in the node type, edge
// relation, a label or a category, and a category list that is not
// empty (some category has a non-space character and no comma, so
// Parse's split on ", " keeps it). Node text is words, so it never
// breaks a line.
func (q *Query) plain() bool {
	if strings.Contains(q.NodeType, "\n") || strings.Contains(q.EdgeRelation, "\n") {
		return false
	}
	for _, nb := range q.Neighbors {
		if strings.Contains(nb.Label, "\n") {
			return false
		}
	}
	listed := false
	for _, c := range q.Categories {
		if strings.Contains(c, "\n") {
			return false
		}
		if strings.TrimSpace(c) != "" && !strings.Contains(c, ",") {
			listed = true
		}
	}
	return listed
}

// skeleton collects a query's template text: the prompt with its node
// text left out.
type skeleton struct{ queryWriter }

func (w *skeleton) text(int) {}

// compressedWriter writes a query's prompt with only the surviving
// spans of its abstracts, in the Build format: a changed abstract is
// its kept words joined by single spaces, and a neighbor abstract that
// lost every span loses its line, as Build leaves out an empty one.
type compressedWriter struct {
	queryWriter
	abs []abstract // by field, in field order
}

// abstract returns the compressible abstract of field f, or nil.
func (w *compressedWriter) abstract(f int) *abstract {
	for i := range w.abs {
		if w.abs[i].at == f {
			return &w.abs[i]
		}
	}
	return nil
}

func (w *compressedWriter) text(f int) {
	a := w.abstract(f)
	if a == nil {
		w.queryWriter.text(f)
		return
	}
	first := true
	for si, s := range a.spans {
		if a.kept[si] {
			if !first {
				w.b.WriteByte(' ')
			}
			first = false
			w.q.Dict.Write(&w.b, a.ids[s.lo:s.hi])
		}
	}
}

func (w *compressedWriter) has(f int) bool {
	if a := w.abstract(f); a != nil {
		return a.keptCount() > 0
	}
	return w.queryWriter.has(f)
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

// abstract is one compressible abstract of a prompt: its words as IDs
// into the prompt's dictionary, cut into spans.
type abstract struct {
	at     int // the prompt line (CompressStats) or the Query field (CompressQuery)
	target bool
	ids    []int32
	spans  []span
	kept   []bool
}

// newAbstract cuts ids into spans, all kept; ok is false when there
// are no words to compress.
func newAbstract(d *token.Dict, at int, target bool, ids []int32) (a abstract, ok bool) {
	spans := splitSpans(d, ids)
	if len(spans) == 0 {
		return abstract{}, false
	}
	a = abstract{at: at, target: target, ids: ids, spans: spans, kept: make([]bool, len(spans))}
	for i := range a.kept {
		a.kept[i] = true
	}
	return a, true
}

// compress scores the spans of abs against the prompt's background,
// then applies the level caps and the token budget, returning the
// prompt's token count after compression.
func (c Compressor) compress(d *token.Dict, abs []abstract, bg *background) int {
	scoreSpans(d, abs, bg)

	// Phase 1 — level caps: each abstract keeps its cap's worth of
	// densest spans. The target abstract always keeps at least one span
	// so Parse still recovers the target node.
	spanCap := levelSpanCap(c.level())
	total := bg.sum
	for i := range abs {
		total -= abs[i].keepTop(spanCap)
	}

	// Phase 2 — token budget: drop the globally lowest-density spans
	// (later spans first on ties) until the rendered prompt fits.
	// Dropping a span shrinks the prompt by exactly that span's count,
	// plus the "Abstract:" prefix when a neighbor's line empties out and
	// is removed entirely.
	if c.TargetTokens > 0 && total > c.TargetTokens {
		for _, dr := range droppable(abs) {
			if total <= c.TargetTokens {
				break
			}
			a := &abs[dr.abs]
			a.kept[dr.span] = false
			total -= a.spans[dr.span].tokens
			if !a.target && a.keptCount() == 0 {
				total -= abstractPrefixTokens
			}
		}
	}
	return total
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
	// Clear every mark, then keep the first maximum of the spans not
	// yet kept, cap times: density descending, position ascending on
	// ties.
	for i := range a.kept {
		a.kept[i] = false
	}
	for range spanCap {
		best := -1
		for i, sp := range a.spans {
			if !a.kept[i] && (best < 0 || cmp.Compare(sp.score, a.spans[best].score) > 0) {
				best = i
			}
		}
		a.kept[best] = true
	}
	for i, sp := range a.spans {
		if !a.kept[i] {
			dropped += sp.tokens
		}
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
	slices.SortStableFunc(out, func(x, y dropRef) int { return cmp.Compare(x.score, y.score) })
	return out
}

// splitSpans cuts an abstract's words into spans: sentence boundaries
// first (a word ending in ./!/? terminates a sentence), then fixed
// windows of spanWords within each sentence. Chunking restarts at
// every sentence boundary, so re-splitting the canonical join of any
// kept subset never yields more spans than were kept — the invariant
// behind idempotence.
func splitSpans(d *token.Dict, ids []int32) []span {
	var out []span
	start := 0
	flush := func(end int) {
		for s := start; s < end; s += spanWords {
			out = append(out, span{lo: s, hi: min(s+spanWords, end)})
		}
		start = end
	}
	for i, id := range ids {
		if d.EndsSentence(id) {
			flush(i + 1)
		}
	}
	flush(len(ids))
	return out
}

// background is a prompt's unigram table: how often each word of the
// prompt's dictionary occurs in the prompt, in a dense table indexed by
// word ID. Entries are stamped per prompt, like tag.Walk's visited
// array, so starting a prompt costs one increment instead of clearing
// the table; tables are pooled, so concurrent prompts never share one.
type background struct {
	n     []float64 // occurrences by word ID; valid where seen == mark
	seen  []uint32
	mark  uint32
	words int // fields of the prompt
	sum   int // their tokens: token.Count of the prompt
	memo  klMemo
}

var backgrounds = sync.Pool{New: func() any { return new(background) }}

// begin starts a prompt over a dictionary of size words (add grows the
// table for a dictionary still being interned).
func (b *background) begin(size int) {
	if len(b.n) < size {
		b.n = make([]float64, size)
		b.seen = make([]uint32, size)
		b.mark = 0
	}
	b.mark++
	if b.mark == 0 { // wrapped: stamps of old prompts could collide
		clear(b.seen)
		b.mark = 1
	}
	b.words, b.sum = 0, 0
}

// add records one occurrence of word id.
func (b *background) add(d *token.Dict, id int32) {
	if int(id) >= len(b.n) {
		b.n = append(b.n, make([]float64, d.Len()-len(b.n))...)
		b.seen = append(b.seen, make([]uint32, d.Len()-len(b.seen))...)
	}
	if b.seen[id] != b.mark {
		b.seen[id] = b.mark
		b.n[id] = 0
	}
	b.n[id]++
	b.words++
	b.sum += d.Tokens(id)
}

// addText records every field of template text s: a field that is a
// dictionary word counts as that word (a generated word such as "the"
// can equal a template word); any other field only adds to the totals.
func (b *background) addText(d *token.Dict, s string) {
	token.ForFields(s, func(w string) {
		if id, ok := d.Lookup(w); ok {
			b.add(d, id)
			return
		}
		b.words++
		b.sum += token.Count(w)
	})
}

// scoreSpans assigns each span its token count and its signal density
// against the prompt's background. The density is the cross-entropy (in
// bits per word) of the span's word distribution under the whole
// prompt's — H(p_span) + D_KL(p_span ‖ p_prompt), which is the mean
// self-information of the span's words under the prompt's unigram
// model. It is the unigram analog of LongLLMLingua's perplexity
// ranking: a span of words repeated all over the prompt carries little
// signal and is dropped first; a span concentrating rare, distinctive
// words survives. The background includes the span itself, so the
// divergence is always finite.
//
// The score is infotheory.Entropy(p) + infotheory.KLDivergence(p, q)
// for p the span's word counts and q the prompt's, over the span's
// distinct words in first-appearance order plus one catch-all bucket
// holding the rest of the prompt's mass, computed with the same
// operations in the same order, so it equals that sum bit for bit. A
// span of l words that holds a word c times puts c/l in p, so each
// entropy term and each KL term's p side comes from spanRatio and
// spanLog2. The catch-all bucket holds nothing of the span, so it adds
// no term; it only makes q's sum the prompt's word total W. A KL term's
// logarithm, log2((c/l) / (n/W)) for a word the prompt holds n times,
// then depends only on (c, l, n) while W stays fixed, so the prompt's
// klMemo computes each once. KL's guards stay: a negative divergence
// reads 0, and q is never 0, since the background holds the span.
func scoreSpans(d *token.Dict, abs []abstract, bg *background) {
	bg.memo.begin()
	words := float64(bg.words)
	var ids [spanWords]int32
	var counts [spanWords]int
	for ai := range abs {
		a := &abs[ai]
		for si := range a.spans {
			s := &a.spans[si]
			span := a.ids[s.lo:s.hi]
			distinct := 0
			for _, id := range span {
				s.tokens += d.Tokens(id)
				k := slices.Index(ids[:distinct], id)
				if k < 0 {
					k = distinct
					ids[k], counts[k] = id, 0
					distinct++
				}
				counts[k]++
			}
			l := len(span)
			h := 0.0
			for _, c := range counts[:distinct] {
				h -= spanRatio[l][c] * spanLog2[l][c]
			}
			kl := 0.0
			for k, c := range counts[:distinct] {
				kl += spanRatio[l][c] * bg.memo.log2(c, l, bg.n[ids[k]], words)
			}
			if kl < 0 { // KLDivergence's cancellation guard
				kl = 0
			}
			s.score = h + kl
		}
	}
}

// spanRatio[l][c] is c/l, the share c occurrences make of a span of l
// words, and spanLog2[l][c] its base-2 logarithm.
var spanRatio, spanLog2 = spanTables()

func spanTables() (ratio, lg [spanWords + 1][spanWords + 1]float64) {
	for l := 1; l <= spanWords; l++ {
		for c := 1; c <= l; c++ {
			ratio[l][c] = float64(c) / float64(l)
			lg[l][c] = math.Log2(ratio[l][c])
		}
	}
	return ratio, lg
}

// klMemo holds one prompt's KL logarithms by (c, l, n), in an
// open-addressed table stamped per prompt like background's counts. It
// keeps at most klMemoCap of them, which leaves free slots to end
// every probe; a prompt with more distinct arguments computes the rest
// directly. Prompts of pubmed with four neighbors have at most 32.
type klMemo struct {
	keys  [klSlots]uint64
	vals  [klSlots]float64
	stamp [klSlots]uint32
	mark  uint32
	used  int
}

const (
	klBits    = 7
	klSlots   = 1 << klBits
	klMemoCap = klSlots / 2
)

// begin empties the memo for a new prompt.
func (m *klMemo) begin() {
	m.mark++
	if m.mark == 0 { // wrapped: stamps of old prompts could collide
		clear(m.stamp[:])
		m.mark = 1
	}
	m.used = 0
}

// log2 returns log2((c/l) / (n/words)), KLDivergence's logarithm for
// a word held c times in a span of l words and n times in a prompt of
// words words, where words is the same for every call since begin.
func (m *klMemo) log2(c, l int, n, words float64) float64 {
	key := uint64(n)<<8 | uint64(l)<<4 | uint64(c)
	i := key * 0x9E3779B97F4A7C15 >> (64 - klBits)
	for ; m.stamp[i] == m.mark; i = (i + 1) % klSlots {
		if m.keys[i] == key {
			return m.vals[i]
		}
	}
	lg := math.Log2(spanRatio[l][c] / (n / words))
	if m.used < klMemoCap {
		m.keys[i], m.vals[i], m.stamp[i] = key, lg, m.mark
		m.used++
	}
	return lg
}

// render reconstructs a prompt given as text with the surviving spans,
// writing into one buffer sized to the output. An abstract whose span
// set is unchanged keeps its original bytes; a changed one is
// re-rendered canonically in the Build format ("Abstract: <kept words
// joined by single spaces> "), and a neighbor abstract losing every
// span loses its whole line — exactly what Build emits for an empty
// neighbor abstract. A prompt with nothing dropped is returned as it
// is.
func render(promptText string, lines []string, d *token.Dict, abs []abstract) string {
	size, changed := len(promptText), false
	for ai := range abs {
		a := &abs[ai]
		kept := a.keptCount()
		if kept == len(a.spans) {
			continue
		}
		changed = true
		size -= len(lines[a.at])
		if kept == 0 && !a.target {
			size-- // the line's newline
			continue
		}
		size += len("Abstract: ")
		for si, s := range a.spans {
			if a.kept[si] {
				size += d.Size(a.ids[s.lo:s.hi]) + 1
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
		if next < len(abs) && abs[next].at == i {
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
						d.Write(&b, a.ids[s.lo:s.hi])
						b.WriteByte(' ')
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
