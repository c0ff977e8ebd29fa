// Package token implements a deterministic subword tokenizer used to
// meter prompt costs.
//
// The paper's cost model counts OpenAI BPE tokens. Offline we cannot
// ship tiktoken's merge tables, so this package provides a rule-based
// subword tokenizer with the same statistical behaviour on English-like
// text (roughly four characters per token, one token per punctuation
// mark, digit runs split in groups of three). All budget arithmetic in
// the repository — pruning thresholds, Table V potentials, per-query
// meters — flows through Count and Tokenize here, so swapping in a real
// BPE implementation would be a one-package change.
package token

import (
	"strings"
	"sync/atomic"
	"unicode"
	"unicode/utf8"
)

// maxPiece is the longest run of letters emitted as a single token.
// Real BPE merges common 3-6 character chunks; using a fixed chunk size
// of 4 for rare words and whole-token treatment for common short words
// lands within a few percent of tiktoken counts on English text.
const maxPiece = 4

// common holds frequent English words that real BPE vocabularies encode
// as a single token regardless of length.
var common = map[string]bool{
	"the": true, "and": true, "for": true, "with": true, "that": true,
	"this": true, "from": true, "which": true, "paper": true, "into": true,
	"model": true, "method": true, "based": true, "using": true,
	"results": true, "learning": true, "network": true, "networks": true,
	"graph": true, "node": true, "nodes": true, "data": true, "title": true,
	"abstract": true, "category": true, "neighbor": true, "target": true,
	"categories": true, "following": true, "important": true, "output": true,
	"most": true, "likely": true, "belong": true, "does": true, "task": true,
	"citation": true, "product": true, "related": true, "class": true,
}

// Tokenize splits text into subword tokens. The exact pieces matter
// less than their count, but they are stable and reversible enough for
// tests to reason about.
func Tokenize(text string) []string {
	var out []string
	emitWord := func(w string) {
		lower := strings.ToLower(w)
		if len(w) <= maxPiece || common[lower] {
			out = append(out, w)
			return
		}
		// Chunk long words into maxPiece-sized subword pieces.
		for len(w) > 0 {
			n := maxPiece
			if len(w) < n {
				n = len(w)
			}
			// Avoid a dangling single-letter final piece; real BPE
			// prefers balanced merges.
			if len(w) == n+1 {
				n++
			}
			out = append(out, w[:n])
			w = w[n:]
		}
	}
	emitDigits := func(d string) {
		for len(d) > 0 {
			n := 3
			if len(d) < n {
				n = len(d)
			}
			out = append(out, d[:n])
			d = d[n:]
		}
	}

	i := 0
	rs := []rune(text)
	for i < len(rs) {
		r := rs[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case unicode.IsLetter(r):
			j := i
			for j < len(rs) && unicode.IsLetter(rs[j]) {
				j++
			}
			emitWord(string(rs[i:j]))
			i = j
		case unicode.IsDigit(r):
			j := i
			for j < len(rs) && unicode.IsDigit(rs[j]) {
				j++
			}
			emitDigits(string(rs[i:j]))
			i = j
		default:
			// Punctuation and symbols: one token each.
			out = append(out, string(r))
			i++
		}
	}
	return out
}

// Count returns the number of tokens in text. It is the unit used for
// every budget computation in the repository.
func Count(text string) int {
	// Counting walks the string in place, without materializing runes,
	// words or the token slice: the hot path (per-prompt metering)
	// allocates nothing. An ASCII byte is classified through byteClass,
	// which holds what runeClass reports for it; any other byte starts a
	// rune that runeClass classifies. An invalid byte decodes as
	// utf8.RuneError of width 1, a symbol, so it counts one token, as in
	// Tokenize.
	n := 0
	for i := 0; i < len(text); {
		class, size := uint8(0), 1
		if c := text[i]; c < utf8.RuneSelf {
			class = byteClass[c]
		} else {
			class, size = runeClassAt(text[i:])
		}
		switch class {
		case space:
			i += size
		case letter:
			j := asciiRunEnd(text, i+size, letter)
			ascii := size == 1
			if j < len(text) && text[j] >= utf8.RuneSelf {
				var rest bool
				j, rest = runEnd(text, j, letter)
				ascii = ascii && rest
			}
			if j-i <= maxPiece {
				n++
			} else {
				n += longWordTokens(text[i:j], ascii)
			}
			i = j
		case digit:
			j, _ := runEnd(text, i+size, digit)
			n += (j - i + 2) / 3
			i = j
		default:
			n++
			i += size
		}
	}
	return n
}

// The classes Count sorts characters into, tested in Tokenize's order.
const (
	symbol uint8 = iota
	space
	letter
	digit
)

// runeClass returns the class of r.
func runeClass(r rune) uint8 {
	switch {
	case unicode.IsSpace(r):
		return space
	case unicode.IsLetter(r):
		return letter
	case unicode.IsDigit(r):
		return digit
	}
	return symbol
}

// byteClass is runeClass of each ASCII byte.
var byteClass = func() (t [utf8.RuneSelf]uint8) {
	for c := range t {
		t[c] = runeClass(rune(c))
	}
	return t
}()

// classAt returns the class of the character starting at text[i] and
// its width in bytes.
func classAt(text string, i int) (uint8, int) {
	if c := text[i]; c < utf8.RuneSelf {
		return byteClass[c], 1
	}
	return runeClassAt(text[i:])
}

// runeClassAt returns the class of the rune s starts with and its
// width in bytes.
func runeClassAt(s string) (uint8, int) {
	r, size := utf8.DecodeRuneInString(s)
	return runeClass(r), size
}

// asciiRunEnd returns the end of the run of ASCII class characters
// starting at text[j].
func asciiRunEnd(text string, j int, class uint8) int {
	for j < len(text) && text[j] < utf8.RuneSelf && byteClass[text[j]] == class {
		j++
	}
	return j
}

// runEnd returns the end of the run of class characters starting at
// text[j], and whether the run is ASCII.
func runEnd(text string, j int, class uint8) (end int, ascii bool) {
	j = asciiRunEnd(text, j, class)
	ascii = true
	for j < len(text) {
		c, size := classAt(text, j)
		if c != class {
			break
		}
		ascii = ascii && size == 1
		j += size
	}
	return j, ascii
}

// longWordTokens counts the tokens of a letter run w longer than
// maxPiece, which is ASCII when ascii is set.
func longWordTokens(w string, ascii bool) int {
	if isCommon(w, ascii) {
		return 1
	}
	n := len(w) / maxPiece
	rem := len(w) % maxPiece
	if rem > 1 {
		n++
	}
	// rem == 1 folds into the previous piece; rem == 0 is exact.
	return n
}

// maxCommonLen is the byte length of the longest common word.
const maxCommonLen = len("categories")

// commonEnds[l][f] has bit e set when a common word of l letters
// begins with the letter 'a'+f and ends with 'a'+e. Every common word
// is lowercase ASCII letters.
var commonEnds = func() (t [maxCommonLen + 1][26]uint32) {
	for w := range common {
		t[len(w)][w[0]-'a'] |= 1 << (w[len(w)-1] - 'a')
	}
	return t
}()

// isCommon reports whether letter run w, lowercased, is a common word.
// An ASCII run is one no common word can be unless its length and its
// lowercased end letters are a common word's, so most skip the map; the
// rest are lowercased into a stack buffer, so the check allocates
// nothing. Other runs go through strings.ToLower, which may change
// their length (the Kelvin sign U+212A lowercases to ASCII 'k').
func isCommon(w string, ascii bool) bool {
	if !ascii {
		return common[strings.ToLower(w)]
	}
	if len(w) > maxCommonLen {
		return false
	}
	// An ASCII letter's lowercase sets bit 0x20.
	f, e := w[0]|0x20-'a', w[len(w)-1]|0x20-'a'
	if commonEnds[len(w)][f]&(1<<e) == 0 {
		return false
	}
	var buf [maxCommonLen]byte
	for i := 0; i < len(w); i++ {
		buf[i] = w[i] | 0x20
	}
	return common[string(buf[:len(w)])]
}

// Meter accumulates token usage across many queries. It is the
// repository's implementation of the paper's Tokens(π ∘ v_i) accounting
// in Eq. 2.
//
// All methods use atomic operations, so one meter can total queries
// issued concurrently from many batch-executor workers; because
// addition commutes, the totals are identical regardless of completion
// order. The fields stay plain int64 (not mutex-guarded) so finished
// meters remain copyable values, as the cost-model APIs expect; only
// copying a meter *while* queries are still in flight would tear.
type Meter struct {
	queries int64
	input   int64
	output  int64
}

// AddQuery records one executed query with the given input and output
// token counts.
func (m *Meter) AddQuery(inputTokens, outputTokens int) {
	atomic.AddInt64(&m.queries, 1)
	atomic.AddInt64(&m.input, int64(inputTokens))
	atomic.AddInt64(&m.output, int64(outputTokens))
}

// Queries returns the number of recorded queries.
func (m *Meter) Queries() int { return int(atomic.LoadInt64(&m.queries)) }

// InputTokens returns total input tokens across recorded queries.
func (m *Meter) InputTokens() int { return int(atomic.LoadInt64(&m.input)) }

// OutputTokens returns total output tokens across recorded queries.
func (m *Meter) OutputTokens() int { return int(atomic.LoadInt64(&m.output)) }

// Total returns total tokens (input + output).
func (m *Meter) Total() int {
	return int(atomic.LoadInt64(&m.input) + atomic.LoadInt64(&m.output))
}

// Reset clears the meter.
func (m *Meter) Reset() {
	atomic.StoreInt64(&m.queries, 0)
	atomic.StoreInt64(&m.input, 0)
	atomic.StoreInt64(&m.output, 0)
}
