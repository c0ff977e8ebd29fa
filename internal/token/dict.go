package token

import (
	"fmt"
	"strings"
	"unicode"
)

// Dict is a dictionary of distinct words, each stored once with its
// Count and whether it ends a sentence. Text held as word IDs into a
// Dict is rendered, counted and compared without splitting or hashing
// its words again.
//
// A word is a non-empty run of non-space characters (a field of
// strings.Fields), so words joined by single spaces split back into
// the same IDs, and a text's Count is the sum of its words' counts.
//
// A Dict has no method that changes it: a Builder fills it, and a
// dictionary shared once its builder is done is read without a lock.
type Dict struct {
	words  []string
	tokens []int32
	ends   []bool
	index  map[string]int32
}

// Builder interns words into its Dict, which it may still extend
// while the Dict is read on the same goroutine.
type Builder struct {
	Dict *Dict
}

// NewBuilder returns a builder of an empty dictionary with room for n
// words.
func NewBuilder(n int) *Builder {
	return &Builder{Dict: &Dict{
		words:  make([]string, 0, n),
		tokens: make([]int32, 0, n),
		ends:   make([]bool, 0, n),
		index:  make(map[string]int32, n),
	}}
}

// DictOf returns a dictionary of the given distinct words, word i
// taking ID i. It panics if a word is empty, holds a space or repeats.
func DictOf(words []string) *Dict {
	b := NewBuilder(len(words))
	for i, w := range words {
		if w == "" || !isField(w) {
			panic(fmt.Sprintf("token: dictionary word %q is not one field", w))
		}
		if id := b.Intern(w); int(id) != i {
			panic(fmt.Sprintf("token: dictionary word %q repeats", w))
		}
	}
	return b.Dict
}

// isField reports whether w holds no space.
func isField(w string) bool {
	for _, r := range w {
		if unicode.IsSpace(r) {
			return false
		}
	}
	return true
}

// Intern returns w's ID, adding w if it is new. w must be one field:
// non-empty and free of spaces.
func (b *Builder) Intern(w string) int32 {
	d := b.Dict
	if id, ok := d.index[w]; ok {
		return id
	}
	id := int32(len(d.words))
	d.words = append(d.words, w)
	d.tokens = append(d.tokens, int32(Count(w)))
	switch w[len(w)-1] {
	case '.', '!', '?':
		d.ends = append(d.ends, true)
	default:
		d.ends = append(d.ends, false)
	}
	d.index[w] = id
	return id
}

// AppendFields interns each field of s, in order, and appends their
// IDs to dst.
func (b *Builder) AppendFields(dst []int32, s string) []int32 {
	ForFields(s, func(w string) { dst = append(dst, b.Intern(w)) })
	return dst
}

// Lookup returns w's ID, if w is in the dictionary.
func (d *Dict) Lookup(w string) (int32, bool) {
	id, ok := d.index[w]
	return id, ok
}

// Len returns the number of words.
func (d *Dict) Len() int { return len(d.words) }

// Word returns the word with the given ID.
func (d *Dict) Word(id int32) string { return d.words[id] }

// Tokens returns Count of the word with the given ID.
func (d *Dict) Tokens(id int32) int { return int(d.tokens[id]) }

// EndsSentence reports whether the word ends in '.', '!' or '?'.
func (d *Dict) EndsSentence(id int32) bool { return d.ends[id] }

// Write writes the words ids joined by single spaces to b.
func (d *Dict) Write(b *strings.Builder, ids []int32) {
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(d.words[id])
	}
}

// Size returns the byte length of the words ids joined by single
// spaces.
func (d *Dict) Size(ids []int32) int {
	if len(ids) == 0 {
		return 0
	}
	n := len(ids) - 1
	for _, id := range ids {
		n += len(d.words[id])
	}
	return n
}

// Join returns the words ids joined by single spaces.
func (d *Dict) Join(ids []int32) string {
	var b strings.Builder
	b.Grow(d.Size(ids))
	d.Write(&b, ids)
	return b.String()
}

// ForFields calls f with each field of s — each maximal run of
// non-space characters, as strings.Fields splits them — in order,
// without allocating.
func ForFields(s string, f func(field string)) {
	start := -1
	for i := 0; i < len(s); {
		class, size := classAt(s, i)
		if class == space {
			if start >= 0 {
				f(s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
		i += size
	}
	if start >= 0 {
		f(s[start:])
	}
}

// InFieldForm reports whether s is words joined by single spaces:
// exactly strings.Join(strings.Fields(s), " "), with no other space,
// none leading and none trailing.
func InFieldForm(s string) bool {
	prevSpace := true // at the start, a space would be leading
	for i := 0; i < len(s); {
		class, size := classAt(s, i)
		if class == space {
			if s[i] != ' ' || prevSpace {
				return false
			}
			prevSpace = true
		} else {
			prevSpace = false
		}
		i += size
	}
	return len(s) == 0 || !prevSpace
}
