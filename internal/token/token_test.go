package token

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestEmptyText(t *testing.T) {
	if got := Count(""); got != 0 {
		t.Fatalf("Count(\"\") = %d, want 0", got)
	}
	if got := Tokenize(""); len(got) != 0 {
		t.Fatalf("Tokenize(\"\") = %v, want empty", got)
	}
}

func TestWhitespaceOnly(t *testing.T) {
	if got := Count("   \n\t  "); got != 0 {
		t.Fatalf("Count(whitespace) = %d, want 0", got)
	}
}

func TestShortWordsAreSingleTokens(t *testing.T) {
	for _, w := range []string{"a", "at", "cat", "five"} {
		if got := Count(w); got != 1 {
			t.Fatalf("Count(%q) = %d, want 1", w, got)
		}
	}
}

func TestCommonLongWordsAreSingleTokens(t *testing.T) {
	for _, w := range []string{"abstract", "category", "learning", "networks"} {
		if got := Count(w); got != 1 {
			t.Fatalf("Count(%q) = %d, want 1 (common word)", w, got)
		}
	}
}

// Every common word is one token in any ASCII case: Count lowercases
// ASCII words into a buffer sized for the longest common word.
func TestCommonWordsAnyCaseAreSingleTokens(t *testing.T) {
	for w := range common {
		for _, v := range []string{w, strings.ToUpper(w), strings.ToUpper(w[:1]) + w[1:]} {
			if got := Count(v); got != 1 {
				t.Errorf("Count(%q) = %d, want 1 (common word)", v, got)
			}
		}
	}
}

func TestRareLongWordsSplit(t *testing.T) {
	// 12 letters, not common: 3 pieces of 4.
	if got := Count("zxqvbnmkljhg"); got != 3 {
		t.Fatalf("Count(12-letter rare word) = %d, want 3", got)
	}
	// 9 letters: 4+5 -> 2 pieces (trailing single letter folds in).
	if got := Count("zxqvbnmkl"); got != 2 {
		t.Fatalf("Count(9-letter rare word) = %d, want 2", got)
	}
}

func TestPunctuationTokens(t *testing.T) {
	if got := Count("a,b.c"); got != 5 {
		t.Fatalf("Count(\"a,b.c\") = %d, want 5", got)
	}
	if got := Count("..."); got != 3 {
		t.Fatalf("Count(\"...\") = %d, want 3", got)
	}
}

func TestDigitGrouping(t *testing.T) {
	cases := map[string]int{
		"7":         1,
		"42":        1,
		"123":       1,
		"1234":      2,
		"123456":    2,
		"1234567":   3,
		"123456789": 3,
	}
	for in, want := range cases {
		if got := Count(in); got != want {
			t.Fatalf("Count(%q) = %d, want %d", in, got, want)
		}
	}
}

func TestCountMatchesTokenizeLength(t *testing.T) {
	texts := []string{
		"The quick brown fox jumps over the lazy dog.",
		"Title: Simple contrastive learning of sentence embeddings\nAbstract: This paper ...",
		"Category: ['Database']",
		"node 12345, edge (1,2); weight=0.75",
		"",
		"   spaced    out   ",
	}
	for _, txt := range texts {
		if got, want := Count(txt), len(Tokenize(txt)); got != want {
			t.Fatalf("Count(%q) = %d, Tokenize length = %d", txt, got, want)
		}
	}
}

func TestQuickCountMatchesTokenize(t *testing.T) {
	f := func(s string) bool {
		return Count(s) == len(Tokenize(s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCountAdditiveOverSpace(t *testing.T) {
	// Joining two texts with a space never changes the total count.
	f := func(a, b string) bool {
		return Count(a+" "+b) == Count(a)+Count(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCountNonNegativeAndBounded(t *testing.T) {
	// A token covers at least one byte, so count <= byte length.
	f := func(s string) bool {
		c := Count(s)
		return c >= 0 && c <= len(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEnglishDensityApproximatesBPE(t *testing.T) {
	// English prose is ~0.75 words per token for BPE tokenizers, i.e.
	// tokens ≈ words / 0.75. Verify we land in a plausible band.
	text := strings.Repeat("the model aggregates neighborhood information to classify documents in a citation graph while limiting prompt length ", 20)
	words := len(strings.Fields(text))
	tokens := Count(text)
	ratio := float64(tokens) / float64(words)
	if ratio < 1.0 || ratio > 2.0 {
		t.Fatalf("tokens/words ratio = %.2f, want within [1.0, 2.0]", ratio)
	}
}

func TestTokenizePiecesReassemble(t *testing.T) {
	// For pure letter words, concatenating pieces restores the word.
	word := "representation"
	pieces := Tokenize(word)
	if strings.Join(pieces, "") != word {
		t.Fatalf("pieces %v do not reassemble %q", pieces, word)
	}
	if len(pieces) < 2 {
		t.Fatalf("expected long rare word to split, got %v", pieces)
	}
}

func TestMeterAccumulates(t *testing.T) {
	var m Meter
	m.AddQuery(100, 5)
	m.AddQuery(200, 7)
	if m.Queries() != 2 {
		t.Fatalf("Queries = %d, want 2", m.Queries())
	}
	if m.InputTokens() != 300 {
		t.Fatalf("InputTokens = %d, want 300", m.InputTokens())
	}
	if m.OutputTokens() != 12 {
		t.Fatalf("OutputTokens = %d, want 12", m.OutputTokens())
	}
	if m.Total() != 312 {
		t.Fatalf("Total = %d, want 312", m.Total())
	}
	m.Reset()
	if m.Total() != 0 || m.Queries() != 0 {
		t.Fatal("Reset did not clear meter")
	}
}

func TestUnicodeLettersCounted(t *testing.T) {
	// Non-ASCII letters should still tokenize as letter runs, not panic.
	if got := Count("naïve café"); got < 2 {
		t.Fatalf("Count(unicode) = %d, want >= 2", got)
	}
}

func TestCountAllocatesNothing(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() { Count(benchText) }); allocs != 0 {
		t.Fatalf("Count allocated %.0f times per call, want 0", allocs)
	}
}

// FuzzCount checks Count against Tokenize on arbitrary bytes, which
// the quick checks above never produce: invalid UTF-8 counts one token
// per byte, and letters whose lowercase changes length (the Kelvin
// sign lowercases to ASCII 'k') must still match the common words.
func FuzzCount(f *testing.F) {
	for _, s := range []string{
		"",
		benchText,
		"\xff\xfe ok \xc3",
		"caf\xc3\xa9 na\xc3\xafve \xe2\x82\xac 12\xd9\xa3",
		"li\u212aely Li\u212aely \u212a\u212a\u212a\u212a",
		"CATEGORIES Categoriesx TITLE\u0130",
		"\ufffd\xed\xa0\x80",
	} {
		f.Add(s)
	}
	// Byte-class boundaries: every ASCII byte between letters and
	// between digits, the bytes on each side of each class's ranges
	// inside words and digit runs, ASCII runs that go on into
	// non-ASCII letters, digits and spaces (U+0085 and U+00A0 are
	// spaces, U+0663 a digit), and words of every common length with
	// and without a common word's first and last letters.
	var all []byte
	for c := 0; c < 0x80; c++ {
		all = append(all, 'a', byte(c), 'b', '1', byte(c), '2')
	}
	f.Add(string(all))
	for _, s := range []string{
		"@A Z[ `a z{ /0 9: \x7f\x80 \x1f \x20 \x0d\x0e",
		"x@y Z[z `az{ a/b 0/9 9:0 tab\tnl\nvt\vff\fcr\r",
		"ab\u00e9cd 12\u0663\u0664 ab\u0085cd ab\u00a0cd 1\u00a02 e\u0301",
		"theX xthe Categoriez categorie paperz Likelyy neighbors nodesx titlee outputs",
		"the THE Target TARGET likely LIKELY categories CATEGORIES belong Belong class classs",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := Count(s), len(Tokenize(s)); got != want {
			t.Fatalf("Count(%q) = %d, Tokenize length = %d", s, got, want)
		}
		// Words interned into a dictionary split, count and render as
		// the text's fields do.
		b := NewBuilder(0)
		ids := b.AppendFields(nil, s)
		fields := strings.Fields(s)
		if len(ids) != len(fields) {
			t.Fatalf("%d IDs for %d fields of %q", len(ids), len(fields), s)
		}
		for i, id := range ids {
			if b.Dict.Word(id) != fields[i] {
				t.Fatalf("field %d of %q interned as %q", i, s, b.Dict.Word(id))
			}
		}
		joined := strings.Join(fields, " ")
		tokens := 0
		for _, id := range ids {
			tokens += b.Dict.Tokens(id)
		}
		if tokens != Count(s) {
			t.Fatalf("words' tokens sum to %d, Count(%q) = %d", tokens, s, Count(s))
		}
		if got := b.Dict.Join(ids); got != joined || b.Dict.Size(ids) != len(joined) {
			t.Fatalf("Join = %q (size %d), want %q", got, b.Dict.Size(ids), joined)
		}
		if InFieldForm(s) != (s == joined) {
			t.Fatalf("InFieldForm(%q) = %v", s, InFieldForm(s))
		}
	})
}

func TestInFieldForm(t *testing.T) {
	for s, want := range map[string]bool{
		"":             true,
		"one":          true,
		"one two. ":    false,
		"one two.":     true,
		" one":         false,
		"one  two":     false,
		"one\ntwo":     false,
		"one\ttwo":     false,
		"one\u00a0two": false,
		"caf\xc3 ok":   true,
	} {
		if got := InFieldForm(s); got != want {
			t.Errorf("InFieldForm(%q) = %v, want %v", s, got, want)
		}
	}
}

func TestDictOfKeepsOrderAndMarksSentenceEnds(t *testing.T) {
	words := []string{"alphabetic", "beta.", "gamma?", "categories"}
	d := DictOf(words)
	for id, w := range words {
		ends := w != "alphabetic" && w != "categories"
		if d.Word(int32(id)) != w || d.Tokens(int32(id)) != Count(w) || d.EndsSentence(int32(id)) != ends {
			t.Errorf("word %d: %q, %d tokens, ends %v; want %q, %d, %v", id, d.Word(int32(id)),
				d.Tokens(int32(id)), d.EndsSentence(int32(id)), w, Count(w), ends)
		}
	}
	if id, ok := d.Lookup("gamma?"); !ok || id != 2 {
		t.Errorf("Lookup(gamma?) = %d, %v", id, ok)
	}
	for _, words := range [][]string{{"a", "a"}, {"a b"}, {""}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("DictOf(%q) did not panic", words)
				}
			}()
			DictOf(words)
		}()
	}
}
