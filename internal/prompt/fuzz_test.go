package prompt

import (
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/token"
)

// FuzzParse hardens the prompt parser against adversarial or corrupted
// prompt text: it must never panic, and on success its output must be
// internally consistent.
func FuzzParse(f *testing.F) {
	f.Add(Build(Request{
		TargetTitle:    "a title",
		TargetAbstract: "an abstract body",
		Categories:     []string{"A", "B"},
	}))
	f.Add(Build(Request{
		TargetTitle: "t",
		Neighbors: []Neighbor{
			{Title: "n0", Label: "A"},
			{Title: "n1", Abstract: "abs"},
		},
		Categories:   []string{"A", "B", "C"},
		Ranked:       true,
		NodeType:     "product",
		EdgeRelation: "co-purchase",
	}))
	f.Add("Target paper: Title: x \nAbstract:  \nTask: \nCategories: \n[A]\n")
	f.Add("")
	f.Add("Neighbor Paper0: {{\nTitle: orphan \n}}")

	f.Fuzz(func(t *testing.T, s string) {
		parsed, err := Parse(s)
		if err != nil {
			return
		}
		for _, c := range parsed.Categories {
			if strings.ContainsAny(c, "\n") {
				t.Fatalf("category %q contains newline", c)
			}
		}
		if len(parsed.NeighborLabels) != len(parsed.NeighborTexts) {
			t.Fatalf("labels/texts mismatch: %d vs %d",
				len(parsed.NeighborLabels), len(parsed.NeighborTexts))
		}
	})
}

// FuzzParseResponse checks the response parser never panics and only
// returns non-empty categories.
func FuzzParseResponse(f *testing.F) {
	f.Add("Category: ['Theory']")
	f.Add("noise before Category: ['A'] noise after")
	f.Add("['']")
	f.Add("[' ']")
	f.Add("Category: [unterminated")
	f.Add("")

	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseResponse(s)
		if err != nil {
			return
		}
		if c == "" {
			t.Fatal("empty category accepted")
		}
		if !utf8.ValidString(c) && utf8.ValidString(s) {
			t.Fatalf("invalid UTF-8 category %q from valid input", c)
		}
	})
}

// FuzzCompress hardens the compression stage against arbitrary input
// under arbitrary configurations. Four properties, each load-bearing
// for a cache or planner layer downstream:
//
//  1. Never panics (implicit), and text that does not parse as Build
//     output comes back byte-identical — the compressor must not
//     corrupt what it cannot read.
//  2. Idempotence: compress∘compress == compress, so a prompt passing
//     through two compression-aware layers is untouched by the second.
//  3. Budget: with TargetTokens set, the output fits the budget — or
//     equals the structural floor (what TargetTokens: 1 produces) when
//     the budget is infeasible for this prompt.
//  4. Parse still recovers the target node: the first line (target
//     title) is untouched and the compressed prompt parses with the
//     same category list.
//
// On every input, enabled or not, the reported totals are exactly
// token.Count of the input and of the output.
func FuzzCompress(f *testing.F) {
	f.Add(Build(compressSample()), 1, 0)
	f.Add(Build(compressSample()), 2, 150)
	f.Add(Build(compressSample()), 3, 1)
	f.Add(Build(Request{
		TargetTitle:    "t",
		TargetAbstract: "an abstract. with sentences. and a tail",
		Neighbors:      []Neighbor{{Title: "n", Abstract: "words here. more words"}},
		Categories:     []string{"A"},
	}), 0, 40)
	f.Add("Target paper: Title: x \nAbstract:  \nTask: \nCategories: \n[A]\n", 3, 10)
	f.Add("not a prompt at all", 2, 5)
	f.Add("", 1, 1)
	// The budget empties the neighbor's abstract, so its whole line,
	// "Abstract:" included, leaves the prompt.
	f.Add(Build(Request{
		TargetTitle:    "t",
		TargetAbstract: "kept words.",
		Neighbors:      []Neighbor{{Title: "n", Abstract: "dropped words"}},
		Categories:     []string{"A"},
	}), 1, 1)

	f.Fuzz(func(t *testing.T, s string, level, target int) {
		if level < 0 {
			level = -level
		}
		if target < 0 {
			target = -target
		}
		c := Compressor{Level: level % (MaxCompressLevel + 1), TargetTokens: target % 2048}
		out, st := c.CompressStats(s)
		if st.TokensBefore != token.Count(s) || st.TokensAfter != token.Count(out) {
			t.Fatalf("stats %+v, want {%d %d} under %+v:\n--- in ---\n%s\n--- out ---\n%s",
				st, token.Count(s), token.Count(out), c, s, out)
		}

		parsedIn, inErr := Parse(s)
		if inErr != nil || !c.Enabled() {
			if out != s {
				t.Fatalf("input altered (enabled=%v, parseErr=%v):\n--- in ---\n%s\n--- out ---\n%s", c.Enabled(), inErr, s, out)
			}
			return
		}
		if again := c.Compress(out); again != out {
			t.Fatalf("not idempotent under %+v:\n--- once ---\n%s\n--- twice ---\n%s", c, out, again)
		}
		if c.TargetTokens > 0 && token.Count(out) > c.TargetTokens {
			floor := (Compressor{Level: c.Level, TargetTokens: 1}).Compress(s)
			if out != floor {
				t.Fatalf("over budget (%d > %d) yet not at the structural floor:\n--- out ---\n%s\n--- floor ---\n%s",
					token.Count(out), c.TargetTokens, out, floor)
			}
		}
		parsedOut, err := Parse(out)
		if err != nil {
			t.Fatalf("compressed prompt no longer parses: %v\n--- out ---\n%s", err, out)
		}
		inFirst, _, _ := strings.Cut(s, "\n")
		outFirst, _, _ := strings.Cut(out, "\n")
		if inFirst != outFirst {
			t.Fatalf("target line altered: %q -> %q", inFirst, outFirst)
		}
		if strings.Join(parsedOut.Categories, ",") != strings.Join(parsedIn.Categories, ",") {
			t.Fatalf("categories altered: %v -> %v", parsedIn.Categories, parsedOut.Categories)
		}
	})
}

// FuzzBuildParseRoundTrip: any prompt this package builds, it must be
// able to read back.
func FuzzBuildParseRoundTrip(f *testing.F) {
	f.Add("title words", "abstract words here", "Alpha", "n title", "Beta", true)
	f.Add("", "", "X", "", "", false)

	f.Fuzz(func(t *testing.T, title, abstract, cat, nbTitle, nbLabel string, ranked bool) {
		// Newlines inside fields would break the line-oriented template
		// by design; normalize as a prompt builder caller must.
		clean := func(s string) string {
			return strings.Join(strings.Fields(s), " ")
		}
		title, abstract = clean(title), clean(abstract)
		cat = clean(cat)
		nbTitle, nbLabel = clean(nbTitle), clean(nbLabel)
		if cat == "" {
			cat = "Fallback"
		}
		req := Request{
			TargetTitle:    title,
			TargetAbstract: abstract,
			Categories:     []string{cat},
			Ranked:         ranked,
		}
		if nbTitle != "" {
			req.Neighbors = []Neighbor{{Title: nbTitle, Label: nbLabel}}
		}
		parsed, err := Parse(Build(req))
		if err != nil {
			t.Fatalf("cannot parse own prompt: %v", err)
		}
		if len(parsed.Categories) != 1 || parsed.Categories[0] != cat {
			t.Fatalf("categories %v, want [%q]", parsed.Categories, cat)
		}
		if nbTitle != "" && len(parsed.NeighborTexts) != 1 {
			t.Fatalf("neighbor lost: %v", parsed.NeighborTexts)
		}
	})
}
