package prompt

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/token"
)

// FuzzParse hardens the prompt parser against adversarial or corrupted
// prompt text: it must never panic, it must read every input exactly
// as refParse (the parser before the Scanner) does, error text
// included, and on success its output must be internally consistent.
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
	f.Add("Target x: Title: t \nAbstract: a \n\nTarget x has neighbors, from most related to least related\n" +
		"Neighbor X0: {{\nCategory: A \nTitle: u \nCategory: B \nAbstract: v \n}}\nTarget has neighbors\n" +
		"Task: \nCategories: \n[, A, , B,  , A]\ntail")
	f.Add("Target x: Title: t \nAbstract: a \nTask:\nCategories: \n[ ]")
	f.Add("Target x: Title: t \nAbstract: a \nTask:\nCategories:")
	f.Add("Target x: Title: t \nAbstract: a \nTask:\nCategories:\n[A")
	f.Add("Target x: Title: t \nAbstract: a \nNeighbor X0: {{\nTitle: u")
	f.Add("Target x: Title: t \nAbstract: a \nstray")
	f.Add("Target x: Title: t \nAbstract: a ")
	f.Add("Target x: Title: t ")
	f.Add("Target x: no title")

	f.Fuzz(func(t *testing.T, s string) {
		parsed, err := Parse(s)
		want, wantErr := refParse(s)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("Parse(%q) error %v, refParse %v", s, err, wantErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(parsed, want) {
			t.Fatalf("Parse(%q) = %#v, refParse %#v", s, parsed, want)
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
	f.Add("t", "a", ", 0", "n", "", false)

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
		if strings.Contains(cat, ", ") {
			// The category list's separator: Parse splits the name
			// there, and tag.Load rejects such a class name.
			return
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

// refParse is Parse as it was before the Scanner, kept verbatim apart
// from names: it split the prompt into lines and walked them by index.
func refParse(p string) (Parsed, error) {
	lines := strings.Split(p, "\n")
	var out Parsed
	i := 0

	// Target line: "Target <type>: Title: ... "
	if i >= len(lines) || !strings.HasPrefix(lines[i], "Target ") {
		return out, fmt.Errorf("prompt: missing target line")
	}
	first := lines[i]
	ti := strings.Index(first, "Title: ")
	if ti < 0 {
		return out, fmt.Errorf("prompt: target line missing title")
	}
	targetTitle := strings.TrimSpace(first[ti+len("Title: "):])
	i++
	if i >= len(lines) || !strings.HasPrefix(lines[i], "Abstract: ") {
		return out, fmt.Errorf("prompt: missing target abstract")
	}
	targetAbstract := strings.TrimSpace(strings.TrimPrefix(lines[i], "Abstract: "))
	out.TargetText = strings.TrimSpace(targetTitle + " " + targetAbstract)
	i++

	// Optional neighbor block.
	for i < len(lines) {
		line := lines[i]
		switch {
		case line == "":
			i++
		case strings.HasPrefix(line, "Target ") && strings.Contains(line, "neighbors"):
			out.Ranked = strings.Contains(line, "from most related to least related")
			i++
		case strings.HasPrefix(line, "Neighbor "):
			// Entry spans until the closing "}}".
			i++
			var text []string
			label := ""
			for i < len(lines) && lines[i] != "}}" {
				l := lines[i]
				switch {
				case strings.HasPrefix(l, "Title: "):
					text = append(text, strings.TrimSpace(strings.TrimPrefix(l, "Title: ")))
				case strings.HasPrefix(l, "Abstract: "):
					text = append(text, strings.TrimSpace(strings.TrimPrefix(l, "Abstract: ")))
				case strings.HasPrefix(l, "Category: "):
					label = strings.TrimSpace(strings.TrimPrefix(l, "Category: "))
				}
				i++
			}
			if i >= len(lines) {
				return out, fmt.Errorf("prompt: unterminated neighbor entry")
			}
			i++ // consume "}}"
			out.NeighborTexts = append(out.NeighborTexts, strings.Join(text, " "))
			out.NeighborLabels = append(out.NeighborLabels, label)
		case strings.HasPrefix(line, "Task:"):
			i++
			goto task
		default:
			return out, fmt.Errorf("prompt: unexpected line %q", line)
		}
	}
	return out, fmt.Errorf("prompt: missing task section")

task:
	if i >= len(lines) || !strings.HasPrefix(lines[i], "Categories:") {
		return out, fmt.Errorf("prompt: missing categories header")
	}
	i++
	if i >= len(lines) || !strings.HasPrefix(lines[i], "[") || !strings.HasSuffix(lines[i], "]") {
		return out, fmt.Errorf("prompt: missing category list")
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(lines[i], "["), "]")
	for _, c := range strings.Split(inner, ", ") {
		c = strings.TrimSpace(c)
		if c != "" {
			out.Categories = append(out.Categories, c)
		}
	}
	if len(out.Categories) == 0 {
		return out, fmt.Errorf("prompt: empty category list")
	}
	return out, nil
}
