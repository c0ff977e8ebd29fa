// Package prompt builds and parses the query prompts of the "LLMs as
// predictors" paradigm.
//
// Build renders the paper's Table III templates: the target node's
// title and abstract, optional neighbor entries (title, optional
// abstract, and a Category line when the neighbor's label — true or
// pseudo — is known), the category list, and the task instruction.
// Parse is the inverse; it exists because the simulated LLM is a black
// box that receives only the final prompt string, so everything it
// knows about a query must be recovered from the text itself, exactly
// as a real LLM would read it.
package prompt

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/token"
)

// TemplateVersion identifies the prompt-template generation. It is
// part of every persistent prompt-cache namespace: cached answers are
// only valid for the exact template that produced the prompt, so bump
// this string whenever Build's rendering changes in any way.
const TemplateVersion = "v1"

// Neighbor is one neighbor entry in a prompt.
type Neighbor struct {
	Title    string
	Abstract string // included only when non-empty
	Label    string // category name; empty if unknown
}

// Request describes a node-classification query to render.
type Request struct {
	TargetTitle    string
	TargetAbstract string
	Neighbors      []Neighbor
	Categories     []string
	// Ranked adds SNS's "from most related to least related" phrasing.
	Ranked bool
	// NodeType is "paper" or "product"; EdgeRelation is e.g. "citation"
	// or "co-purchase".
	NodeType     string
	EdgeRelation string
}

// Query is a Request whose node text is word IDs into Dict: the plan
// path's form of a prompt. Render and Compressor.CompressQuery write
// its words straight from the dictionary, so node text is never joined
// into a prompt only to be split out of it again. Render(q) equals
// Build of the same request with each text rendered by Dict.Join.
type Query struct {
	Dict           *token.Dict
	TargetTitle    []int32
	TargetAbstract []int32
	Neighbors      []QueryNeighbor
	Categories     []string
	Ranked         bool
	NodeType       string
	EdgeRelation   string
}

// QueryNeighbor is one neighbor entry of a Query.
type QueryNeighbor struct {
	Title    []int32
	Abstract []int32 // included only when non-empty
	Label    string  // category name; empty if unknown
}

// text returns node-text field f of the query (see writer).
func (q *Query) text(f int) []int32 {
	switch f {
	case 0:
		return q.TargetTitle
	case 1:
		return q.TargetAbstract
	}
	nb := &q.Neighbors[(f-2)/2]
	if f%2 == 0 {
		return nb.Title
	}
	return nb.Abstract
}

// fields returns the number of node-text fields of the query.
func (q *Query) fields() int { return 2 + 2*len(q.Neighbors) }

// lowerOr lower-cases s, or returns def when s is empty.
func lowerOr(s, def string) string {
	if s == "" {
		return def
	}
	return strings.ToLower(s)
}

// asciiTitle upper-cases the first byte of an ASCII word ("paper" ->
// "Paper").
func asciiTitle(s string) string {
	if s == "" {
		return s
	}
	c := s[0]
	if c >= 'a' && c <= 'z' {
		return string(c-'a'+'A') + s[1:]
	}
	return s
}

// writer receives a prompt in template order: template text through
// lit and node text through text. Node-text field f is the target's
// title (0) or abstract (1), or neighbor i's title (2+2i) or abstract
// (3+2i). The template puts whitespace on both sides of every field,
// so a field's words are always whole fields of the prompt.
type writer interface {
	lit(s string)
	text(f int)
	// has reports whether field f has words to write; a neighbor's
	// Abstract line is left out when it has none.
	has(f int) bool
	// label returns neighbor i's category, or "" to leave the
	// Category line out.
	label(i int) string
}

// layout writes the Table III template for a prompt with the given
// neighbor count to w. It is the one definition of the template: Build,
// Render, and the compressor's token accounting and rendering all
// write through it.
func layout(w writer, nodeType, edgeRelation string, ranked bool, categories []string, neighbors int) {
	nt := lowerOr(nodeType, "paper")
	w.lit("Target ")
	w.lit(nt)
	w.lit(": Title: ")
	w.text(0)
	w.lit(" \nAbstract: ")
	w.text(1)
	w.lit(" \n")
	if neighbors > 0 {
		w.lit("\nTarget ")
		w.lit(nt)
		w.lit(" has the following important neighbors with ")
		w.lit(lowerOr(edgeRelation, "citation"))
		w.lit(" relationships")
		if ranked {
			w.lit(", from most related to least related")
		}
		w.lit(":\n")
		title := asciiTitle(nt)
		for i := 0; i < neighbors; i++ {
			w.lit("Neighbor ")
			w.lit(title)
			w.lit(strconv.Itoa(i))
			w.lit(": {{\nTitle: ")
			w.text(2 + 2*i)
			w.lit(" \n")
			if w.has(3 + 2*i) {
				w.lit("Abstract: ")
				w.text(3 + 2*i)
				w.lit(" \n")
			}
			if l := w.label(i); l != "" {
				w.lit("Category: ")
				w.lit(l)
				w.lit(" \n")
			}
			w.lit("}}\n")
		}
	}
	w.lit("Task: \nCategories: \n[")
	for i, c := range categories {
		if i > 0 {
			w.lit(", ")
		}
		w.lit(c)
	}
	w.lit("]\nWhich category does the target ")
	w.lit(nt)
	w.lit(" belong to?\nPlease output the most likely category as a Python list: Category: ['XX'].")
}

// Build renders the prompt following Table III of the paper.
func Build(r Request) string {
	w := requestWriter{r: &r}
	layout(&w, r.NodeType, r.EdgeRelation, r.Ranked, r.Categories, len(r.Neighbors))
	return w.b.String()
}

// requestWriter writes a Request's prompt.
type requestWriter struct {
	r *Request
	b strings.Builder
}

func (w *requestWriter) lit(s string)       { w.b.WriteString(s) }
func (w *requestWriter) text(f int)         { w.b.WriteString(w.field(f)) }
func (w *requestWriter) has(f int) bool     { return w.field(f) != "" }
func (w *requestWriter) label(i int) string { return w.r.Neighbors[i].Label }

func (w *requestWriter) field(f int) string {
	switch f {
	case 0:
		return w.r.TargetTitle
	case 1:
		return w.r.TargetAbstract
	}
	nb := &w.r.Neighbors[(f-2)/2]
	if f%2 == 0 {
		return nb.Title
	}
	return nb.Abstract
}

// Render renders the query's prompt: Build's bytes, written from the
// dictionary.
func (q *Query) Render() string {
	w := queryWriter{q: q}
	w.b.Grow(q.size())
	layout(&w, q.NodeType, q.EdgeRelation, q.Ranked, q.Categories, len(q.Neighbors))
	return w.b.String()
}

// size bounds the byte length of the query's prompt from above.
func (q *Query) size() int {
	n := 512 + len(q.NodeType) + len(q.EdgeRelation)
	for _, c := range q.Categories {
		n += len(c) + 2
	}
	for f := 0; f < q.fields(); f++ {
		n += q.Dict.Size(q.text(f))
	}
	for _, nb := range q.Neighbors {
		n += 64 + len(q.NodeType) + len(nb.Label)
	}
	return n
}

// queryWriter writes a Query's prompt.
type queryWriter struct {
	q *Query
	b strings.Builder
}

func (w *queryWriter) lit(s string)       { w.b.WriteString(s) }
func (w *queryWriter) text(f int)         { w.q.Dict.Write(&w.b, w.q.text(f)) }
func (w *queryWriter) has(f int) bool     { return len(w.q.text(f)) > 0 }
func (w *queryWriter) label(i int) string { return w.q.Neighbors[i].Label }

// Parsed is the structured view a reader recovers from a prompt.
type Parsed struct {
	TargetText    string // title + abstract
	NeighborTexts []string
	// NeighborLabels[i] is the Category line of neighbor i ("" if absent).
	NeighborLabels []string
	Categories     []string
	Ranked         bool
}

// Parse recovers the structured query from a prompt built by Build.
func Parse(p string) (Parsed, error) {
	return parseLines(strings.Split(p, "\n"))
}

// parseLines is Parse over a prompt already split into lines, so the
// compressor validates, locates abstracts and renders from one split.
func parseLines(lines []string) (Parsed, error) {
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

// FormatResponse renders an LLM answer in the format the templates
// request: Category: ['XX'].
func FormatResponse(category string) string {
	return fmt.Sprintf("Category: ['%s']", category)
}

// ParseResponse extracts the category from a response in the requested
// format. It tolerates surrounding text, matching how deployments parse
// real LLM output.
func ParseResponse(s string) (string, error) {
	start := strings.Index(s, "['")
	if start < 0 {
		return "", fmt.Errorf("prompt: response %q has no category list", s)
	}
	rest := s[start+2:]
	end := strings.Index(rest, "']")
	if end < 0 {
		return "", fmt.Errorf("prompt: response %q has unterminated category list", s)
	}
	c := strings.TrimSpace(rest[:end])
	if c == "" {
		return "", fmt.Errorf("prompt: response %q has empty category", s)
	}
	return c, nil
}
