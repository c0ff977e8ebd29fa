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
	"errors"
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
			w.lit(", " + rankedPhrase)
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
// dictionary into a buffer of their exact size.
func (q *Query) Render() string { return q.render(templateOf(q)) }

// render is Render with the query's template t.
func (q *Query) render(t *template) string {
	w := queryWriter{q: q}
	w.b.Grow(q.size(t, nil))
	layout(&w, q.NodeType, q.EdgeRelation, q.Ranked, q.Categories, len(q.Neighbors))
	return w.b.String()
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
	var out Parsed
	var title string
	var text []string
	sc := NewScanner(p)
	for sc.Scan() {
		switch sc.Part() {
		case TargetTitle:
			title = sc.Text()
		case TargetAbstract:
			out.TargetText = strings.TrimSpace(title + " " + sc.Text())
		case Header:
			out.Ranked = strings.Contains(sc.Text(), rankedPhrase)
		case NeighborText:
			text = append(text, sc.Text())
		case NeighborEnd:
			out.NeighborTexts = append(out.NeighborTexts, strings.Join(text, " "))
			out.NeighborLabels = append(out.NeighborLabels, sc.Text())
			text = text[:0]
		case Category:
			out.Categories = append(out.Categories, sc.Text())
		}
	}
	return out, sc.Err()
}

// parses reports whether Parse reads p without an error.
func parses(p string) bool {
	sc := NewScanner(p)
	for sc.Scan() {
	}
	return sc.Err() == nil
}

// rankedPhrase is what SNS's neighbor header adds.
const rankedPhrase = "from most related to least related"

// Part is the kind of one part of a prompt, as a Scanner reads it.
type Part uint8

const (
	// TargetTitle is the target's title, and TargetAbstract its
	// abstract.
	TargetTitle Part = iota
	TargetAbstract
	// Header is a neighbor header line, whole.
	Header
	// NeighborText is the text of one Title or Abstract line of the
	// current neighbor entry.
	NeighborText
	// NeighborEnd closes a neighbor entry; its text is the entry's
	// label: its last Category line's, or "" when it has none.
	NeighborEnd
	// Category is one name of the category list.
	Category
)

// Scanner reads a prompt built by Build part by part, in prompt order,
// and accepts exactly what Parse accepts, failing with Parse's error.
// Each part's text is a substring of the prompt, trimmed as Parse
// trims it, so a scan copies and allocates nothing; Parse itself is a
// Scanner's loop. A prompt that fails may have yielded parts before
// the line that fails.
type Scanner struct {
	rest    string // the prompt after the lines read
	done    bool   // every line is read
	state   scanState
	label   string // the current entry's label
	list    string // the category list not yet read
	listEnd bool   // list is empty or holds the list's last name
	n       int    // categories read
	part    Part
	text    string
	err     error
}

// scanState is what a Scanner reads next.
type scanState uint8

const (
	scanTitle scanState = iota
	scanAbstract
	scanBlock
	scanEntry
	scanTask
	scanList
	scanDone
)

// NewScanner returns a Scanner of prompt p.
func NewScanner(p string) Scanner { return Scanner{rest: p} }

// line returns the next line of the prompt, as strings.Split(p, "\n")
// yields them; ok is false past the last.
func (s *Scanner) line() (line string, ok bool) {
	if s.done {
		return "", false
	}
	if i := strings.IndexByte(s.rest, '\n'); i >= 0 {
		line, s.rest = s.rest[:i], s.rest[i+1:]
		return line, true
	}
	s.done = true
	return s.rest, true
}

// emit makes (p, text) the current part.
func (s *Scanner) emit(p Part, text string) bool {
	s.part, s.text = p, text
	return true
}

// fail ends the scan with err.
func (s *Scanner) fail(err error) bool {
	s.state, s.err = scanDone, err
	return false
}

// Scan advances to the next part, reporting false at the end of the
// prompt or on an error.
func (s *Scanner) Scan() bool {
	for {
		switch s.state {
		case scanTitle:
			// Target line: "Target <type>: Title: ... "
			line, _ := s.line()
			if !strings.HasPrefix(line, "Target ") {
				return s.fail(errors.New("prompt: missing target line"))
			}
			ti := strings.Index(line, "Title: ")
			if ti < 0 {
				return s.fail(errors.New("prompt: target line missing title"))
			}
			s.state = scanAbstract
			return s.emit(TargetTitle, strings.TrimSpace(line[ti+len("Title: "):]))
		case scanAbstract:
			line, ok := s.line()
			if !ok || !strings.HasPrefix(line, "Abstract: ") {
				return s.fail(errors.New("prompt: missing target abstract"))
			}
			s.state = scanBlock
			return s.emit(TargetAbstract, strings.TrimSpace(strings.TrimPrefix(line, "Abstract: ")))
		case scanBlock:
			// Optional neighbor block.
			line, ok := s.line()
			switch {
			case !ok:
				return s.fail(errors.New("prompt: missing task section"))
			case line == "":
			case strings.HasPrefix(line, "Target ") && strings.Contains(line, "neighbors"):
				return s.emit(Header, line)
			case strings.HasPrefix(line, "Neighbor "):
				// Entry spans until the closing "}}".
				s.state, s.label = scanEntry, ""
			case strings.HasPrefix(line, "Task:"):
				s.state = scanTask
			default:
				return s.fail(fmt.Errorf("prompt: unexpected line %q", line))
			}
		case scanEntry:
			line, ok := s.line()
			switch {
			case !ok:
				return s.fail(errors.New("prompt: unterminated neighbor entry"))
			case line == "}}":
				s.state = scanBlock
				return s.emit(NeighborEnd, s.label)
			case strings.HasPrefix(line, "Title: "):
				return s.emit(NeighborText, strings.TrimSpace(strings.TrimPrefix(line, "Title: ")))
			case strings.HasPrefix(line, "Abstract: "):
				return s.emit(NeighborText, strings.TrimSpace(strings.TrimPrefix(line, "Abstract: ")))
			case strings.HasPrefix(line, "Category: "):
				s.label = strings.TrimSpace(strings.TrimPrefix(line, "Category: "))
			}
		case scanTask:
			if line, ok := s.line(); !ok || !strings.HasPrefix(line, "Categories:") {
				return s.fail(errors.New("prompt: missing categories header"))
			}
			line, ok := s.line()
			if !ok || !strings.HasPrefix(line, "[") || !strings.HasSuffix(line, "]") {
				return s.fail(errors.New("prompt: missing category list"))
			}
			s.state, s.list = scanList, strings.TrimSuffix(strings.TrimPrefix(line, "["), "]")
		case scanList:
			// The names are the list split on ", " and trimmed, empty
			// ones left out.
			for !s.listEnd {
				c, rest, found := strings.Cut(s.list, ", ")
				s.list, s.listEnd = rest, !found
				if c = strings.TrimSpace(c); c != "" {
					s.n++
					return s.emit(Category, c)
				}
			}
			if s.n == 0 {
				return s.fail(errors.New("prompt: empty category list"))
			}
			s.state = scanDone
		default:
			return false
		}
	}
}

// Part returns the kind of the current part.
func (s *Scanner) Part() Part { return s.part }

// Text returns the current part's text.
func (s *Scanner) Text() string { return s.text }

// Err returns the error that ended the scan, or nil.
func (s *Scanner) Err() error { return s.err }

// FormatResponse renders an LLM answer in the format the templates
// request: Category: ['XX'].
func FormatResponse(category string) string {
	return "Category: ['" + category + "']"
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
