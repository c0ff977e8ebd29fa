package prompt

import (
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/token"
)

// template is the template text of a run's prompts, counted once: what
// layout writes around the node text of every query over one
// dictionary, node type, edge relation and category list, cut into
// pieces. For each piece it holds the dictionary IDs of its fields,
// the word and token totals of its other fields and its byte length,
// so Query.tally adds a prompt's pieces instead of rendering its
// template and splitting it again, and Render and CompressQuery size
// their output exactly.
//
// Each piece is derived from layout itself: it is what one shape of
// prompt adds to another, both written by layout with the node text
// left out (a probe). The pieces add up because the template puts
// whitespace on both sides of every node-text field and of every line
// a shape adds, so no field of the template spans two pieces or a
// piece and node text: a prompt's fields are its pieces' fields plus
// its node text's.
//
// A template has no method that changes it, so the one every
// goroutine shares (see templateOf) is read without a lock.
type template struct {
	dict         *token.Dict
	nodeType     string
	edgeRelation string
	categories   []string
	// plain is the plain verdict for the node type, edge relation and
	// category list: none holds a newline, and some category is listed
	// as Parse reads it back.
	plain bool

	bare piece // a prompt with no neighbors: head, Abstract lead, task tail
	// firstEntry is neighbor 0's entry without abstract or label
	// (header, opening, "}}"), unranked and ranked; next[i-1] is
	// neighbor i's (opening, "}}").
	firstEntry [2]piece
	next       []piece
	abstract   piece   // a neighbor's Abstract line without its text
	labels     []piece // labels[k] is the Category line of categories[k]
}

// piece is one piece of template text.
type piece struct {
	ids    []int32 // its fields that are dictionary words
	words  int     // its other fields
	tokens int     // their token.Count
	size   int     // its byte length
}

// newTemplate compiles the template of prompts over dictionary d with
// the given node type, edge relation and category list, and up to
// neighbors neighbor entries.
func newTemplate(d *token.Dict, nodeType, edgeRelation string, categories []string, neighbors int) *template {
	t := &template{
		dict:         d,
		nodeType:     nodeType,
		edgeRelation: edgeRelation,
		categories:   slices.Clone(categories),
		plain:        plainTemplate(nodeType, edgeRelation, categories),
	}
	bare := t.shapeOf(false, 0, false, "")
	one := t.shapeOf(false, 1, false, "")
	t.bare = t.added(shape{}, bare)
	t.firstEntry[0] = t.added(bare, one)
	t.firstEntry[1] = t.added(bare, t.shapeOf(true, 1, false, ""))
	t.abstract = t.added(one, t.shapeOf(false, 1, true, ""))
	t.labels = make([]piece, len(t.categories))
	for k, c := range t.categories {
		t.labels[k] = t.added(one, t.shapeOf(false, 1, false, c))
	}
	prev := one
	for n := 2; n <= neighbors; n++ {
		cur := t.shapeOf(false, n, false, "")
		t.next = append(t.next, t.added(prev, cur))
		prev = cur
	}
	return t
}

// plainTemplate is the plain verdict of Query.plain for a node type,
// edge relation and category list: no newline in any, and some
// category with a non-space character and no comma, which Parse's
// split on ", " keeps.
func plainTemplate(nodeType, edgeRelation string, categories []string) bool {
	if strings.Contains(nodeType, "\n") || strings.Contains(edgeRelation, "\n") {
		return false
	}
	listed := false
	for _, c := range categories {
		if strings.Contains(c, "\n") {
			return false
		}
		if strings.TrimSpace(c) != "" && !strings.Contains(c, ",") {
			listed = true
		}
	}
	return listed
}

// fits reports whether t is the template of q's prompt: same
// dictionary, node type, edge relation and category list, and no more
// neighbors than t holds entries for.
func (t *template) fits(q *Query) bool {
	return t.dict == q.Dict && t.nodeType == q.NodeType && t.edgeRelation == q.EdgeRelation &&
		len(q.Neighbors) <= t.neighbors() && slices.Equal(t.categories, q.Categories)
}

// neighbors is how many neighbor entries t holds.
func (t *template) neighbors() int { return 1 + len(t.next) }

// current is the template the latest queries were counted with. A
// run's queries share their dictionary, node type, edge relation and
// category list, so it is compiled about once per run. Like a
// sync.Pool it is only a cache: every use checks that it fits, so no
// result depends on what another caller, or a test, left in it.
var current atomic.Pointer[template]

// templateOf returns the template q's prompt is counted with: the
// current one when it fits q, else a new one, which becomes current
// unless another goroutine has replaced it meanwhile. Within a run, a
// query replaces the template only by listing more neighbors than it
// holds entries for, so a run's templates only grow. A query is never
// counted with a template that does not fit it, whatever its caller
// changed since the last one.
func templateOf(q *Query) *template {
	t := current.Load()
	if t != nil && t.fits(q) {
		return t
	}
	fresh := newTemplate(q.Dict, q.NodeType, q.EdgeRelation, q.Categories, len(q.Neighbors))
	current.CompareAndSwap(t, fresh)
	return fresh
}

// size returns the byte length of q's prompt with template t, whose
// compressible abstracts are abs (each whole when abs is nil): its
// template pieces, titles and kept spans.
func (q *Query) size(t *template, abs []abstract) int {
	n := t.bare.size
	if len(q.Neighbors) > 0 {
		n += t.first(q.Ranked).size
		for i := 1; i < len(q.Neighbors); i++ {
			n += t.next[i-1].size
		}
	}
	for i := range q.Neighbors {
		if l := q.Neighbors[i].Label; l != "" {
			n += t.label(l).size
		}
	}
	for f := 0; f < q.fields(); f++ {
		var size int
		var has bool
		if len(abs) > 0 && abs[0].at == f {
			size, has = abs[0].size(q.Dict)
			abs = abs[1:]
		} else {
			ids := q.text(f)
			size, has = q.Dict.Size(ids), len(ids) > 0
		}
		n += size
		if f >= 3 && f%2 == 1 && has {
			n += t.abstract.size // a neighbor's Abstract line
		}
	}
	return n
}

// probe is a writer of a prompt shape's template text: what layout
// writes for a query with its node text left out, whose neighbors
// all have an abstract line or none do, and whose neighbor 0 has
// category line label ("" for none).
type probe struct {
	b        strings.Builder
	abstract bool
	label0   string
}

func (p *probe) lit(s string) { p.b.WriteString(s) }
func (p *probe) text(int)     {}
func (p *probe) has(int) bool { return p.abstract }
func (p *probe) label(i int) string {
	if i == 0 {
		return p.label0
	}
	return ""
}

// shape is the template text of one shape of prompt: its fields, in
// order, and its byte length.
type shape struct {
	fields []string
	size   int
}

// shapeOf returns the template text of a prompt shape (see probe).
func (t *template) shapeOf(ranked bool, neighbors int, abstract bool, label string) shape {
	p := probe{abstract: abstract, label0: label}
	p.b.Grow(512 + 64*neighbors)
	layout(&p, t.nodeType, t.edgeRelation, ranked, t.categories, neighbors)
	text := p.b.String()
	n := 0
	token.ForFields(text, func(string) { n++ })
	sh := shape{fields: make([]string, 0, n), size: len(text)}
	token.ForFields(text, func(w string) { sh.fields = append(sh.fields, w) })
	return sh
}

// added returns the piece shape to adds to shape from. to's fields are
// from's with the piece's inserted at one place, so past their common
// leading fields the next ones to holds beyond from's count are the
// piece's fields, perhaps rotated: the same words, the same counts.
func (t *template) added(from, to shape) piece {
	p := piece{size: to.size - from.size}
	k := 0
	for k < len(from.fields) && from.fields[k] == to.fields[k] {
		k++
	}
	for _, w := range to.fields[k : k+len(to.fields)-len(from.fields)] {
		if id, ok := t.dict.Lookup(w); ok {
			p.ids = append(p.ids, id)
			continue
		}
		p.words++
		p.tokens += token.Count(w)
	}
	return p
}

// first returns neighbor 0's entry piece.
func (t *template) first(ranked bool) *piece {
	if ranked {
		return &t.firstEntry[1]
	}
	return &t.firstEntry[0]
}

// label returns the Category line piece of label l.
func (t *template) label(l string) *piece {
	for k, c := range t.categories {
		if c == l {
			return &t.labels[k]
		}
	}
	// A label outside the list: derived the same way, for this call.
	p := t.added(t.shapeOf(false, 1, false, ""), t.shapeOf(false, 1, false, l))
	return &p
}
