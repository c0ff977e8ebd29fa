package tag

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/textgen"
	"repro/internal/token"
)

// Snapshot persistence: a Graph serializes to a single JSON document so
// generated datasets can be saved once and reloaded by tools, tests and
// long-running services without regenerating. The format is versioned;
// Load rejects unknown versions and structurally invalid graphs.

// snapshotFormat is bumped on breaking changes to the snapshot schema.
const snapshotFormat = 1

// snapshot is the on-disk representation of a Graph.
type snapshot struct {
	Format  int            `json:"format"`
	Name    string         `json:"name"`
	Display string         `json:"display"`
	Classes []string       `json:"classes"`
	Nodes   []snapshotNode `json:"nodes"`
	// Edges lists each undirected edge once with u < v.
	Edges [][2]NodeID `json:"edges"`
	Vocab *vocabDoc   `json:"vocab,omitempty"`
}

// snapshotNode is one node on disk: its text as strings, its other
// fields as in Node, in the order format 1 has always written them.
type snapshotNode struct {
	ID        NodeID
	Title     string
	Abstract  string
	Label     int
	Ambiguity float64
	Noisy     bool
}

// vocabDoc persists the generating vocabulary (its lookup index is
// rebuilt on load).
type vocabDoc struct {
	Signal     [][]string `json:"signal"`
	Background []string   `json:"background"`
	Confuser   []int      `json:"confuser"`
}

// Save writes the graph as one JSON document.
func Save(w io.Writer, g *Graph) error {
	if g == nil {
		return fmt.Errorf("tag: cannot save nil graph")
	}
	s := snapshot{
		Format:  snapshotFormat,
		Name:    g.Name,
		Display: g.Display,
		Classes: g.Classes,
		Nodes:   make([]snapshotNode, len(g.Nodes)),
	}
	for i, n := range g.Nodes {
		s.Nodes[i] = snapshotNode{
			ID:        n.ID,
			Title:     g.Title(NodeID(i)),
			Abstract:  g.Abstract(NodeID(i)),
			Label:     n.Label,
			Ambiguity: n.Ambiguity,
			Noisy:     n.Noisy,
		}
	}
	for u, ns := range g.adj {
		for _, v := range ns {
			if NodeID(u) < v {
				s.Edges = append(s.Edges, [2]NodeID{NodeID(u), v})
			}
		}
	}
	if g.Vocab != nil {
		s.Vocab = &vocabDoc{
			Signal:     g.Vocab.Signal,
			Background: g.Vocab.Background,
			Confuser:   g.Vocab.Confuser,
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&s)
}

// Load reads a snapshot written by Save, rebuilds adjacency and the
// vocabulary index, and validates the result. Every title and abstract
// must be words joined by single spaces — no newline, tab, run of
// spaces or leading or trailing space — because prompts are
// line-oriented and node text is stored as words: Load interns each
// text into the graph's dictionary and rejects any other text. Every
// class name must survive a prompt's category list, one line of names
// joined by ", " that prompt.Parse splits and trims: Load rejects an
// empty name, one with leading or trailing space, and one holding a
// newline or ", ". It must also survive an answer, Category: ['name'],
// which prompt.ParseResponse ends at the first "']": Load rejects a
// name holding "']".
func Load(r io.Reader) (*Graph, error) {
	var s snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("tag: decoding snapshot: %w", err)
	}
	if s.Format != snapshotFormat {
		return nil, fmt.Errorf("tag: snapshot format %d not supported (want %d)", s.Format, snapshotFormat)
	}
	for k, c := range s.Classes {
		if c == "" || strings.TrimSpace(c) != c || strings.Contains(c, "\n") || strings.Contains(c, ", ") {
			return nil, fmt.Errorf("tag: snapshot class %d: name %.40q cannot be listed in a prompt", k, c)
		}
		if strings.Contains(c, "']") {
			return nil, fmt.Errorf("tag: snapshot class %d: name %.40q cannot be read back from an answer", k, c)
		}
	}
	g := &Graph{
		Name:    s.Name,
		Display: s.Display,
		Classes: s.Classes,
		Nodes:   make([]Node, len(s.Nodes)),
		adj:     make([][]NodeID, len(s.Nodes)),
		bounds:  make([]int32, 2*len(s.Nodes)+1),
	}
	spec, _ := SpecByName(s.Name) // the zero Spec for an unknown name
	g.NodeType, g.EdgeRelation = spec.promptWords()
	dict := token.NewBuilder(0)
	for i, sn := range s.Nodes {
		if !token.InFieldForm(sn.Title) {
			return nil, fmt.Errorf("tag: snapshot node %d: title %.40q is not words joined by single spaces", i, sn.Title)
		}
		if !token.InFieldForm(sn.Abstract) {
			return nil, fmt.Errorf("tag: snapshot node %d: abstract %.40q is not words joined by single spaces", i, sn.Abstract)
		}
		g.words = dict.AppendFields(g.words, sn.Title)
		g.bounds[2*i+1] = int32(len(g.words))
		g.words = dict.AppendFields(g.words, sn.Abstract)
		g.bounds[2*i+2] = int32(len(g.words))
		g.Nodes[i] = Node{ID: sn.ID, Label: sn.Label, Ambiguity: sn.Ambiguity, Noisy: sn.Noisy}
	}
	g.dict = dict.Dict
	n := NodeID(len(s.Nodes))
	for _, e := range s.Edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			return nil, fmt.Errorf("tag: snapshot edge %v out of range [0,%d)", e, n)
		}
		g.addEdge(e[0], e[1])
	}
	g.sortAdj()
	if s.Vocab != nil {
		g.Vocab = snapshotVocab(s.Vocab)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("tag: snapshot invalid: %w", err)
	}
	return g, nil
}

// snapshotVocab materializes a persisted vocabulary and rebuilds its
// word→class index.
func snapshotVocab(d *vocabDoc) *textgen.Vocabulary {
	v := &textgen.Vocabulary{
		Signal:     d.Signal,
		Background: d.Background,
		Confuser:   d.Confuser,
	}
	v.RebuildIndex()
	return v
}
