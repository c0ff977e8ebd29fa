package tag

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

func roundTrip(t *testing.T, g *Graph) *Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return loaded
}

func TestSnapshotRoundTrip(t *testing.T) {
	spec, err := SpecByName("citeseer")
	if err != nil {
		t.Fatal(err)
	}
	g := Generate(spec, 11, Options{Scale: 0.2})
	loaded := roundTrip(t, g)

	if loaded.Name != g.Name || loaded.Display != g.Display {
		t.Errorf("identity changed: %q/%q -> %q/%q", g.Name, g.Display, loaded.Name, loaded.Display)
	}
	if loaded.NumNodes() != g.NumNodes() || loaded.NumEdges() != g.NumEdges() {
		t.Fatalf("size changed: %d/%d -> %d/%d",
			g.NumNodes(), g.NumEdges(), loaded.NumNodes(), loaded.NumEdges())
	}
	for i := range g.Nodes {
		if g.Nodes[i] != loaded.Nodes[i] {
			t.Fatalf("node %d changed: %+v -> %+v", i, g.Nodes[i], loaded.Nodes[i])
		}
		if v := NodeID(i); g.Title(v) != loaded.Title(v) || g.Abstract(v) != loaded.Abstract(v) {
			t.Fatalf("node %d text changed", i)
		}
		ns, ls := g.Neighbors(NodeID(i)), loaded.Neighbors(NodeID(i))
		if len(ns) != len(ls) {
			t.Fatalf("node %d degree changed: %d -> %d", i, len(ns), len(ls))
		}
		for j := range ns {
			if ns[j] != ls[j] {
				t.Fatalf("node %d adjacency changed", i)
			}
		}
	}
	if loaded.EdgeHomophily() != g.EdgeHomophily() {
		t.Error("homophily changed across round trip")
	}
	// The vocabulary index must be rebuilt: signal-word lookups work.
	w := g.Vocab.Signal[0][0]
	if got := loaded.Vocab.ClassOf(w); got != 0 {
		t.Errorf("loaded ClassOf(%q) = %d, want 0", w, got)
	}
	if loaded.Vocab.ClassOf("definitely-not-a-word") != -1 {
		t.Error("unknown word resolved to a class")
	}
}

// TestSnapshotFormat1Compatible loads a snapshot that the string-text
// graph of earlier releases saved (citeseer, 24 nodes, seed 9): it must
// load, re-save byte for byte, and hold the text Generate makes today.
func TestSnapshotFormat1Compatible(t *testing.T) {
	doc, err := os.ReadFile("testdata/citeseer24_format1.json")
	if err != nil {
		t.Fatal(err)
	}
	g, err := Load(bytes.NewReader(doc))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var out bytes.Buffer
	if err := Save(&out, g); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if !bytes.Equal(out.Bytes(), doc) {
		t.Fatal("re-saved snapshot differs from the one loaded")
	}
	spec, err := SmallSpec("citeseer", 24)
	if err != nil {
		t.Fatal(err)
	}
	gen := Generate(spec, 9, Options{})
	for v := NodeID(0); int(v) < gen.NumNodes(); v++ {
		if g.Title(v) != gen.Title(v) || g.Abstract(v) != gen.Abstract(v) || g.Text(v) != gen.Text(v) {
			t.Fatalf("node %d text differs from today's Generate", v)
		}
	}
}

// TestLoadRejectsTextNotInFieldForm: a title or abstract that is not
// words joined by single spaces would break its node's line-oriented
// prompt (a newline splits the Title line, so Parse loses the target
// abstract), so Load rejects it and names the node.
func TestLoadRejectsTextNotInFieldForm(t *testing.T) {
	for _, tc := range []struct{ name, title, abstract string }{
		{"newline in title", `alpha\nbeta`, "gamma"},
		{"double space in title", "alpha  beta", "gamma"},
		{"tab in abstract", "alpha", `gamma\tdelta`},
		{"leading space", " alpha", "gamma"},
		{"trailing space", "alpha", "gamma "},
		{"newline in abstract", "alpha", `gamma\n`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			doc := fmt.Sprintf(`{"format":1,"classes":["A"],"nodes":[{"ID":0,"Title":"ok","Abstract":"fine words","Label":0},`+
				`{"ID":1,"Title":"%s","Abstract":"%s","Label":0}],"edges":[[0,1]]}`, tc.title, tc.abstract)
			_, err := Load(strings.NewReader(doc))
			if err == nil {
				t.Fatalf("accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), "node 1") {
				t.Errorf("error %q does not name node 1", err)
			}
		})
	}
	g, err := Load(strings.NewReader(`{"format":1,"classes":["A"],"nodes":[{"ID":0,"Title":"","Abstract":"one two. three","Label":0}],"edges":[]}`))
	if err != nil {
		t.Fatalf("rejected single-space text: %v", err)
	}
	if g.Title(0) != "" || g.Abstract(0) != "one two. three" || g.Text(0) != " one two. three" {
		t.Fatalf("loaded text %q / %q / %q", g.Title(0), g.Abstract(0), g.Text(0))
	}
}

func TestSnapshotRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"not json", "garbage"},
		{"wrong format", `{"format":99,"nodes":[]}`},
		{"edge out of range", `{"format":1,"classes":["A"],"nodes":[{"ID":0,"Title":"t","Label":0}],"edges":[[0,5]]}`},
		{"self loop", `{"format":1,"classes":["A"],"nodes":[{"ID":0,"Title":"t","Label":0},{"ID":1,"Title":"u","Label":0}],"edges":[[0,0]]}`},
		{"label out of range", `{"format":1,"classes":["A"],"nodes":[{"ID":0,"Title":"t","Label":3}],"edges":[]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Load(strings.NewReader(tc.doc)); err == nil {
				t.Errorf("accepted %s", tc.name)
			}
		})
	}
	if err := Save(&bytes.Buffer{}, nil); err == nil {
		t.Error("Save(nil) accepted")
	}
}

// TestSnapshotLoadedGraphIsUsable checks the loaded graph behaves
// identically under the paper's pipeline entry points.
func TestSnapshotLoadedGraphIsUsable(t *testing.T) {
	spec, err := SpecByName("cora")
	if err != nil {
		t.Fatal(err)
	}
	g := Generate(spec, 13, Options{Scale: 0.1})
	loaded := roundTrip(t, g)

	a, _ := g.KHop(0, 2)
	b, _ := loaded.KHop(0, 2)
	if len(a) != len(b) {
		t.Fatalf("KHop sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("KHop order differs after round trip")
		}
	}
	if g.Text(3) != loaded.Text(3) {
		t.Error("node text differs after round trip")
	}
	if err := loaded.Validate(); err != nil {
		t.Errorf("loaded graph invalid: %v", err)
	}
}
