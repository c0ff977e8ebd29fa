package tag

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/prompt"
)

// FuzzLoad hardens snapshot loading against corrupted or adversarial
// documents: it must never panic, and anything it accepts must be a
// structurally valid graph that re-serializes cleanly.
func FuzzLoad(f *testing.F) {
	spec, err := SpecByName("cora")
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, Generate(spec, 3, Options{Scale: 0.05})); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"format":1,"classes":["A"],"nodes":[{"ID":0,"Title":"t","Label":0}],"edges":[]}`)
	f.Add(`{"format":1,"nodes":[],"edges":[[0,1]]}`)
	// Text that is not words joined by single spaces breaks its
	// node's prompt; Load must reject it.
	f.Add(`{"format":1,"classes":["A"],"nodes":[{"ID":0,"Title":"alpha\nbeta","Abstract":"x","Label":0}],"edges":[]}`)
	f.Add(`{"format":1,"classes":["A"],"nodes":[{"ID":0,"Title":"alpha  beta","Abstract":"x","Label":0}],"edges":[]}`)
	f.Add(`{"format":2}`)
	f.Add(`{`)
	f.Add("")
	// Load must also reject class names a category list cannot carry
	// back to Parse.
	f.Add(`{"format":1,"classes":["Alpha\nBeta","Gamma"],"nodes":[{"ID":0,"Title":"t","Abstract":"x","Label":0}],"edges":[]}`)
	f.Add(`{"format":1,"classes":["Alpha, Beta","Gamma"],"nodes":[{"ID":0,"Title":"t","Abstract":"x","Label":1}],"edges":[]}`)
	// ... and class names an answer cannot carry back to ParseResponse.
	f.Add(`{"format":1,"classes":["A']B","Gamma"],"nodes":[{"ID":0,"Title":"t","Abstract":"x","Label":0}],"edges":[]}`)

	f.Fuzz(func(t *testing.T, doc string) {
		g, err := Load(strings.NewReader(doc))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("Load accepted an invalid graph: %v", err)
		}
		for _, c := range g.Classes {
			if c == "" || strings.TrimSpace(c) != c || strings.Contains(c, "\n") || strings.Contains(c, ", ") {
				t.Fatalf("Load accepted class name %q, which a category list cannot carry", c)
			}
			if got, err := prompt.ParseResponse(prompt.FormatResponse(c)); err != nil || got != c {
				t.Fatalf("Load accepted class name %q, which an answer carries back as %q (%v)", c, got, err)
			}
		}
		for v := NodeID(0); int(v) < g.NumNodes(); v++ {
			for _, s := range []string{g.Title(v), g.Abstract(v)} {
				if s != strings.Join(strings.Fields(s), " ") {
					t.Fatalf("Load accepted node %d text %q, which is not words joined by single spaces", v, s)
				}
			}
		}
		var out bytes.Buffer
		if err := Save(&out, g); err != nil {
			t.Fatalf("accepted graph failed to re-save: %v", err)
		}
		if _, err := Load(&out); err != nil {
			t.Fatalf("round trip of accepted graph failed: %v", err)
		}
	})
}
