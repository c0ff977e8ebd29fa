// Command taggen generates a synthetic TAG benchmark dataset and
// reports its statistics, class distribution and a sample of node text.
//
// Usage:
//
//	taggen -dataset cora
//	taggen -dataset ogbn-arxiv -scale 0.05 -sample 3 -seed 7
//	taggen -dataset pubmed -save pubmed.json     # persist a snapshot
//	taggen -load pubmed.json                     # inspect a snapshot
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/tablefmt"
	"repro/internal/tag"
)

func main() {
	var (
		name   = flag.String("dataset", "cora", "dataset name: "+strings.Join(tag.SortedNames(), ", "))
		seed   = flag.Uint64("seed", 1, "deterministic seed")
		scale  = flag.Float64("scale", 1.0, "node-count scale factor")
		sample = flag.Int("sample", 2, "number of sample nodes to print")
		save   = flag.String("save", "", "write the generated graph to this JSON snapshot file")
		load   = flag.String("load", "", "read the graph from a JSON snapshot instead of generating")
	)
	flag.Parse()

	var g *tag.Graph
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			fmt.Fprintf(os.Stderr, "taggen: %v\n", err)
			os.Exit(2)
		}
		g, err = tag.Load(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "taggen: %v\n", err)
			os.Exit(1)
		}
		*name = g.Name
	}
	spec, err := tag.SpecByName(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "taggen: %v\n", err)
		os.Exit(2)
	}
	if g == nil {
		g = tag.Generate(spec, *seed, tag.Options{Scale: *scale})
	}
	if err := g.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "taggen: generated graph invalid: %v\n", err)
		os.Exit(1)
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fmt.Fprintf(os.Stderr, "taggen: %v\n", err)
			os.Exit(1)
		}
		err = tag.Save(f, g)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "taggen: saving snapshot: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("snapshot written to %s\n\n", *save)
	}
	st := tag.Summarize(g, spec)

	t := tablefmt.New(fmt.Sprintf("%s (seed %d, scale %.2f)", spec.Display, *seed, *scale),
		"stat", "value")
	t.AddRow("nodes", tablefmt.Int(int64(st.Nodes)))
	t.AddRow("edges", tablefmt.Int(int64(st.Edges)))
	t.AddRow("classes", fmt.Sprint(st.Classes))
	t.AddRow("edge homophily", tablefmt.F(st.Homophily, 3))
	t.AddRow("mean degree", tablefmt.F(st.MeanDegree, 2))
	t.AddRow("max degree", fmt.Sprint(st.MaxDegree))
	t.AddRow("isolated nodes", fmt.Sprint(st.Isolated))
	t.AddRow("paper-scale nodes", tablefmt.Int(int64(st.FullNodes)))
	t.AddRow("paper-scale edges", tablefmt.Int(int64(st.FullEdges)))
	fmt.Print(t.String())

	dist := tag.ClassDistribution(g)
	labels := make([]string, len(dist))
	values := make([]float64, len(dist))
	for i, c := range dist {
		labels[i] = g.Classes[i]
		values[i] = float64(c)
	}
	fmt.Println()
	fmt.Print(tablefmt.Bar("class distribution", labels, values, 40))

	for i := 0; i < *sample && i < g.NumNodes(); i++ {
		n := g.Nodes[i]
		fmt.Printf("\nnode %d  class=%s  ambiguity=%.2f  degree=%d\n  title: %s\n  abstract: %.160s...\n",
			n.ID, g.Classes[n.Label], n.Ambiguity, g.Degree(n.ID), g.Title(n.ID), g.Abstract(n.ID))
	}
}
