package experiments

import (
	"fmt"
	"strings"

	"repro/internal/predictors"
	"repro/internal/prompt"
	"repro/internal/tablefmt"
	"repro/internal/tag"
	"repro/internal/token"
)

// runTable2 regenerates Table II: per-dataset statistics, reporting
// both the paper-scale numbers (used verbatim by Table V) and the
// statistics of the generated instance.
func runTable2(cfg Config) (string, error) {
	t := tablefmt.New(
		"Table II: statistics of datasets (paper scale | generated instance)",
		"Dataset", "#Nodes", "#Edges", "#Feat", "#Classes", "NodeType", "TextType", "EdgeType",
		"GenNodes", "GenEdges", "GenHomophily", "GenMeanDeg",
	)
	for _, name := range tag.SortedNames() {
		d, err := load(name, cfg)
		if err != nil {
			return "", errf("table2", err)
		}
		st := tag.Summarize(d.g, d.spec)
		t.AddRow(
			st.Name,
			tablefmt.Int(int64(st.FullNodes)),
			tablefmt.Int(int64(st.FullEdges)),
			tablefmt.Int(int64(st.FullFeatures)),
			fmt.Sprint(st.Classes),
			st.NodeType, st.TextType, st.EdgeType,
			tablefmt.Int(int64(st.Nodes)),
			tablefmt.Int(int64(st.Edges)),
			tablefmt.F(st.Homophily, 3),
			tablefmt.F(st.MeanDegree, 2),
		)
	}
	return t.String(), nil
}

// neighborTextConfigs are Table V's four neighbor-text configurations.
var neighborTextConfigs = []struct {
	label     string
	neighbors int
	abstracts bool
}{
	{"4 Neighbors, Title Only", 4, false},
	{"10 Neighbors, Title Only", 10, false},
	{"4 Neighbors, Title & Abstract", 4, true},
	{"10 Neighbors, Title & Abstract", 10, true},
}

// runTable5 regenerates Table V: tokens reducible via pruning. The
// proportion of saturated nodes τ is proxied by vanilla zero-shot
// accuracy on the query sample (as in the paper), the neighbor-text
// token average is measured from built prompts, and the reducible
// count is FullNodes × τ × avgNeighborTokens.
func runTable5(cfg Config) (string, error) {
	type col struct {
		display   string
		total     int
		tau       float64
		nbTokens  [4]float64
		reducible [4]int64
	}
	var cols []col
	for _, name := range tag.SortedNames() {
		d, err := load(name, cfg)
		if err != nil {
			return "", errf("table5", err)
		}
		sim := d.sim(gpt35(), cfg)

		// Zero-shot accuracy over the query set = saturation proxy.
		correct := 0
		for _, v := range d.split.Query {
			q := prompt.Query{
				Dict:           d.g.Dict(),
				TargetTitle:    d.g.TitleIDs(v),
				TargetAbstract: d.g.AbstractIDs(v),
				Categories:     d.g.Classes,
				NodeType:       d.g.NodeType,
			}
			resp, err := sim.Query(q.Render())
			if err != nil {
				return "", errf("table5", err)
			}
			if resp.Category == d.g.Classes[d.g.Nodes[v].Label] {
				correct++
			}
		}
		c := col{
			display: d.spec.Display,
			total:   d.spec.FullNodes,
			tau:     float64(correct) / float64(len(d.split.Query)),
		}

		// Neighbor-text token averages per configuration, measured on a
		// sample of built prompts.
		sample := d.split.Query
		if len(sample) > 200 {
			sample = sample[:200]
		}
		for ci, ntc := range neighborTextConfigs {
			ctx := d.ctx(cfg)
			ctx.M = ntc.neighbors
			ctx.IncludeAbstracts = ntc.abstracts
			var sum float64
			m := khop1()
			for _, v := range sample {
				sel := m.Select(ctx, v)
				withNb := predictors.BuildPrompt(ctx, v, sel, false)
				bare := predictors.BuildPrompt(ctx, v, nil, false)
				sum += float64(token.Count(withNb) - token.Count(bare))
			}
			c.nbTokens[ci] = sum / float64(len(sample))
			c.reducible[ci] = int64(float64(c.total) * c.tau * c.nbTokens[ci])
		}
		cols = append(cols, c)
	}

	var b strings.Builder
	t := tablefmt.New("Table V: tokens potentially reducible via token pruning",
		append([]string{"Row"}, displayNames(cols, func(c col) string { return c.display })...)...)
	t.AddRow(prependStr("# Total queries", mapCols(cols, func(c col) string { return tablefmt.Int(int64(c.total)) }))...)
	t.AddRow(prependStr("Proportion of saturated nodes", mapCols(cols, func(c col) string { return tablefmt.Pct(c.tau) + "%" }))...)
	for ci, ntc := range neighborTextConfigs {
		t.AddRow(prependStr(ntc.label+": # Neighbor Text Tokens", mapCols(cols, func(c col) string { return tablefmt.F(c.nbTokens[ci], 3) }))...)
		t.AddRow(prependStr(ntc.label+": # Potentially Reducible Tokens", mapCols(cols, func(c col) string { return tablefmt.Int(c.reducible[ci]) }))...)
	}
	b.WriteString(t.String())
	return b.String(), nil
}

// Small generic helpers for column-major tables.

func displayNames[T any](cols []T, f func(T) string) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = f(c)
	}
	return out
}

func mapCols[T any](cols []T, f func(T) string) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = f(c)
	}
	return out
}

func prependStr(head string, rest []string) []string {
	return append([]string{head}, rest...)
}
