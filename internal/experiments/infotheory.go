package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/infotheory"
	"repro/internal/predictors"
	"repro/internal/tablefmt"
)

// runFig2 regenerates the Section IV analysis behind Fig. 2: an
// empirical Partial Information Decomposition of I(t, N; y) on each
// dataset. The node-text variable t is the LLM's zero-shot prediction
// (what the node's own text tells the model), the neighbor variable N
// is the majority label among the query's selected 1-hop neighbors,
// and y is the ground truth. The decomposition shows where the
// information gain IG^N = U(N\t;y) + S(t,N;y) actually comes from, and
// H(y|t) — the saturation criterion — explains how much of it each
// dataset can absorb.
func runFig2(cfg Config) (string, error) {
	var b strings.Builder
	b.WriteString("Empirical PID of I(t, N; y) per dataset (bits); Eq. 3-6 of Section IV.\n")
	b.WriteString("t = zero-shot prediction from node text, N = majority neighbor label.\n\n")

	tbl := tablefmt.New("", "dataset", "I(t;y)", "I(N;y)", "I(t,N;y)", "R", "U(t\\N)", "U(N\\t)", "S", "IG^N", "H(y|t)")
	for _, name := range datasetNames(cfg, false) {
		d, err := load(name, cfg)
		if err != nil {
			return "", errf("fig2", err)
		}
		sim := d.sim(gpt35(), cfg)
		ctx := d.ctx(cfg)
		m := predictors.KHopRandom{K: 1}

		classIndex := make(map[string]int, len(d.g.Classes))
		for i, c := range d.g.Classes {
			classIndex[c] = i
		}
		noNeighbor := len(d.g.Classes) // extra code for "no labeled neighbor"

		vanilla, err := core.ExecuteWith(ctx, predictors.Vanilla{}, sim, core.Plan{Queries: d.split.Query}, cfg.exec())
		if err != nil {
			return "", errf("fig2", err)
		}
		var ts, ns, ys []int
		for _, v := range d.split.Query {
			tcode, ok := classIndex[vanilla.Pred[v]]
			if !ok {
				tcode = noNeighbor // unparsable answer: its own code
			}
			// Majority true label among the node's 1-hop selection.
			counts := map[int]int{}
			for _, s := range m.Select(ctx, v) {
				counts[d.g.Nodes[s.ID].Label]++
			}
			ncode, best := noNeighbor, 0
			for label, c := range counts {
				if c > best || (c == best && ncode != noNeighbor && label < ncode) {
					ncode, best = label, c
				}
			}
			ts = append(ts, tcode)
			ns = append(ns, ncode)
			ys = append(ys, d.g.Nodes[v].Label)
		}

		joint, err := infotheory.FromSamples(ts, ns, ys)
		if err != nil {
			return "", errf("fig2", err)
		}
		pid, err := joint.Decompose()
		if err != nil {
			return "", errf("fig2", err)
		}
		tbl.AddRow(
			d.spec.Display,
			fmt.Sprintf("%.3f", pid.MIT),
			fmt.Sprintf("%.3f", pid.MIN),
			fmt.Sprintf("%.3f", pid.MITotal),
			fmt.Sprintf("%.3f", pid.Redundant),
			fmt.Sprintf("%.3f", pid.UniqueT),
			fmt.Sprintf("%.3f", pid.UniqueN),
			fmt.Sprintf("%.3f", pid.Synergy),
			fmt.Sprintf("%.3f", pid.InformationGain()),
			fmt.Sprintf("%.3f", pid.HYGivenT),
		)
	}
	b.WriteString(tbl.String())
	b.WriteString("\nReading: IG^N = U(N\\t;y) + S(t,N;y) exactly (Eq. 5) and never\n")
	b.WriteString("exceeds H(y|t) (Eq. 6). Datasets with small H(y|t) — many saturated\n")
	b.WriteString("nodes — have little room for neighbor text to help, which is what\n")
	b.WriteString("token pruning exploits.\n")
	return b.String(), nil
}
