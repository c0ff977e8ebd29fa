package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/predictors"
	"repro/internal/tablefmt"
	"repro/internal/tag"
)

// runFig3 regenerates the motivation figure: on Cora and Citeseer,
// split queries by whether their 1-hop neighbor text contains labels
// (N_i^L ≠ ∅), and report the accuracy gain of 1-hop random over
// vanilla zero-shot for each group (the IG proxy), plus the group
// proportions (the pie charts).
func runFig3(cfg Config) (string, error) {
	var b strings.Builder
	for _, name := range []string{"cora", "citeseer"} {
		d, err := load(name, cfg)
		if err != nil {
			return "", errf("fig3", err)
		}
		sim := d.sim(gpt35(), cfg)
		m := predictors.KHopRandom{K: 1}
		ctx := d.ctx(cfg)
		plan := core.Plan{Queries: d.split.Query}
		vanilla, err := core.ExecuteWith(ctx, predictors.Vanilla{}, sim, plan, cfg.exec())
		if err != nil {
			return "", errf("fig3", err)
		}
		khop, err := core.ExecuteWith(ctx, m, sim, plan, cfg.exec())
		if err != nil {
			return "", errf("fig3", err)
		}

		type group struct{ vanillaOK, khopOK, n int }
		var withL, withoutL group
		for _, v := range d.split.Query {
			grp := &withoutL
			if predictors.CountLabeled(m.Select(ctx, v)) > 0 {
				grp = &withL
			}
			grp.n++
			truth := d.g.Classes[d.g.Nodes[v].Label]
			if vanilla.Pred[v] == truth {
				grp.vanillaOK++
			}
			// The 1-hop query asked with this same selection.
			if khop.Pred[v] == truth {
				grp.khopOK++
			}
		}
		gain := func(g group) float64 {
			if g.n == 0 {
				return 0
			}
			return float64(g.khopOK-g.vanillaOK) / float64(g.n)
		}
		frac := func(g group) float64 {
			return float64(g.n) / float64(len(d.split.Query))
		}
		fmt.Fprintf(&b, "Fig. 3 (%s): IG proxy = acc(1-hop random) - acc(vanilla zero-shot)\n", d.spec.Display)
		b.WriteString(tablefmt.Bar("", []string{"N_i^L != {} (IG)", "N_i^L == {} (IG)"},
			[]float64{gain(withL), gain(withoutL)}, 40))
		fmt.Fprintf(&b, "query share: N_i^L != {} %.1f%%, N_i^L == {} %.1f%%\n\n",
			100*frac(withL), 100*frac(withoutL))
	}
	return b.String(), nil
}

// runTable4 regenerates Table IV: for every dataset and method, the
// original accuracy, the accuracy with the top 20% of queries (by
// ascending D(t_i)) pruned, and the relative change Δ%.
func runTable4(cfg Config) (string, error) {
	names := datasetNames(cfg, true)
	type cell struct{ base, pruned float64 }
	results := map[string]map[string]cell{} // method -> dataset -> cell
	var methods []predictors.Method = predictors.Standard()

	for _, name := range names {
		d, err := load(name, cfg)
		if err != nil {
			return "", errf("table4", err)
		}
		sim := d.sim(gpt35(), cfg)
		iq, err := d.fitInadequacy(sim, cfg)
		if err != nil {
			return "", errf("table4", err)
		}
		plan := core.PrunePlan(iq, d.g, d.split.Query, 0.20)
		shared := predictors.NewSimilarity(d.g)
		for _, m := range methods {
			ctxBase := d.ctx(cfg)
			ctxBase.SetSimilarity(shared)
			base, err := core.ExecuteWith(ctxBase, m, sim, core.Plan{Queries: d.split.Query}, cfg.exec())
			if err != nil {
				return "", errf("table4", err)
			}
			ctxPruned := d.ctx(cfg)
			ctxPruned.SetSimilarity(shared)
			pruned, err := core.ExecuteWith(ctxPruned, m, sim, plan, cfg.exec())
			if err != nil {
				return "", errf("table4", err)
			}
			if results[m.Name()] == nil {
				results[m.Name()] = map[string]cell{}
			}
			results[m.Name()][name] = cell{
				base:   core.Accuracy(d.g, base.Pred),
				pruned: core.Accuracy(d.g, pruned.Pred),
			}
		}
	}

	headers := append([]string{"Method"}, displayOf(names)...)
	t := tablefmt.New("Table IV: classification accuracy (%) with 20% of queries pruned", headers...)
	for _, m := range methods {
		baseRow := []string{m.Name()}
		prunedRow := []string{"w/ token prune"}
		deltaRow := []string{"Δ%"}
		for _, name := range names {
			c := results[m.Name()][name]
			baseRow = append(baseRow, tablefmt.Pct(c.base))
			prunedRow = append(prunedRow, tablefmt.Pct(c.pruned))
			delta := 0.0
			if c.base > 0 {
				delta = (c.pruned - c.base) / c.base
			}
			deltaRow = append(deltaRow, tablefmt.PctDelta(delta))
		}
		t.AddRow(baseRow...)
		t.AddRow(prunedRow...)
		t.AddRow(deltaRow...)
	}
	return t.String(), nil
}

// runFig7 regenerates Fig. 7: accuracy of the 1-hop random method when
// token budgets allow neighbor text for only 100..0% of queries,
// comparing inadequacy-guided pruning against random pruning.
func runFig7(cfg Config) (string, error) {
	names := datasetNames(cfg, true)
	inclusion := []float64{1.0, 0.8, 0.6, 0.4, 0.2, 0.0}
	xs := make([]string, len(inclusion))
	for i, inc := range inclusion {
		xs[i] = fmt.Sprintf("%d%%", int(inc*100))
	}

	var b strings.Builder
	for _, name := range names {
		d, err := load(name, cfg)
		if err != nil {
			return "", errf("fig7", err)
		}
		sim := d.sim(gpt35(), cfg)
		iq, err := d.fitInadequacy(sim, cfg)
		if err != nil {
			return "", errf("fig7", err)
		}
		m := khop1()
		ours := make([]float64, len(inclusion))
		random := make([]float64, len(inclusion))
		oracle := make([]float64, len(inclusion))
		for i, inc := range inclusion {
			tau := 1 - inc
			resO, err := core.ExecuteWith(d.ctx(cfg), m, sim, core.PrunePlan(iq, d.g, d.split.Query, tau), cfg.exec())
			if err != nil {
				return "", errf("fig7", err)
			}
			ours[i] = core.Accuracy(d.g, resO.Pred)
			resR, err := core.ExecuteWith(d.ctx(cfg), m, sim, core.RandomPrunePlan(d.split.Query, tau, cfg.Seed+uint64(i)*31), cfg.exec())
			if err != nil {
				return "", errf("fig7", err)
			}
			random[i] = core.Accuracy(d.g, resR.Pred)
			// Upper bound: prune exactly the zero-shot-correct queries.
			oraclePlan, err := core.OraclePrunePlan(d.ctx(cfg), sim, d.split.Query, tau)
			if err != nil {
				return "", errf("fig7", err)
			}
			resU, err := core.ExecuteWith(d.ctx(cfg), m, sim, oraclePlan, cfg.exec())
			if err != nil {
				return "", errf("fig7", err)
			}
			oracle[i] = core.Accuracy(d.g, resU.Pred)
		}
		b.WriteString(tablefmt.RenderSeries(
			fmt.Sprintf("Fig. 7 (%s): accuracy vs %% of queries allowed neighbor text (1-hop random)", d.spec.Display),
			xs,
			[]tablefmt.Series{
				{Name: "token pruning (ours)", Y: ours},
				{Name: "random", Y: random},
				{Name: "oracle (upper bound)", Y: oracle},
			},
			3,
		))
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// runTable6 regenerates Table VI: average text-inadequacy D(t_i) of
// saturated versus non-saturated query nodes, where saturation is
// decided by vanilla zero-shot correctness.
func runTable6(cfg Config) (string, error) {
	names := datasetNames(cfg, true)
	t := tablefmt.New("Table VI: average text-inadequacy, saturated vs non-saturated nodes",
		append([]string{"Node Type"}, displayOf(names)...)...)
	satRow := []string{"Saturated"}
	nonRow := []string{"Non-saturated"}
	for _, name := range names {
		d, err := load(name, cfg)
		if err != nil {
			return "", errf("table6", err)
		}
		sim := d.sim(gpt35(), cfg)
		iq, err := d.fitInadequacy(sim, cfg)
		if err != nil {
			return "", errf("table6", err)
		}
		vanilla, err := core.ExecuteWith(d.ctx(cfg), predictors.Vanilla{}, sim, core.Plan{Queries: d.split.Query}, cfg.exec())
		if err != nil {
			return "", errf("table6", err)
		}
		var satSum, nonSum float64
		var satN, nonN int
		for _, v := range d.split.Query {
			dScore := iq.ScoreNode(d.g, v)
			if vanilla.Pred[v] == d.g.Classes[d.g.Nodes[v].Label] {
				satSum += dScore
				satN++
			} else {
				nonSum += dScore
				nonN++
			}
		}
		satRow = append(satRow, tablefmt.F(safeDiv(satSum, satN), 3))
		nonRow = append(nonRow, tablefmt.F(safeDiv(nonSum, nonN), 3))
	}
	t.AddRow(satRow...)
	t.AddRow(nonRow...)
	return t.String(), nil
}

// runTable7 regenerates Table VII: query boosting across methods on
// the small datasets with both LLM profiles.
func runTable7(cfg Config) (string, error) {
	profiles := []llm.Profile{gpt4oMini(), gpt35()}
	var b strings.Builder
	for _, prof := range profiles {
		t := tablefmt.New(
			fmt.Sprintf("Table VII (%s): classification accuracy (%%) with query boosting", prof.Name),
			append([]string{"Method"}, displayOf(smallNames)...)...)
		for _, m := range predictors.Standard() {
			baseRow := []string{m.Name()}
			boostRow := []string{"w/ query boost"}
			for _, name := range smallNames {
				d, err := load(name, cfg)
				if err != nil {
					return "", errf("table7", err)
				}
				sim := d.sim(prof, cfg)
				shared := predictors.NewSimilarity(d.g)
				ctxB := d.ctx(cfg)
				ctxB.SetSimilarity(shared)
				base, err := core.ExecuteWith(ctxB, m, sim, core.Plan{Queries: d.split.Query}, cfg.exec())
				if err != nil {
					return "", errf("table7", err)
				}
				ctxQ := d.ctx(cfg)
				ctxQ.SetSimilarity(shared)
				boosted, _, err := core.BoostWith(ctxQ, m, sim, core.Plan{Queries: d.split.Query}, core.DefaultBoostConfig(), cfg.exec())
				if err != nil {
					return "", errf("table7", err)
				}
				accB := core.Accuracy(d.g, base.Pred)
				accQ := core.Accuracy(d.g, boosted.Pred)
				baseRow = append(baseRow, tablefmt.Pct(accB))
				arrow := ""
				if accQ > accB {
					arrow = "^"
				}
				boostRow = append(boostRow, tablefmt.Pct(accQ)+arrow)
			}
			t.AddRow(baseRow...)
			t.AddRow(boostRow...)
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// runTable8 regenerates Table VIII: the joint strategy (prune 20% then
// boost) against the unoptimized methods, reporting accuracy and the
// number of queries that keep neighbor text.
func runTable8(cfg Config) (string, error) {
	profiles := []llm.Profile{gpt4oMini(), gpt35()}
	var b strings.Builder
	for _, prof := range profiles {
		t := tablefmt.New(
			fmt.Sprintf("Table VIII (%s): joint token pruning + query boosting", prof.Name),
			append([]string{"Method", "# Queries Equip N_i"}, displayOf(smallNames)...)...)
		for _, m := range predictors.Standard() {
			baseRow := []string{m.Name(), ""}
			jointRow := []string{"w/ prune & boost", ""}
			for ni, name := range smallNames {
				d, err := load(name, cfg)
				if err != nil {
					return "", errf("table8", err)
				}
				sim := d.sim(prof, cfg)
				shared := predictors.NewSimilarity(d.g)

				ctxB := d.ctx(cfg)
				ctxB.SetSimilarity(shared)
				base, err := core.ExecuteWith(ctxB, m, sim, core.Plan{Queries: d.split.Query}, cfg.exec())
				if err != nil {
					return "", errf("table8", err)
				}

				iq, err := d.fitInadequacy(sim, cfg)
				if err != nil {
					return "", errf("table8", err)
				}
				plan := core.PrunePlan(iq, d.g, d.split.Query, 0.20)
				ctxJ := d.ctx(cfg)
				ctxJ.SetSimilarity(shared)
				joint, _, err := core.BoostWith(ctxJ, m, sim, plan, core.DefaultBoostConfig(), cfg.exec())
				if err != nil {
					return "", errf("table8", err)
				}
				if ni == 0 {
					baseRow[1] = fmt.Sprint(len(d.split.Query))
					jointRow[1] = fmt.Sprint(len(d.split.Query) - len(plan.Prune))
				}
				accB := core.Accuracy(d.g, base.Pred)
				accJ := core.Accuracy(d.g, joint.Pred)
				baseRow = append(baseRow, tablefmt.Pct(accB))
				arrow := ""
				if accJ > accB {
					arrow = "^"
				}
				jointRow = append(jointRow, tablefmt.Pct(accJ)+arrow)
			}
			t.AddRow(baseRow...)
			t.AddRow(jointRow...)
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// displayOf maps dataset short names to display names.
func displayOf(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		spec, err := tag.SpecByName(n)
		if err != nil {
			out[i] = n
			continue
		}
		out[i] = spec.Display
	}
	return out
}

func safeDiv(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
