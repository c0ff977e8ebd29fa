// Command mqorun executes an optimized multi-query node-classification
// plan end-to-end on one dataset: it fits the text-inadequacy measure,
// prunes to the requested token budget (or fraction), optionally boosts
// with pseudo-label scheduling, and reports accuracy and token usage
// against the unoptimized baseline.
//
// Usage:
//
//	mqorun -dataset cora -method 2-hop -prune 0.2 -boost
//	mqorun -dataset pubmed -method sns -budget 1200000
//	mqorun -dataset cora -cache-dir /var/cache/mqo   # second run is free
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/predictors"
	"repro/internal/promptcache"
	"repro/internal/tablefmt"
	"repro/internal/tag"
	"repro/internal/xrand"
)

func methodByName(name string) (predictors.Method, error) {
	return predictors.ByName(name)
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "mqorun: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command behind a testable seam: flags come from
// args, user-facing output goes to stdout, diagnostics to stderr. The
// golden e2e test drives it exactly like a shell would.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mqorun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dsName      = fs.String("dataset", "cora", "dataset name: "+strings.Join(tag.SortedNames(), ", "))
		mName       = fs.String("method", "2-hop", "prediction method: vanilla, 1-hop, 2-hop, sns")
		model       = fs.String("model", "gpt-3.5", "LLM profile: gpt-3.5 or gpt-4o-mini")
		seed        = fs.Uint64("seed", 1, "deterministic seed")
		scale       = fs.Float64("scale", 1.0, "dataset scale factor")
		queries     = fs.Int("queries", 0, "query count (0 = dataset default)")
		prune       = fs.Float64("prune", -1, "prune fraction tau in [0,1] (overrides -budget)")
		budget      = fs.Float64("budget", 0, "input-token budget B (0 = unlimited)")
		boost       = fs.Bool("boost", false, "apply query boosting")
		m           = fs.Int("m", 4, "max neighbors per prompt")
		fallback    = fs.Bool("fallback", false, "answer permanently-failed queries with the surrogate classifier")
		faultErr    = fs.Float64("fault-error", 0, "chaos: fraction of prompts that fail with an injected 503")
		faultHang   = fs.Float64("fault-hang", 0, "chaos: fraction of prompts that hang until the query timeout")
		faultGarble = fs.Float64("fault-garbage", 0, "chaos: fraction of prompts answered off-template")
		savePlan    = fs.String("save-plan", "", "write the optimized plan to this JSON file")
		metricsDump = fs.Bool("metrics-dump", false, "print the metrics registry (Prometheus text format) at exit")
		metricsJSON = fs.String("metrics-json", "", "write the metrics registry snapshot to this JSON file at exit")
		traceJSON   = fs.String("trace-json", "", "write the trace report (SLO verdict, stage aggregates, per-query ledgers) to this JSON file at exit")
	)
	var ex cliflags.Exec
	ex.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := ex.Validate(); err != nil {
		return err
	}

	// The registry is installed as the process default, so every layer
	// (core execution, sim, facade) records without explicit wiring.
	var reg *obs.Registry
	if *metricsDump || *metricsJSON != "" || *traceJSON != "" {
		reg = obs.NewRegistry()
		ex.ApplyObs(reg)
		if *traceJSON != "" {
			// The trace report must cover every query of the run, not the
			// last ring's worth.
			reg.SetLedgerCapacity(1 << 16)
		}
		obs.SetDefault(reg)
		defer obs.SetDefault(nil)
	}
	dumpMetrics := func() error {
		if reg == nil {
			return nil
		}
		if *metricsDump {
			fmt.Fprintln(stdout, "\nmetrics:")
			if err := reg.WritePrometheus(stdout); err != nil {
				return err
			}
		}
		if *metricsJSON != "" {
			data, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(*metricsJSON, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "metrics snapshot written to %s\n", *metricsJSON)
		}
		if *traceJSON != "" {
			data, err := json.MarshalIndent(reg.TraceReport(), "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(*traceJSON, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "trace report written to %s\n", *traceJSON)
		}
		return nil
	}

	spec, err := tag.SpecByName(*dsName)
	if err != nil {
		return err
	}
	method, err := methodByName(*mName)
	if err != nil {
		return err
	}
	var profile llm.Profile
	switch *model {
	case "gpt-3.5":
		profile = llm.GPT35()
	case "gpt-4o-mini":
		profile = llm.GPT4oMini()
	default:
		return fmt.Errorf("unknown model %q", *model)
	}

	fmt.Fprintf(stdout, "generating %s (scale %.2f)...\n", spec.Display, *scale)
	g := tag.Generate(spec, *seed, tag.Options{Scale: *scale})
	q := spec.QueryCount
	if *queries > 0 {
		q = *queries
	}
	srng := xrand.New(*seed).SplitString("mqorun/split")
	var split tag.Split
	if spec.LabeledPerClass > 0 {
		split = g.SplitPerClass(srng, spec.LabeledPerClass, q)
	} else {
		split = g.SplitFraction(srng, spec.LabeledFrac, q)
	}

	newCtx := func() *predictors.Context {
		return &predictors.Context{
			Graph: g,
			Known: predictors.KnownFromSplit(g, split),
			M:     *m,
			Seed:  *seed,
		}
	}
	sim := llm.NewSim(profile, g.Vocab, g.Classes, *seed+7)
	var pred llm.Predictor = sim
	var injector *llm.FaultInjector
	if *faultErr > 0 || *faultHang > 0 || *faultGarble > 0 {
		if *faultHang > 0 && ex.QueryTimeout <= 0 {
			return fmt.Errorf("-fault-hang requires -query-timeout, or hung prompts block forever")
		}
		injector, err = llm.NewFaultInjector(sim, llm.FaultConfig{
			Seed:        *seed + 13,
			ErrorRate:   *faultErr,
			HangRate:    *faultHang,
			GarbageRate: *faultGarble,
		})
		if err != nil {
			return err
		}
		pred = injector
	}
	ecfg := ex.ExecConfig()
	// Persistent prompt cache: every stage below — baseline, inadequacy
	// fitting, optimized run, boosting — shares the disk tier, and a
	// repeated invocation with the same flags answers entirely from it.
	var pcache *promptcache.Cache
	if ex.CacheDir != "" {
		ccfg := promptcache.Config{MaxBytes: ex.CacheMaxBytes, TTL: ex.CacheTTL}
		if reg != nil {
			ccfg.Obs = reg
		}
		pcache, err = promptcache.Open(ex.CacheDir, ccfg)
		if err != nil {
			return fmt.Errorf("opening prompt cache: %w", err)
		}
		defer pcache.Close()
		ecfg.Disk = pcache
	}
	if *fallback {
		sur, err := core.FitSurrogate(g, split.Labeled, core.SurrogateConfig{Seed: *seed})
		if err != nil {
			return fmt.Errorf("fitting fallback surrogate: %w", err)
		}
		ecfg.Fallback = sur
	}

	// Per-query failures come back as a *QueryErrors alongside partial
	// results: report and keep going rather than voiding the whole run.
	tolerate := func(stage string, err error) error {
		if err == nil {
			return nil
		}
		var qe *core.QueryErrors
		if errors.As(err, &qe) {
			fmt.Fprintf(stderr, "mqorun: %s: %v (continuing with partial results)\n", stage, qe)
			return nil
		}
		return err
	}

	// Baseline.
	// The worker count goes to stderr: results are identical for any
	// -workers value, and stdout stays byte-comparable across runs.
	fmt.Fprintf(stderr, "concurrency: %d workers\n", ex.Workers)
	fmt.Fprintf(stdout, "running baseline %s over %d queries...\n", method.Name(), len(split.Query))
	base, err := core.ExecuteWith(newCtx(), method, pred, core.Plan{Queries: split.Query}, ecfg)
	if err := tolerate("baseline", err); err != nil {
		return err
	}

	// Optimized plan.
	plan := core.Plan{Queries: split.Query}
	tau := 0.0
	if *prune >= 0 || *budget > 0 {
		fmt.Fprintln(stdout, "fitting text-inadequacy measure...")
		iqCfg := core.DefaultInadequacyConfig()
		iqCfg.Seed = *seed
		iqCfg.Exec = ecfg
		iq, err := core.FitInadequacy(g, split.Labeled, pred, "paper", iqCfg)
		if err != nil {
			return err
		}
		tau = *prune
		if tau < 0 {
			// Cache-aware budgeting: prompts already answered on disk cost
			// zero marginal tokens, so a warm cache admits more queries
			// under the same budget.
			var cached func(string) bool
			if pcache != nil {
				ns := ecfg.CacheNamespace(pred)
				cached = func(promptText string) bool {
					return pcache.Contains(promptcache.KeyOf(ns, promptText))
				}
			}
			perQ, perN := core.EstimateQueryTokensCompressed(newCtx(), method, split.Query, 200, ecfg.Compress, cached)
			var ok bool
			tau, ok = core.TauForBudget(*budget, len(split.Query), perQ, perN)
			if !ok {
				return fmt.Errorf("budget %.0f tokens is infeasible for %d queries: even pruning every prompt needs %.0f tokens",
					*budget, len(split.Query), float64(len(split.Query))*(perQ-perN))
			}
			fmt.Fprintf(stdout, "budget %.0f tokens -> tau = %.2f (perQuery %.0f, perNeighborText %.0f)\n", *budget, tau, perQ, perN)
		}
		plan = core.PrunePlan(iq, g, split.Query, tau)
	}
	if *savePlan != "" {
		f, err := os.Create(*savePlan)
		if err != nil {
			return err
		}
		err = core.SavePlan(f, plan)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("saving plan: %w", err)
		}
		fmt.Fprintf(stdout, "plan written to %s (%d queries, %d pruned)\n", *savePlan, len(plan.Queries), len(plan.Prune))
	}

	var optimized *core.Results
	if *boost {
		fmt.Fprintln(stdout, "executing with query boosting...")
		optimized, _, err = core.BoostWith(newCtx(), method, pred, plan, core.DefaultBoostConfig(), ecfg)
	} else {
		fmt.Fprintln(stdout, "executing plan...")
		optimized, err = core.ExecuteWith(newCtx(), method, pred, plan, ecfg)
	}
	if err := tolerate("optimized run", err); err != nil {
		return err
	}

	// Accuracy is scored against the full plan (an unanswered query
	// counts as wrong) with coverage alongside, so partial results after
	// failures cannot silently inflate the numbers.
	baseAcc, baseCov := core.PlanAccuracy(g, split.Query, base.Pred)
	optAcc, optCov := core.PlanAccuracy(g, plan.Queries, optimized.Pred)
	t := tablefmt.New("\nresults", "run", "accuracy (%)", "coverage (%)", "input tokens", "equipped", "rounds")
	t.AddRow("baseline",
		tablefmt.Pct(baseAcc), tablefmt.Pct(baseCov),
		tablefmt.Int(int64(base.Meter.InputTokens())),
		fmt.Sprint(base.Equipped), fmt.Sprint(base.Rounds))
	name := "optimized"
	if tau > 0 {
		name += fmt.Sprintf(" (prune %.0f%%", 100*tau)
		if *boost {
			name += " + boost"
		}
		name += ")"
	} else if *boost {
		name += " (boost)"
	}
	t.AddRow(name,
		tablefmt.Pct(optAcc), tablefmt.Pct(optCov),
		tablefmt.Int(int64(optimized.Meter.InputTokens())),
		fmt.Sprint(optimized.Equipped), fmt.Sprint(optimized.Rounds))
	fmt.Fprint(stdout, t.String())

	if n := base.SurrogateAnswered() + optimized.SurrogateAnswered(); n > 0 {
		fmt.Fprintf(stdout, "\nsurrogate-answered queries (LLM path failed): baseline %d, optimized %d\n",
			base.SurrogateAnswered(), optimized.SurrogateAnswered())
	}
	if injector != nil {
		st := injector.Stats()
		fmt.Fprintf(stdout, "injected faults: %d errors, %d hangs, %d garbage (%d passed)\n",
			st.Errors, st.Hangs, st.Garbage, st.Passed)
	}

	saved := base.Meter.InputTokens() - optimized.Meter.InputTokens()
	if saved != 0 {
		fmt.Fprintf(stdout, "\ninput tokens saved vs baseline: %s (%.1f%%)\n",
			tablefmt.Int(int64(saved)), 100*float64(saved)/float64(base.Meter.InputTokens()))
	}
	if optimized.PseudoLabelUses > 0 {
		fmt.Fprintf(stdout, "pseudo-label enrichments during boosting: %d\n", optimized.PseudoLabelUses)
	}
	if pcache != nil {
		st := pcache.Stats()
		fmt.Fprintf(stderr, "prompt cache: %d hits, %d misses, %d evictions, %d entries (%s)\n",
			st.Hits, st.Misses, st.Evictions, st.Entries, tablefmt.Int(st.Bytes))
	}
	return dumpMetrics()
}
