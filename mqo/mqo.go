// Package mqo is the public API of this repository: multi-query
// optimization for "LLMs as predictors" on text-attributed graphs,
// reproducing Fang et al., "Boosting with Fewer Tokens: Multi-Query
// Optimization for LLMs Using Node Text and Neighbor Cues" (ICDE 2025).
//
// The paper's setting: each node of a text-attributed graph (TAG) is
// classified by prompting a black-box LLM with the node's own text plus
// the text of a few selected neighbors. Neighbor text dominates the
// token bill, so the paper contributes two plug-and-play strategies
// that optimize a *batch* of such queries:
//
//   - Token pruning (Algorithm 1): rank queries by a learned
//     text-inadequacy score D(t_i) and omit neighbor text for the
//     lowest-scoring ("saturated") fraction, chosen to fit a token
//     budget, without hurting accuracy.
//   - Query boosting (Algorithm 2): schedule queries into rounds so
//     that pseudo-labels predicted in earlier rounds enrich the
//     prompts of later, harder queries.
//
// This package re-exports the building blocks (datasets, neighbor-
// selection methods, simulated LLM profiles, plans) and offers a
// one-call pipeline, Optimize, that composes them:
//
//	g := mqo.GenerateDataset("cora", 1)
//	w := mqo.NewWorkload(g, 20, 1000, 4, 1)
//	p := mqo.NewSim(mqo.GPT35(), g, 1)
//	rep, err := mqo.Optimize(w, mqo.SNS{}, p, mqo.Options{
//	    Prune: true, Tau: 0.2,
//	    Boost: true,
//	})
//	fmt.Println(rep.Accuracy, rep.Results.Meter.Total())
//
// Everything is deterministic given the seeds; no network access is
// required. To drive a real OpenAI-compatible endpoint instead of the
// simulator, use NewHTTPPredictor.
package mqo

import (
	"errors"
	"fmt"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/predictors"
	"repro/internal/promptcache"
	"repro/internal/tag"
	"repro/internal/xrand"
)

// Workload bundles one dataset with its labeled/query split and the
// prompt-construction parameters shared by every method.
type Workload struct {
	Graph   *Graph
	Labeled []NodeID
	Queries []NodeID

	// M caps the neighbors included per prompt (the paper uses 4, or 10
	// for Ogbn-Products).
	M int
	// Seed drives per-node neighbor sampling deterministically.
	Seed uint64
	// IncludeAbstracts switches neighbor entries from title-only (the
	// paper's default) to title+abstract.
	IncludeAbstracts bool
	// NodeType and EdgeRelation label the prompt text; empty values
	// default to "paper" and "citation".
	NodeType     string
	EdgeRelation string
}

// NewWorkload splits g with the paper's per-class protocol
// (labeledPerClass nodes labeled in every class, queryCount query
// nodes) and returns a ready workload.
func NewWorkload(g *Graph, labeledPerClass, queryCount, m int, seed uint64) *Workload {
	split := g.SplitPerClass(xrand.New(seed).SplitString("split"), labeledPerClass, queryCount)
	return &Workload{
		Graph:   g,
		Labeled: split.Labeled,
		Queries: split.Query,
		M:       m,
		Seed:    seed,
	}
}

// Context materializes the workload into the per-dataset context that
// methods select neighbors against. The visible-label map starts as the
// true labels of the labeled set; query boosting adds pseudo-labels to
// it as rounds execute.
func (w *Workload) Context() *Context {
	known := make(map[NodeID]string, len(w.Labeled))
	for _, v := range w.Labeled {
		known[v] = w.Graph.Classes[w.Graph.Nodes[v].Label]
	}
	nodeType, edgeRelation := w.NodeType, w.EdgeRelation
	if nodeType == "" {
		nodeType = "paper"
	}
	if edgeRelation == "" {
		edgeRelation = "citation"
	}
	return &Context{
		Graph:            w.Graph,
		Known:            known,
		M:                w.M,
		Seed:             w.Seed,
		IncludeAbstracts: w.IncludeAbstracts,
		NodeType:         nodeType,
		EdgeRelation:     edgeRelation,
	}
}

// Options selects which of the paper's two strategies to apply and how.
type Options struct {
	// Prune enables token pruning (Algorithm 1).
	Prune bool
	// Tau is the fraction of queries whose neighbor text is omitted
	// (the paper's τ%). Ignored when Budget is set.
	Tau float64
	// Budget, when > 0, is a total input-token budget for the batch;
	// τ is derived from it with the running-example formula of
	// Section V-C (TauForBudget).
	Budget float64
	// RandomPrune replaces inadequacy ranking with uniform-random
	// pruning — the paper's baseline in Fig. 7. Requires Prune.
	RandomPrune bool
	// Inadequacy overrides the text-inadequacy fitting configuration;
	// nil uses the paper's defaults (linear surrogate, 3-fold CV,
	// 10×K calibration subset).
	Inadequacy *InadequacyConfig

	// Boost enables query boosting (Algorithm 2).
	Boost bool
	// BoostConfig overrides γ1/γ2; nil uses the paper's γ1=3, γ2=2.
	BoostConfig *BoostConfig

	// Knobs shapes how the batch is dispatched: Workers, QPS,
	// QueryTimeout, the circuit Breaker and its cooldown, Replicas with
	// Hedge/HedgeAfter/Affinity routing, and prompt Compress/
	// TargetTokens (see core.Knobs). With the simulator — whose answers
	// are keyed on hash(seed, prompt) — predictions, accuracy and token
	// totals are bit-identical for any worker or replica count. With
	// pooling, Breaker configures one breaker per replica and no global
	// breaker runs.
	Knobs
	// ReplicaSet pools these explicit backends (e.g. several HTTP
	// endpoints) instead of replicating the primary predictor; it takes
	// precedence over Knobs.Replicas.
	ReplicaSet []Predictor
	// BudgetTokens, when > 0, hard-stops dispatch once the combined
	// input+output token total reaches it; remaining queries fail with
	// a budget error. The cap covers the plan's whole execution, every
	// boosting round together; pruning calibration, when it inherits
	// these options, is capped separately. Note that with Workers > 1
	// the exact cut-off point depends on completion order.
	BudgetTokens int
	// CacheDir, when non-empty, adds a persistent prompt cache under
	// this directory: answers survive the process, so repeating a run
	// pays only for prompts never asked before. Entries are keyed by
	// the predictor's identity (model + its seed), the prompt-template
	// version (versioned by Compress) and the prompt text, so a
	// model/seed/template change can never serve stale answers.
	CacheDir string
	// CacheMaxBytes bounds the persistent cache's live bytes (LRU
	// eviction); 0 means unbounded.
	CacheMaxBytes int64
	// CacheTTL expires persistent entries this long after they were
	// written; 0 means they never expire.
	CacheTTL time.Duration
	// Fallback degrades instead of failing: queries whose LLM path
	// failed (a failed call, timeout, open breaker or exhausted budget)
	// are answered by the paper's surrogate classifier f_θ1, trained
	// on the labeled set with zero LLM queries. Fallback answers are
	// marked in Results.Fallback and counted in
	// Report.SurrogateAnswered; they do not appear in QueryErrors.
	Fallback bool

	// Obs receives pipeline metrics and spans for this run; nil routes
	// to the process-default recorder (no-op unless SetDefaultRecorder
	// installed a registry).
	Obs Recorder
}

// execConfig validates the knobs and lowers them, with the facade's
// own budget and replica-set fields, into the core executor
// configuration shared by calibration, plain execution and boosting.
func (o Options) execConfig() (core.ExecConfig, error) {
	k := o.Knobs
	if len(o.ReplicaSet) > 0 {
		k.Replicas = len(o.ReplicaSet)
	}
	if err := k.Validate(); err != nil {
		return core.ExecConfig{}, fmt.Errorf("mqo: %w", err)
	}
	cfg := o.Knobs.ExecConfig()
	cfg.BudgetTokens = o.BudgetTokens
	cfg.Replicas = o.ReplicaSet
	return cfg, nil
}

// Report is the outcome of one optimized multi-query execution.
type Report struct {
	// Results carries per-query predictions, token totals, and
	// boosting counters.
	Results *Results
	// Plan is the executed plan (query order and pruned set).
	Plan Plan
	// Tau is the pruned fraction actually applied.
	Tau float64
	// Accuracy is the fraction of *answered* queries predicted
	// correctly. After a degraded run (failed queries, no fallback)
	// this overstates quality; PlanAccuracy and Coverage give the
	// honest pair.
	Accuracy float64
	// PlanAccuracy scores against the full plan: an unanswered query
	// counts as wrong.
	PlanAccuracy float64
	// Coverage is the fraction of planned queries that got an answer
	// (from the LLM or the fallback surrogate).
	Coverage float64
	// LLMAnswered and SurrogateAnswered split the answered queries by
	// who answered them; SurrogateAnswered is 0 unless Options.Fallback
	// kicked in.
	LLMAnswered       int
	SurrogateAnswered int
	// Rounds traces boosting rounds; nil when Boost is off.
	Rounds []RoundTrace
	// CalibrationQueries counts extra LLM queries spent fitting the
	// inadequacy measure (0 when pruning is off or random).
	CalibrationQueries int
}

// Optimize runs the full pipeline on one workload: optionally fit the
// text-inadequacy measure and prune τ% of the queries (Algorithm 1),
// then execute the batch either directly or with query-boosting rounds
// (Algorithm 2). It is the programmatic equivalent of the paper's
// "w/ prune & boost" configuration when both flags are set.
//
// Options.Knobs/BudgetTokens bound how the batch is dispatched;
// see Options. Out-of-range knobs (see Knobs.Validate) are an error. When individual queries fail permanently,
// Optimize returns the partial Report together with an error wrapping
// a *QueryErrors describing every failed query.
func Optimize(w *Workload, m Method, p Predictor, opt Options) (*Report, error) {
	if w == nil || w.Graph == nil {
		return nil, errors.New("mqo: nil workload")
	}
	if len(w.Queries) == 0 {
		return nil, errors.New("mqo: workload has no queries")
	}
	ctx := w.Context()
	if opt.Obs != nil {
		ctx.Obs = opt.Obs
	}
	rec := obs.Active(ctx.Obs)
	span := rec.StartSpan("mqo.optimize", "method", m.Name())
	defer span.End()
	rec.Add("mqo_optimize_runs_total", 1, "method", m.Name())

	ecfg, err := opt.execConfig()
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	plan := Plan{Queries: w.Queries}
	var execErr error

	var pcache *promptcache.Cache
	if opt.CacheDir != "" {
		c, err := promptcache.Open(opt.CacheDir, promptcache.Config{
			MaxBytes: opt.CacheMaxBytes, TTL: opt.CacheTTL, Obs: ctx.Obs,
		})
		if err != nil {
			return nil, fmt.Errorf("mqo: opening prompt cache: %w", err)
		}
		defer c.Close()
		pcache = c
		ecfg.Disk = c
	}

	var iq *core.Inadequacy
	if opt.Prune {
		tau := opt.Tau
		if opt.Budget > 0 {
			// Cache-aware budgeting: prompts already answered on disk
			// cost zero marginal tokens, so a warm cache admits more
			// un-pruned queries under the same budget.
			var cached func(string) bool
			if pcache != nil {
				ns := ecfg.CacheNamespace(p)
				cached = func(promptText string) bool {
					return pcache.Contains(promptcache.KeyOf(ns, promptText))
				}
			}
			perQuery, perNeighbor := core.EstimateQueryTokensCompressed(ctx, m, w.Queries, 0, ecfg.Compress, cached)
			var ok bool
			tau, ok = core.TauForBudget(opt.Budget, len(w.Queries), perQuery, perNeighbor)
			if !ok {
				return nil, fmt.Errorf("mqo: budget %.0f tokens infeasible for %d queries: even pruning every prompt (τ=%.2f) exceeds it", opt.Budget, len(w.Queries), tau)
			}
		}
		if tau < 0 || tau > 1 {
			return nil, fmt.Errorf("mqo: pruned fraction τ=%.3f outside [0,1]", tau)
		}
		rep.Tau = tau
		if opt.RandomPrune {
			plan = core.RandomPrunePlan(w.Queries, tau, w.Seed)
		} else {
			cfg := core.DefaultInadequacyConfig()
			if opt.Inadequacy != nil {
				cfg = *opt.Inadequacy
			}
			if reflect.ValueOf(cfg.Exec).IsZero() {
				cfg.Exec = ecfg
			}
			fitSpan := rec.StartSpan("mqo.fit_inadequacy")
			fitted, err := core.FitInadequacy(w.Graph, w.Labeled, p, ctx.NodeType, cfg)
			fitSpan.End()
			if err != nil {
				return nil, fmt.Errorf("mqo: fitting inadequacy: %w", err)
			}
			iq = fitted
			rep.CalibrationQueries = iq.CalibrationQueries
			rec.Add("mqo_calibration_queries_total", float64(iq.CalibrationQueries))
			plan = core.PrunePlan(iq, w.Graph, w.Queries, tau)
		}
	}
	rep.Plan = plan

	if opt.Fallback {
		if iq != nil {
			// Pruning already trained the surrogate (step 1 of
			// Algorithm 1); reuse it rather than fitting f_θ1 twice.
			ecfg.Fallback = iq.Surrogate(w.Graph)
		} else {
			sur, err := core.FitSurrogate(w.Graph, w.Labeled, core.SurrogateConfig{Seed: w.Seed})
			if err != nil {
				return nil, fmt.Errorf("mqo: fitting fallback surrogate: %w", err)
			}
			ecfg.Fallback = sur
		}
	}

	if opt.Boost {
		cfg := core.DefaultBoostConfig()
		if opt.BoostConfig != nil {
			cfg = *opt.BoostConfig
		}
		res, trace, err := core.BoostWith(ctx, m, p, plan, cfg, ecfg)
		if err != nil && res == nil {
			return nil, fmt.Errorf("mqo: boosting: %w", err)
		}
		rep.Results = res
		rep.Rounds = trace
		execErr = err
	} else {
		res, err := core.ExecuteWith(ctx, m, p, plan, ecfg)
		if err != nil && res == nil {
			return nil, fmt.Errorf("mqo: executing plan: %w", err)
		}
		rep.Results = res
		execErr = err
	}
	rep.Accuracy = core.Accuracy(w.Graph, rep.Results.Pred)
	rep.PlanAccuracy, rep.Coverage = core.PlanAccuracy(w.Graph, plan.Queries, rep.Results.Pred)
	rep.LLMAnswered = rep.Results.LLMAnswered()
	rep.SurrogateAnswered = rep.Results.SurrogateAnswered()
	if execErr != nil {
		// Per-query failures (a *QueryErrors) come back alongside the
		// partial report: the successful predictions, their token totals
		// and the accuracy over them remain usable.
		return rep, fmt.Errorf("mqo: %w", execErr)
	}
	return rep, nil
}

// GenerateDataset builds one of the five benchmark datasets
// ("cora", "citeseer", "pubmed", "ogbn-arxiv", "ogbn-products") at its
// default generated size. It panics on an unknown name; use
// tag.SpecByName via GenerateDatasetScaled for error handling.
func GenerateDataset(name string, seed uint64) *Graph {
	g, err := GenerateDatasetScaled(name, seed, 1)
	if err != nil {
		panic(err)
	}
	return g
}

// GenerateDatasetScaled builds a benchmark dataset with its node count
// multiplied by scale (edges keep their density). scale <= 0 means 1.
func GenerateDatasetScaled(name string, seed uint64, scale float64) (*Graph, error) {
	spec, err := tag.SpecByName(name)
	if err != nil {
		return nil, err
	}
	return tag.Generate(spec, seed, tag.Options{Scale: scale}), nil
}

// DatasetNames lists the five benchmark dataset identifiers in the
// paper's order.
func DatasetNames() []string { return tag.SortedNames() }

// NewSim constructs the simulated black-box LLM for one dataset. The
// simulator sees only final prompt strings — the same contract as a
// remote API — and meters every token it is sent.
func NewSim(p Profile, g *Graph, seed uint64) *Sim {
	return llm.NewSim(p, g.Vocab, g.Classes, seed)
}

// Standard returns the paper's benchmark methods the strategies are
// applied to, in evaluation order: 1-hop random, 2-hop random, SNS.
// (Vanilla zero-shot is the no-neighbor baseline, not a target.)
func Standard() []Method { return predictors.Standard() }
