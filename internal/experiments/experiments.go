// Package experiments regenerates every table and figure of the
// paper's evaluation section (Section VI) against the simulated
// substrate. Each experiment is addressable by the paper artifact id
// (table2..table10, fig3, fig7, fig8) plus two ablations called out in
// DESIGN.md, and renders its result as text with the same rows/series
// the paper reports.
package experiments

import (
	"fmt"
	"sort"

	"repro/internal/llm"
	"repro/internal/predictors"
	"repro/internal/promptcache"
	"repro/internal/tag"
	"repro/internal/xrand"

	"repro/internal/core"
)

// Config tunes an experiment run. The embedded knobs shape every
// experiment's plan execution (the compress experiment sweeps its own
// compression settings regardless); experiment outputs are identical
// for any worker or replica count, since the simulator answers by
// prompt, not by schedule or replica.
type Config struct {
	core.Knobs
	// Seed makes the whole experiment deterministic.
	Seed uint64
	// Fast shrinks datasets and query counts so the experiment finishes
	// in benchmark/test time; the full setting mirrors the paper.
	Fast bool
	// Disk, when non-nil, backs every experiment's plan execution with
	// the persistent prompt cache. The cache namespace is derived per
	// predictor (model identity + seed + template version), so distinct
	// experiments sharing one directory cannot cross-contaminate, and a
	// repeated run answers its repeated prompts from disk.
	Disk *promptcache.Cache
}

// exec lowers the config for core.ExecuteWith and core.BoostWith: the
// knobs plus the shared disk cache.
func (cfg Config) exec() core.ExecConfig {
	ecfg := cfg.ExecConfig()
	ecfg.Disk = cfg.Disk
	return ecfg
}

// Experiment is one regenerable paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) (string, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "table2", Title: "Table II: dataset statistics", Run: runTable2},
		{ID: "fig2", Title: "Fig. 2 / Section IV: empirical PID of I(t,N;y)", Run: runFig2},
		{ID: "fig3", Title: "Fig. 3: information gain of neighbor labels", Run: runFig3},
		{ID: "table4", Title: "Table IV: token pruning across methods (Q1)", Run: runTable4},
		{ID: "fig7", Title: "Fig. 7: pruning vs random under token budgets (Q2)", Run: runFig7},
		{ID: "table5", Title: "Table V: token reduction potential (Q3)", Run: runTable5},
		{ID: "table6", Title: "Table VI: text-inadequacy of saturated vs non-saturated nodes (Q4)", Run: runTable6},
		{ID: "fig8", Title: "Fig. 8: pseudo-label utilization with/without scheduling (Q5)", Run: runFig8},
		{ID: "table7", Title: "Table VII: query boosting across methods (Q6)", Run: runTable7},
		{ID: "table8", Title: "Table VIII: joint pruning + boosting (Q7)", Run: runTable8},
		{ID: "table9", Title: "Table IX: strategies on instruction-tuned backbones (Q8)", Run: runTable9},
		{ID: "table10", Title: "Table X: link prediction (Q9)", Run: runTable10},
		{ID: "gnn-baseline", Title: "Paradigm comparison: trained GNNs vs LLMs as predictors", Run: runGNNBaseline},
		{ID: "ablation-channels", Title: "Ablation: inadequacy channels (entropy / bias / merged)", Run: runAblationChannels},
		{ID: "ablation-scheduling", Title: "Ablation: scheduling policies", Run: runAblationScheduling},
		{ID: "ablation-gamma", Title: "Ablation: boosting thresholds γ1/γ2", Run: runAblationGamma},
		{ID: "ablation-m", Title: "Ablation: neighbor cap M (accuracy vs tokens)", Run: runAblationM},
		{ID: "ablation-encoder", Title: "Ablation: SNS similarity backend (TF-IDF / SGNS / BoW)", Run: runAblationEncoder},
		{ID: "cost-projection", Title: "Section I: full-graph classification priced in dollars", Run: runCostProjection},
		{ID: "prefix-sharing", Title: "Section II-C: serving-level prefix sharing vs graph-aware pruning", Run: runPrefixSharing},
		{ID: "concurrency", Title: "Concurrent plan execution: wall-clock speedup at identical results", Run: runConcurrency},
		{ID: "faults", Title: "Fault tolerance: injected failures, timeouts, breaker, surrogate fallback", Run: runFaults},
		{ID: "load", Title: "Load harness: open-loop scenarios, latency tail, SLO cross-check", Run: runLoad},
		{ID: "compress", Title: "Prompt compression: accuracy vs input tokens across levels and budgets", Run: runCompress},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs lists all experiment ids.
func IDs() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}

// dataset is a loaded benchmark instance.
type dataset struct {
	spec  tag.Spec
	g     *tag.Graph
	split tag.Split
}

// smallNames are the datasets the paper uses for boosting and link
// prediction (Sections VI-G, VI-J).
var smallNames = []string{"cora", "citeseer", "pubmed"}

// load generates the named dataset under the config's size regime and
// applies the paper's split protocol.
func load(name string, cfg Config) (*dataset, error) {
	spec, err := tag.SpecByName(name)
	if err != nil {
		return nil, err
	}
	opts := tag.Options{}
	queries := spec.QueryCount
	if cfg.Fast {
		// Keep class structure; shrink to bench scale.
		target := 900
		if spec.Nodes < target {
			target = spec.Nodes
		}
		opts.Scale = float64(target) / float64(spec.Nodes)
		queries = 200
	}
	g := tag.Generate(spec, cfg.Seed, opts)
	srng := xrand.New(cfg.Seed).SplitString("experiments/split/" + name)
	var split tag.Split
	if spec.LabeledPerClass > 0 {
		split = g.SplitPerClass(srng, spec.LabeledPerClass, queries)
	} else {
		split = g.SplitFraction(srng, spec.LabeledFrac, queries)
	}
	return &dataset{spec: spec, g: g, split: split}, nil
}

// ctx builds a fresh prediction context for the dataset. M follows the
// paper: 10 for Ogbn-Products, 4 elsewhere.
func (d *dataset) ctx(cfg Config) *predictors.Context {
	m := 4
	if d.spec.Name == "ogbn-products" {
		m = 10
	}
	return &predictors.Context{
		Graph:        d.g,
		Known:        predictors.KnownFromSplit(d.g, d.split),
		M:            m,
		Seed:         cfg.Seed,
		NodeType:     nodeTypeOf(d.spec),
		EdgeRelation: edgeRelationOf(d.spec),
	}
}

func nodeTypeOf(spec tag.Spec) string {
	if spec.NodeType == "Product" {
		return "product"
	}
	return "paper"
}

func edgeRelationOf(spec tag.Spec) string {
	if spec.EdgeType == "Co-purchase" {
		return "co-purchase"
	}
	return "citation"
}

// sim instantiates a simulated LLM for the dataset.
func (d *dataset) sim(p llm.Profile, cfg Config) *llm.Sim {
	return llm.NewSim(p, d.g.Vocab, d.g.Classes, cfg.Seed+7)
}

// inadequacyConfig returns the fit configuration under the config's
// size regime, mirroring the paper: linear surrogate for the small
// datasets, a deeper tuned MLP for the OGB datasets.
func (d *dataset) inadequacyConfig(cfg Config) core.InadequacyConfig {
	ic := core.DefaultInadequacyConfig()
	ic.Seed = cfg.Seed + 13
	ic.Exec = cfg.exec()
	if cfg.Fast {
		ic.MLP.Epochs = 40
		ic.MaxFeatures = 256
	}
	switch d.spec.Name {
	case "ogbn-arxiv", "ogbn-products":
		// The paper hyperparameter-searches a deeper MLP when labels
		// are plentiful; we use the middle of its search ranges.
		ic.MLP.Hidden = []int{128}
		ic.MLP.LR = 0.01
		ic.MLP.WeightDecay = 1e-4
		if cfg.Fast {
			ic.MLP.Hidden = []int{64}
		}
	}
	return ic
}

// fitInadequacy fits the measure once per (dataset, predictor).
func (d *dataset) fitInadequacy(p llm.Predictor, cfg Config) (*core.Inadequacy, error) {
	return core.FitInadequacy(d.g, d.split.Labeled, p, nodeTypeOf(d.spec), d.inadequacyConfig(cfg))
}

// datasetNames returns the evaluation datasets under the config's size
// regime. Fast mode drops the two OGB graphs from the heaviest sweeps.
func datasetNames(cfg Config, includeOGB bool) []string {
	if includeOGB && !cfg.Fast {
		return tag.SortedNames()
	}
	if includeOGB && cfg.Fast {
		return []string{"cora", "citeseer", "pubmed", "ogbn-arxiv", "ogbn-products"}
	}
	return smallNames
}

// gpt35 and gpt4oMini are the paper's two LLM profiles.
func gpt35() llm.Profile     { return llm.GPT35() }
func gpt4oMini() llm.Profile { return llm.GPT4oMini() }

// khop1 is the 1-hop random method used by several sweeps.
func khop1() predictors.Method { return predictors.KHopRandom{K: 1} }

// errf wraps an experiment error with its artifact id.
func errf(id string, err error) error {
	return fmt.Errorf("experiments: %s: %w", id, err)
}
