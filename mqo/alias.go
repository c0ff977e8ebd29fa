package mqo

import (
	"io"
	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/predictors"
	"repro/internal/tag"
)

// Graph is a text-attributed graph G = (V, E, T, X); see
// GenerateDataset for the five benchmark instances.
type Graph = tag.Graph

// Node is one vertex with its text attribute and ground-truth label.
type Node = tag.Node

// NodeID identifies a node within one Graph.
type NodeID = tag.NodeID

// Split is a labeled/query partition of a graph's nodes.
type Split = tag.Split

// Spec describes a benchmark dataset's generation parameters and its
// paper-scale statistics (Table II).
type Spec = tag.Spec

// Context carries the state a Method needs to select neighbors and
// build prompts: the graph, the visible-label map, and prompt options.
type Context = predictors.Context

// Method selects prompt neighbors for a query node. The paper's
// benchmark methods differ only here. Plan building calls Select from
// up to Workers goroutines at once on one *Context, so an
// implementation must only read the Context; the built-in methods do.
type Method = predictors.Method

// Selected is one neighbor chosen for a prompt, with its visible label
// (possibly a pseudo-label) if any.
type Selected = predictors.Selected

// Vanilla is the zero-shot method: no neighbor text at all.
type Vanilla = predictors.Vanilla

// KHopRandom samples up to M neighbors within K hops, preferring
// labeled ones (the paper's "k-hop random", k = 1 or 2).
type KHopRandom = predictors.KHopRandom

// SNS is similarity-based neighbor selection [Li et al. 2024]: expand
// hop by hop until enough labeled neighbors are found, then keep the M
// most text-similar ones, most related first.
type SNS = predictors.SNS

// Predictor is the black-box LLM contract: a final prompt string in, a
// category plus token accounting out.
type Predictor = llm.Predictor

// Response is one LLM answer with its token usage.
type Response = llm.Response

// Profile parameterizes a simulated LLM (skill, bias, noise).
type Profile = llm.Profile

// Sim is the simulated black-box LLM; it parses the prompt templates of
// Table III and predicts with profile-dependent noise.
type Sim = llm.Sim

// GPT35 is the simulated profile calibrated to the paper's GPT-3.5
// columns.
func GPT35() Profile { return llm.GPT35() }

// GPT4oMini is the simulated profile calibrated to the paper's
// GPT-4o-mini columns.
func GPT4oMini() Profile { return llm.GPT4oMini() }

// Plan is an executable multi-query plan: which queries run and which
// omit neighbor text.
type Plan = core.Plan

// Results collects predictions, token totals and boosting counters for
// one executed plan.
type Results = core.Results

// Inadequacy is the fitted text-inadequacy measure D(t_i), the proxy
// for H(y_i|t_i) that ranks queries for pruning.
type Inadequacy = core.Inadequacy

// InadequacyConfig tunes how the measure is fitted (surrogate MLP,
// folds, calibration subset size).
type InadequacyConfig = core.InadequacyConfig

// BoostConfig sets the query-boosting thresholds γ1 (minimum neighbor
// labels) and γ2 (maximum conflicting labels).
type BoostConfig = core.BoostConfig

// RoundTrace records one boosting round: thresholds, executed queries,
// pseudo-label uses.
type RoundTrace = core.RoundTrace

// ExecConfig bounds how a plan's queries are dispatched: worker count,
// QPS, retries, token budget and response caching. The zero value runs
// serially with no retries — the historical Execute/Boost behavior.
type ExecConfig = core.ExecConfig

// Knobs is the one declaration of the execution knobs (workers, QPS,
// query timeout, breaker, replicas, hedging, affinity, compression)
// shared by Options, the CLIs' flags and load scenarios. Its
// ExecConfig method lowers it; Validate range-checks it.
type Knobs = core.Knobs

// QueryErrors aggregates per-query failures from a concurrent
// execution; the partial results for the queries that succeeded are
// returned alongside it.
type QueryErrors = core.QueryErrors

// DefaultInadequacyConfig returns the paper's small-dataset setting.
func DefaultInadequacyConfig() InadequacyConfig { return core.DefaultInadequacyConfig() }

// DefaultBoostConfig returns the paper's setting γ1 = 3, γ2 = 2.
func DefaultBoostConfig() BoostConfig { return core.DefaultBoostConfig() }

// FitInadequacy fits the text-inadequacy measure for one dataset:
// train the surrogate classifier on the labeled set, estimate the
// LLM's per-class bias on a small calibration subset, and merge the
// two channels with a linear regression (Section V-A1).
func FitInadequacy(g *Graph, labeled []NodeID, p Predictor, nodeType string, cfg InadequacyConfig) (*Inadequacy, error) {
	return core.FitInadequacy(g, labeled, p, nodeType, cfg)
}

// PrunePlan ranks queries by D(t_i) ascending and marks the top τ
// fraction to omit neighbor text (Algorithm 1, step 2).
func PrunePlan(iq *Inadequacy, g *Graph, queries []NodeID, tau float64) Plan {
	return core.PrunePlan(iq, g, queries, tau)
}

// RandomPrunePlan marks a uniform-random τ fraction instead — the
// baseline the paper compares against in Fig. 7.
func RandomPrunePlan(queries []NodeID, tau float64, seed uint64) Plan {
	return core.RandomPrunePlan(queries, tau, seed)
}

// Execute runs a plan in order with no boosting, returning predictions
// and token totals.
func Execute(ctx *Context, m Method, p Predictor, plan Plan) (*Results, error) {
	return core.Execute(ctx, m, p, plan)
}

// ExecuteWith is Execute with bounded concurrency: queries fan out
// across cfg.Workers workers and results are applied in plan order, so
// an order-independent predictor (such as Sim) yields bit-identical
// results for any worker count. Per-query failures are aggregated into
// a *QueryErrors returned alongside the partial results.
func ExecuteWith(ctx *Context, m Method, p Predictor, plan Plan, cfg ExecConfig) (*Results, error) {
	return core.ExecuteWith(ctx, m, p, plan, cfg)
}

// Boost executes a plan with Algorithm 2's scheduled rounds, feeding
// pseudo-labels from earlier rounds into later prompts.
func Boost(ctx *Context, m Method, p Predictor, plan Plan, cfg BoostConfig) (*Results, []RoundTrace, error) {
	return core.Boost(ctx, m, p, plan, cfg)
}

// BoostWith is Boost with bounded concurrency inside each round.
// Rounds are barriers — prompts are fixed before a round runs and
// pseudo-labels are applied after — so intra-round parallelism
// preserves Algorithm 2's semantics exactly.
func BoostWith(ctx *Context, m Method, p Predictor, plan Plan, cfg BoostConfig, ecfg ExecConfig) (*Results, []RoundTrace, error) {
	return core.BoostWith(ctx, m, p, plan, cfg, ecfg)
}

// SavePlan writes an execution plan as a versioned JSON document, so
// an expensive planning phase can run once and be audited and executed
// later.
func SavePlan(w io.Writer, plan Plan) error { return core.SavePlan(w, plan) }

// LoadPlan reads a plan written by SavePlan, validating structure
// (unique queries, pruned ⊆ queries).
func LoadPlan(r io.Reader) (Plan, error) { return core.LoadPlan(r) }

// SaveDataset writes a graph as a versioned JSON snapshot.
func SaveDataset(w io.Writer, g *Graph) error { return tag.Save(w, g) }

// LoadDataset reads a snapshot written by SaveDataset, rebuilding
// adjacency and the vocabulary index and validating the result.
func LoadDataset(r io.Reader) (*Graph, error) { return tag.Load(r) }

// BuildPrompt renders the Table III prompt for query node v with the
// given neighbor selection (ranked adds SNS's "most related first"
// phrasing). Pass nil neighbors for a zero-shot prompt.
func BuildPrompt(ctx *Context, v NodeID, sel []Selected, ranked bool) string {
	return predictors.BuildPrompt(ctx, v, sel, ranked)
}

// Accuracy returns the fraction of predictions matching ground truth.
func Accuracy(g *Graph, pred map[NodeID]string) float64 { return core.Accuracy(g, pred) }

// TauForBudget solves the running-example equation of Section V-C for
// τ: the fraction of queries that must omit neighbor text so that the
// batch fits the token budget. The result is clamped to [0, 1]; ok is
// false when the budget cannot be met even with every prompt pruned.
func TauForBudget(budget float64, numQueries int, tokensPerQuery, tokensNeighbor float64) (tau float64, ok bool) {
	return core.TauForBudget(budget, numQueries, tokensPerQuery, tokensNeighbor)
}

// PlanAccuracy scores predictions against the full plan: accuracy
// counts an unanswered query as wrong, and coverage reports the
// answered fraction — the honest pair of numbers after a degraded run.
func PlanAccuracy(g *Graph, queries []NodeID, pred map[NodeID]string) (acc, coverage float64) {
	return core.PlanAccuracy(g, queries, pred)
}

// Surrogate is the paper's text-only classifier f_θ1, reused here as
// the graceful-degradation answer machine (Options.Fallback).
type Surrogate = core.Surrogate

// SurrogateConfig tunes FitSurrogate; the zero value uses the paper's
// defaults (linear softmax, 3 folds, 512 TF-IDF features).
type SurrogateConfig = core.SurrogateConfig

// FitSurrogate trains the surrogate classifier on the labeled set with
// zero LLM queries. Pipelines that prune can reuse the one trained by
// FitInadequacy via (*Inadequacy).Surrogate instead.
func FitSurrogate(g *Graph, labeled []NodeID, cfg SurrogateConfig) (*Surrogate, error) {
	return core.FitSurrogate(g, labeled, cfg)
}

// EstimateQueryTokens samples prompt constructions to estimate the
// average tokens per full query and per neighbor-text block. sample=0
// uses every query; otherwise a seeded uniform sample of the queries
// is drawn (keyed by ctx.Seed), so the estimate is unbiased by query
// order.
func EstimateQueryTokens(ctx *Context, m Method, queries []NodeID, sample int) (perQuery, perNeighborText float64) {
	return core.EstimateQueryTokens(ctx, m, queries, sample)
}
