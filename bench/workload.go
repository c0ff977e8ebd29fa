package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/predictors"
	"repro/internal/tag"
	"repro/internal/xrand"
)

// The dataset, its labeled split, the simulated model and serve-hot's
// node set are fixed by datasetSeed; the -seed flag draws only the
// traffic (arrival instants, tenants, which nodes are asked). Fixing the
// answer function keeps accuracy and tokens comparable across seeds, so
// their run-to-run spread measures the code, not the draw.
const (
	dataset     = "pubmed"
	datasetSeed = 1
	// labeledPerClass is the paper's per-class labeled-set size.
	labeledPerClass = 20
	// neighborsPerPrompt is the M cap on neighbors per prompt.
	neighborsPerPrompt = 4
)

// Serve-tier topology shared by the serve-* workloads.
const (
	serveTenants  = 8
	serveSkew     = 0.5
	serveWorkers  = 4
	serveWindow   = 3 * time.Millisecond
	checkedSample = 1000 // OK answers per serve run compared against a serial reference
	// latencyChunk is the answers per chunk of a serve run's latency
	// percentiles (see chunkedPercentile). Shorter chunks than this leave
	// fewer than five answers beyond each chunk's p99; longer ones (about
	// 4 s of serve-scan) flip between containing a garbage collection of
	// the 150 MB similarity index or not, which doubled serve-scan's p99
	// spread between runs.
	latencyChunk = 500
)

// serveWorkload is one open-loop traffic mix against the online tier.
type serveWorkload struct {
	name string
	// rate is the Poisson arrival rate in requests per second.
	rate float64
	// hotSet > 0 draws every request from a fixed set of that many
	// nodes; 0 asks a distinct node per request, from a seeded
	// permutation.
	hotSet   int
	method   string
	replicas int
	affinity bool
	// maxLatency is the simulated backend latency bound: each prompt
	// waits uniformly in [0, maxLatency).
	maxLatency time.Duration
	maxQueue   int
	// limit is the latency an answer must meet to count as goodput.
	limit time.Duration
}

// Batch-boost pipeline parameters: the paper's Algorithm 1 then 2.
const (
	batchQueries  = 2000
	batchTau      = 0.2
	batchCompress = 1
)

// The four workloads. Why each exists is in README.md; in short:
// serve-hot is answered from the serve tier's answer memory, serve-scan
// pays SNS selection, the replica pool and the predictor on every
// request, serve-flood offers 1.5x capacity to measure goodput and the
// 429 path, and batch-boost runs the paper's offline pipeline through
// the disk prompt cache.
var serveWorkloads = []serveWorkload{
	{
		name: "serve-hot", rate: 2000, hotSet: 64, method: "1-hop", replicas: 1,
		maxLatency: 4 * time.Millisecond, maxQueue: 256, limit: 10 * time.Millisecond,
	},
	{
		name: "serve-scan", rate: 250, method: "sns", replicas: 3, affinity: true,
		maxLatency: 8 * time.Millisecond, maxQueue: 256, limit: 100 * time.Millisecond,
	},
	{
		name: "serve-flood", rate: 1200, method: "1-hop", replicas: 1,
		maxLatency: 8 * time.Millisecond, maxQueue: 64, limit: 250 * time.Millisecond,
	},
}

const batchWorkload = "batch-boost"

// workloadNames lists every workload in the order a full run takes them.
func workloadNames() []string {
	var out []string
	for _, w := range serveWorkloads {
		out = append(out, w.name)
	}
	return append(out, batchWorkload)
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// scale shrinks the dataset; 1 in the benchmark, smaller in the
	// smoke test.
	scale float64
	// setups is how many times an untraced run sets up; setup_s and
	// setup_heap_mb are the medians.
	setups int
	// workDir holds the disk prompt caches; the run removes what it
	// creates.
	workDir string
}

// graphWithLabels generates the fixed dataset and its labeled split.
func graphWithLabels(scale float64) (*tag.Graph, tag.Split, error) {
	spec, err := tag.SpecByName(dataset)
	if err != nil {
		return nil, tag.Split{}, err
	}
	g := tag.Generate(spec, datasetSeed, tag.Options{Scale: scale})
	split := g.SplitPerClass(xrand.New(datasetSeed+1), labeledPerClass, 0)
	return g, split, nil
}

// newContext builds the predictors context every workload plans over.
func newContext(g *tag.Graph, known map[tag.NodeID]string, abstracts bool) *predictors.Context {
	return &predictors.Context{
		Graph:            g,
		Known:            copyKnown(known),
		M:                neighborsPerPrompt,
		Seed:             datasetSeed,
		IncludeAbstracts: abstracts,
	}
}

func copyKnown(k map[tag.NodeID]string) map[tag.NodeID]string {
	out := make(map[tag.NodeID]string, len(k))
	for v, l := range k {
		out[v] = l
	}
	return out
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// trueCategory returns node v's ground-truth class name.
func trueCategory(g *tag.Graph, v int) string { return g.Classes[g.Nodes[v].Label] }

// runWorkload dispatches one run.
func runWorkload(cfg runConfig) (*result, error) {
	if cfg.workload == batchWorkload {
		return runBatch(cfg)
	}
	for _, w := range serveWorkloads {
		if w.name == cfg.workload {
			return runServe(w, cfg)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames())
}
