package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricDef names one metric and its unit. BENCHMARK.json at the
// repository root carries the same names with their direction and
// regression bound; TestCatalogMatchesBenchmarkJSON keeps the two equal.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run of every workload. Each is defined on all workloads
// (bench/README.md gives the per-workload reading).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"setup_heap_mb", "MB"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"goodput_rps", "req/s"},
	{"ok_share", "ratio"},
	{"tokens_per_query", "tokens"},
	{"end_heap_mb", "MB"},
	{"accuracy", "ratio"},
}

// perLayer are the single-layer metrics a traced run prints. A layer a
// workload bypasses reports its counts and shares as 0; its timings
// come from replays on the workload's own inputs (see README.md).
var perLayer = []metricDef{
	{"driver.lag_p50_ms", "ms"},
	{"driver.lag_p99_ms", "ms"},
	{"driver.drain_ms", "ms"},
	{"driver.sent", "count"},
	{"driver.ok", "count"},
	{"driver.rejected", "count"},
	{"driver.errors", "count"},
	{"window.count", "count"},
	{"window.entries_mean", "count"},
	{"window.ms_p50", "ms"},
	{"window.ms_p99", "ms"},
	{"window.queue_wait_ms_p50", "ms"},
	{"window.queue_wait_ms_p99", "ms"},
	{"window.exec_ms_p50", "ms"},
	{"window.exec_ms_p99", "ms"},
	{"serve.coalesced_share.memory", "ratio"},
	{"serve.coalesced_share.inflight", "ratio"},
	{"serve.coalesced_share.window", "ratio"},
	{"serve.reject_share", "ratio"},
	{"serve.queue_peak", "count"},
	{"heap.growth_mb", "MB"},
	{"core.plan_ms_p50", "ms"},
	{"core.build_ms_p50", "ms"},
	{"core.rounds_per_plan", "count"},
	{"predictors.select_us_p50", "us"},
	{"predictors.select_us_p99", "us"},
	{"predictors.select_calls_per_query", "count"},
	{"predictors.select_busy_share", "ratio"},
	{"prompt.build_us_p50", "us"},
	{"prompt.compress_us_p50", "us"},
	{"prompt.compress_saved_share", "ratio"},
	{"token.count_us_p50", "us"},
	{"token.prompt_tokens_mean", "tokens"},
	{"llm.calls", "count"},
	{"llm.calls_per_ok", "count"},
	{"llm.call_ms_p50", "ms"},
	{"llm.call_ms_p99", "ms"},
	{"llm.sim_us_p50", "us"},
	{"llm.busy_share", "ratio"},
	{"batch.queue_ms_p50", "ms"},
	{"batch.queue_ms_p99", "ms"},
	{"batch.predict_ms_p50", "ms"},
	{"batch.exec_us_p50", "us"},
	{"batch.cache_share", "ratio"},
	{"batch.attribution_p50", "ratio"},
	{"pool.picks", "count"},
	{"pool.affinity_hit_share", "ratio"},
	{"pool.pick_us_p50", "us"},
	{"promptcache.hit_share", "ratio"},
	{"promptcache.lookup_us_p50", "us"},
	{"promptcache.entries", "count"},
	{"promptcache.bytes", "bytes"},
	{"promptcache.cold_qps", "req/s"},
	{"promptcache.warm_qps", "req/s"},
	{"process.cpu_us_per_query", "us"},
	{"obs.trace_overhead_share", "ratio"},
	{"obs.spans_per_query", "count"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one-line JSON object every run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// failures explains a failed gate; it is printed, not serialized.
	failures []string
}

// metricSet collects one run's values against a catalog.
type metricSet struct {
	units map[string]string
	vals  map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	ms := &metricSet{units: make(map[string]string, len(defs)), vals: make(map[string]metric, len(defs))}
	for _, d := range defs {
		ms.units[d.Name] = d.Unit
	}
	return ms
}

// set records one value; a name outside the catalog is a bug.
func (s *metricSet) set(name string, v float64) {
	u, ok := s.units[name]
	if !ok {
		panic("bench: metric not in catalog: " + name)
	}
	s.vals[name] = metric{Value: v, Unit: u}
}

// complete returns the values, failing when the run left a catalog
// metric unset.
func (s *metricSet) complete() (map[string]metric, error) {
	var missing []string
	for name := range s.units {
		if _, ok := s.vals[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return s.vals, nil
}

// benchSpec is the part of BENCHMARK.json compare mode and the catalog
// test read.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the repository root.
func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	return &s, nil
}
