package obs

import (
	"encoding/json"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// metricSLOViolations counts requests whose latency exceeded the
// configured objective (catalog in README.md).
const metricSLOViolations = "mqo_slo_violations_total"

// maxSLOSamples bounds the retained latency samples the quantile is
// computed over. Violation counting stays exact past the cap (every
// sample is still compared to the objective); only the reported
// quantile degrades to "over the most recent maxSLOSamples requests".
const maxSLOSamples = 16384

// SLO is a latency objective: "the Percentile-th quantile of query
// latency stays at or under Objective". The error budget is the
// allowed violation fraction, 1 − Percentile; burn rate is how fast
// observed violations consume it (1.0 = exactly on budget).
type SLO struct {
	// Name labels the objective in metrics and reports (default
	// "query_latency").
	Name string `json:"name"`
	// Objective is the latency bound.
	Objective time.Duration `json:"objective_ns"`
	// Percentile is the quantile the bound applies to, in (0, 1)
	// (default 0.99).
	Percentile float64 `json:"percentile"`
}

// SLOReport is the deterministic pass/fail verdict served by
// /debug/slo.
type SLOReport struct {
	Configured  bool    `json:"configured"`
	Name        string  `json:"name,omitempty"`
	Percentile  float64 `json:"percentile,omitempty"`
	ObjectiveMS float64 `json:"objective_ms,omitempty"`
	// Samples is the total number of requests observed; Retained is how
	// many back the quantile (== Samples until maxSLOSamples).
	Samples  int `json:"samples"`
	Retained int `json:"retained"`
	// ObservedMS is the exact Percentile-th quantile over the retained
	// samples (0 when none).
	ObservedMS float64 `json:"observed_ms"`
	// Violations counts samples over the objective — exact, never
	// sampled down.
	Violations uint64 `json:"violations"`
	// BurnRate is the observed violation fraction divided by the error
	// budget (1 − Percentile): <1 under budget, >1 burning it.
	BurnRate float64 `json:"burn_rate"`
	// Pass is the verdict: the observed quantile meets the objective
	// (vacuously true with zero samples).
	Pass bool `json:"pass"`
}

// sloState is the engine behind one registry's SLO. on mirrors
// whether an objective is configured; it is written under mu and read
// without it, so recording takes no lock while no objective is set.
type sloState struct {
	mu         sync.Mutex
	on         atomic.Bool
	cfg        SLO
	window     ring[time.Duration] // the most recent maxSLOSamples
	total      uint64
	violations uint64
}

// SetSLO installs (or replaces) the registry's latency objective.
// Samples observed before the call are kept and re-judged against the
// new objective only for the quantile — the violation counter restarts,
// since "violation" is defined by the objective in force when the
// sample arrived.
func (r *Registry) SetSLO(s SLO) {
	if s.Name == "" {
		s.Name = "query_latency"
	}
	if !(s.Percentile > 0 && s.Percentile < 1) {
		s.Percentile = 0.99
	}
	r.slo.mu.Lock()
	r.slo.cfg = s
	r.slo.on.Store(s.Objective > 0)
	r.slo.violations = 0
	r.slo.mu.Unlock()
}

// RecordSLO feeds one request's end-to-end latency to the SLO engine
// of Active(rec). Each front end calls it once where a request ends,
// whether or not tracing sampled the request: core for every plan
// query, the serve tier for every /v1/query answer (memory hits
// included), llm.Handler for every chat request. A no-op, taking no
// lock, until SetSLO configures an objective.
func RecordSLO(rec Recorder, latency time.Duration) {
	r, ok := Active(rec).(*Registry)
	if !ok || !r.slo.on.Load() {
		return
	}
	st := &r.slo
	st.mu.Lock()
	if !st.on.Load() {
		st.mu.Unlock()
		return
	}
	st.total++
	st.window.push(latency)
	violated := latency > st.cfg.Objective
	if violated {
		st.violations++
	}
	name := st.cfg.Name
	st.mu.Unlock()
	if violated {
		r.Add(metricSLOViolations, 1, "slo", name)
	}
}

// SLOReport computes the current verdict: the Quantile of a sorted
// copy of the retained samples, so two runs over the same workload
// produce byte-identical reports.
func (r *Registry) SLOReport() SLOReport {
	st := &r.slo
	st.mu.Lock()
	rep := SLOReport{
		Configured: st.on.Load(),
		Samples:    int(st.total),
		Retained:   st.window.len(),
		Violations: st.violations,
		Pass:       true,
	}
	cfg := st.cfg
	var samples []time.Duration
	if rep.Configured {
		samples = st.window.items()
	}
	st.mu.Unlock()
	if !rep.Configured {
		return rep
	}
	rep.Name = cfg.Name
	rep.Percentile = cfg.Percentile
	rep.ObjectiveMS = durMS(cfg.Objective)
	if len(samples) > 0 {
		slices.Sort(samples)
		observed := Quantile(samples, cfg.Percentile)
		rep.ObservedMS = durMS(observed)
		rep.Pass = observed <= cfg.Objective
	}
	if rep.Samples > 0 {
		violFrac := float64(rep.Violations) / float64(rep.Samples)
		rep.BurnRate = violFrac / (1 - cfg.Percentile)
	}
	return rep
}

// Quantile is the nearest-rank p-quantile of ascending samples: the
// element at index ⌈p·n⌉−1, clamped to the slice, with no
// interpolation. /debug/slo and the load harness's report both use
// it, so client- and server-side tails are comparable by definition.
// sorted must not be empty.
func Quantile(sorted []time.Duration, p float64) time.Duration {
	idx := int(float64(len(sorted))*p+0.9999999) - 1
	return sorted[min(max(idx, 0), len(sorted)-1)]
}

func durMS(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e6
}

// SLOHandler serves /debug/slo: the SLOReport as indented JSON. The
// verdict doubles as the HTTP status — 200 on pass (or unconfigured),
// 503 on fail — so probes need not parse the body.
func SLOHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rep := r.SLOReport()
		w.Header().Set("Content-Type", "application/json")
		if !rep.Pass {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
	})
}
