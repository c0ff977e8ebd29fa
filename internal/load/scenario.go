// Package load is the scenario-driven load harness behind cmd/mqoload:
// the proof layer that turns "fast as the hardware allows" from a claim
// into a guarded number. A Scenario declares everything about one run —
// dataset, open-loop arrival process, tenant mix and quotas, fault
// profile, and serving-tier topology — as one JSON document; the runner
// replays it against the online serving tier (an in-process llmserve
// twin or a real one over the network), records every request's
// latency, outcome and token spend, and emits a machine-readable
// Report whose SLO verdict is cross-checked against the server's own
// /debug/slo within the same run.
//
// Arrivals are open-loop by design: the schedule is fixed up front from
// the seed and requests fire at their scheduled instants whether or not
// earlier ones completed. A closed-loop driver (fire, wait, fire again)
// self-throttles when the server slows down, which silently erases the
// very tail latency a load test exists to measure (see DESIGN.md,
// "Open-loop arrivals"); an open-loop driver keeps offering load, so
// queueing delay and 429 backpressure show up in the numbers.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
)

// Arrival processes.
const (
	// ProcessPoisson draws exponential inter-arrival gaps around
	// 1/RatePerSec — the memoryless arrivals of independent users.
	ProcessPoisson = "poisson"
	// ProcessBursty alternates exact ON windows (arrivals at fixed
	// 1/RatePerSec spacing) with silent OFF windows — the on/off duty
	// cycle of batchy clients and retry storms.
	ProcessBursty = "bursty"
)

// Scenario declares one load run. Every field is a scalar so two
// scenarios compare with ==, which is what lets the fuzz harness assert
// exact encode→decode round-trips.
type Scenario struct {
	// Name labels the scenario in reports and BENCH_load.json rows.
	Name string `json:"name"`
	// Seed makes the whole run deterministic: the arrival schedule,
	// tenant assignment, node choice and any injected faults all derive
	// from it.
	Seed uint64 `json:"seed"`
	// Dataset names the graph the serving tier answers over (default
	// "cora"); Scale shrinks it (default 1). Against a remote target the
	// server must have been started with the same dataset, scale and
	// seed, or node IDs will not line up.
	Dataset string  `json:"dataset,omitempty"`
	Scale   float64 `json:"scale,omitempty"`
	// Requests is the total number of queries offered.
	Requests int `json:"requests"`
	// NodePool is how many distinct nodes the run draws queries from
	// (default min(64, graph size)); a small pool concentrates traffic
	// and exercises coalescing, a large one spreads it.
	NodePool int `json:"node_pool,omitempty"`
	// Arrival is the open-loop arrival process.
	Arrival Arrival `json:"arrival"`
	// Tenants is the tenant mix and per-tenant quota.
	Tenants Tenants `json:"tenants"`
	// Faults injects deterministic backend failures and latency
	// (llm.FaultInjector); in-process runs only.
	Faults Faults `json:"faults,omitempty"`
	// Topology is the serving-tier shape under test.
	Topology Topology `json:"topology,omitempty"`
	// SLOP99MS, when > 0, installs a p99 latency objective on the
	// server's SLO engine; the report carries its verdict.
	SLOP99MS float64 `json:"slo_p99_ms,omitempty"`
}

// Arrival declares the open-loop arrival process.
type Arrival struct {
	// Process is ProcessPoisson or ProcessBursty.
	Process string `json:"process"`
	// RatePerSec is the offered arrival rate while arrivals are flowing
	// (for bursty, the rate inside ON windows).
	RatePerSec float64 `json:"rate_per_sec"`
	// OnMS/OffMS shape the bursty duty cycle: OnMS of arrivals, OffMS of
	// silence, repeating. Ignored for poisson.
	OnMS  float64 `json:"on_ms,omitempty"`
	OffMS float64 `json:"off_ms,omitempty"`
}

// Tenants declares the tenant mix.
type Tenants struct {
	// Count is how many distinct tenants issue requests (default 1).
	Count int `json:"count"`
	// TokenBudget, when > 0, is each tenant's delivered-token quota on
	// the serving tier; exhausted tenants get 429s that the report
	// counts separately from queue-full rejections.
	TokenBudget int `json:"token_budget,omitempty"`
	// Skew biases the tenant draw: tenant i is chosen with weight
	// (i+1)^-Skew. 0 is uniform; 1 is a Zipf-ish heavy hitter mix.
	Skew float64 `json:"skew,omitempty"`
}

// Faults declares the deterministic fault profile (llm.FaultConfig
// rates; see that package for semantics). MaxLatencyMS doubles as the
// simulated backend latency — the knob that makes queueing, slots and
// backpressure behave like a real deployment instead of a microsecond
// simulator.
type Faults struct {
	ErrorRate    float64 `json:"error_rate,omitempty"`
	HangRate     float64 `json:"hang_rate,omitempty"`
	GarbageRate  float64 `json:"garbage_rate,omitempty"`
	MaxLatencyMS float64 `json:"max_latency_ms,omitempty"`
}

// enabled reports whether any fault or latency injection is configured.
func (f Faults) enabled() bool {
	return f.ErrorRate > 0 || f.HangRate > 0 || f.GarbageRate > 0 || f.MaxLatencyMS > 0
}

// Topology declares the serving-tier shape: the knobs llmserve exposes
// as flags, here pinned by the scenario so a run is reproducible from
// its JSON alone. The embedded core.Knobs are the shared execution
// spec (workers, qps, query_timeout, breaker, breaker_cooldown,
// replicas, hedge, hedge_after, affinity, compress, target_tokens),
// spelled exactly like the -workers/-qps/... flags; Workers defaults to
// 4 and Replicas to 1. Durations are JSON integers in nanoseconds.
type Topology struct {
	core.Knobs
	// MaxQueue bounds the admitted nodes that have no answer yet
	// (default serve.DefaultMaxQueue).
	MaxQueue int `json:"max_queue,omitempty"`
	// Method is the neighbor-selection method (default "1-hop"); M caps
	// neighbors per prompt (default 4); Labeled seeds the context with
	// that many labeled nodes per class (default 20).
	Method  string `json:"method,omitempty"`
	M       int    `json:"m,omitempty"`
	Labeled int    `json:"labeled,omitempty"`
}

// ParseScenario strictly decodes and validates one scenario document:
// unknown fields are errors (a typoed knob must not silently run the
// default), and defaults are applied so the returned scenario is fully
// normalized — encoding it and parsing the result yields an identical
// value, the invariant FuzzScenarioConfig enforces.
func ParseScenario(data []byte) (Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("load: parsing scenario: %w", err)
	}
	// Trailing garbage after the document is a malformed file, not a
	// second scenario.
	if dec.More() {
		return Scenario{}, fmt.Errorf("load: trailing data after scenario document")
	}
	sc.applyDefaults()
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// Encode renders the scenario as indented canonical JSON.
func (sc Scenario) Encode() ([]byte, error) {
	return json.MarshalIndent(sc, "", "  ")
}

// applyDefaults normalizes zero fields to their documented defaults.
func (sc *Scenario) applyDefaults() {
	if sc.Dataset == "" {
		sc.Dataset = "cora"
	}
	if sc.Scale == 0 {
		sc.Scale = 1
	}
	if sc.Tenants.Count == 0 {
		sc.Tenants.Count = 1
	}
	if sc.Topology.Replicas == 0 {
		sc.Topology.Replicas = 1
	}
	if sc.Topology.Workers == 0 {
		sc.Topology.Workers = 4
	}
	if sc.Topology.Method == "" {
		sc.Topology.Method = "1-hop"
	}
	if sc.Topology.M == 0 {
		sc.Topology.M = 4
	}
	if sc.Topology.Labeled == 0 {
		sc.Topology.Labeled = 20
	}
}

// Validate reports the first configuration error. It assumes defaults
// have been applied (ParseScenario does both).
func (sc Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("load: scenario needs a name")
	}
	if sc.Requests <= 0 {
		return fmt.Errorf("load: scenario %q: requests must be > 0", sc.Name)
	}
	if sc.Scale <= 0 || sc.Scale > 1 {
		return fmt.Errorf("load: scenario %q: scale %v outside (0, 1]", sc.Name, sc.Scale)
	}
	if sc.NodePool < 0 {
		return fmt.Errorf("load: scenario %q: negative node_pool", sc.Name)
	}
	switch sc.Arrival.Process {
	case ProcessPoisson:
	case ProcessBursty:
		if sc.Arrival.OnMS <= 0 {
			return fmt.Errorf("load: scenario %q: bursty arrivals need on_ms > 0", sc.Name)
		}
		if sc.Arrival.OffMS < 0 {
			return fmt.Errorf("load: scenario %q: negative off_ms", sc.Name)
		}
	default:
		return fmt.Errorf("load: scenario %q: unknown arrival process %q (poisson, bursty)",
			sc.Name, sc.Arrival.Process)
	}
	if sc.Arrival.RatePerSec <= 0 {
		return fmt.Errorf("load: scenario %q: rate_per_sec must be > 0", sc.Name)
	}
	if sc.Tenants.Count < 1 {
		return fmt.Errorf("load: scenario %q: tenant count must be >= 1", sc.Name)
	}
	if sc.Tenants.TokenBudget < 0 || sc.Tenants.Skew < 0 {
		return fmt.Errorf("load: scenario %q: negative tenant knob", sc.Name)
	}
	for _, r := range []float64{sc.Faults.ErrorRate, sc.Faults.HangRate, sc.Faults.GarbageRate} {
		if r < 0 || r > 1 {
			return fmt.Errorf("load: scenario %q: fault rate %v outside [0, 1]", sc.Name, r)
		}
	}
	if s := sc.Faults.ErrorRate + sc.Faults.HangRate + sc.Faults.GarbageRate; s > 1 {
		return fmt.Errorf("load: scenario %q: fault rates sum to %v > 1", sc.Name, s)
	}
	if sc.Faults.MaxLatencyMS < 0 {
		return fmt.Errorf("load: scenario %q: negative max_latency_ms", sc.Name)
	}
	if sc.Faults.HangRate > 0 && sc.Topology.QueryTimeout <= 0 {
		return fmt.Errorf("load: scenario %q: hang_rate > 0 needs topology.query_timeout > 0 (a hung call would pin its slot forever)", sc.Name)
	}
	t := sc.Topology
	if err := t.Knobs.Validate(); err != nil {
		return fmt.Errorf("load: scenario %q: topology: %w", sc.Name, err)
	}
	if t.MaxQueue < 0 || t.M < 1 || t.Labeled < 1 {
		return fmt.Errorf("load: scenario %q: topology knob out of range: %+v", sc.Name, t)
	}
	if sc.SLOP99MS < 0 {
		return fmt.Errorf("load: scenario %q: negative slo_p99_ms", sc.Name)
	}
	return nil
}

// Presets returns the built-in scenarios, the EXPERIMENTS.md anchors:
//
//   - smoke: the short deterministic CI gate (make loadsmoke) — steady
//     Poisson arrivals well inside capacity with a generous SLO, so the
//     verdict is deterministic on any machine.
//   - steady: Poisson arrivals near capacity with realistic simulated
//     backend latency — the tokens-per-query and coalescing headline.
//   - burst: on/off arrivals that slam the tier then go silent, the
//     shape that exposes queue-depth peaks between scrapes.
//   - flood: offered load far past capacity against a small queue —
//     the 429/Retry-After backpressure contract under an open loop.
//   - chaos: steady arrivals over an erroring, hanging, high-variance
//     backend behind replicas and hedging.
func Presets() []Scenario {
	raw := []Scenario{
		{
			Name: "smoke", Seed: 1, Scale: 0.12, Requests: 240, NodePool: 32,
			Arrival:  Arrival{Process: ProcessPoisson, RatePerSec: 600},
			Tenants:  Tenants{Count: 4},
			Topology: Topology{Knobs: core.Knobs{Workers: 8}},
			SLOP99MS: 30000,
		},
		{
			Name: "steady", Seed: 1, Scale: 0.2, Requests: 400, NodePool: 48,
			Arrival:  Arrival{Process: ProcessPoisson, RatePerSec: 300},
			Tenants:  Tenants{Count: 8, Skew: 0.5},
			Faults:   Faults{MaxLatencyMS: 4},
			Topology: Topology{Knobs: core.Knobs{Workers: 8}},
			SLOP99MS: 30000,
		},
		{
			Name: "burst", Seed: 1, Scale: 0.2, Requests: 400, NodePool: 48,
			Arrival:  Arrival{Process: ProcessBursty, RatePerSec: 1200, OnMS: 40, OffMS: 120},
			Tenants:  Tenants{Count: 8},
			Faults:   Faults{MaxLatencyMS: 4},
			Topology: Topology{Knobs: core.Knobs{Workers: 8}},
			SLOP99MS: 30000,
		},
		{
			Name: "flood", Seed: 1, Scale: 0.2, Requests: 500, NodePool: 200,
			Arrival:  Arrival{Process: ProcessPoisson, RatePerSec: 4000},
			Tenants:  Tenants{Count: 8},
			Faults:   Faults{MaxLatencyMS: 25},
			Topology: Topology{Knobs: core.Knobs{Workers: 2}, MaxQueue: 32},
			SLOP99MS: 30000,
		},
		{
			Name: "chaos", Seed: 1, Scale: 0.2, Requests: 300, NodePool: 64,
			Arrival: Arrival{Process: ProcessPoisson, RatePerSec: 250},
			Tenants: Tenants{Count: 6},
			Faults:  Faults{ErrorRate: 0.05, HangRate: 0.02, GarbageRate: 0.03, MaxLatencyMS: 8},
			Topology: Topology{
				Knobs: core.Knobs{
					Workers: 8, QueryTimeout: 250 * time.Millisecond,
					Replicas: 3, Hedge: true, HedgeAfter: 20 * time.Millisecond,
				},
			},
			SLOP99MS: 30000,
		},
	}
	for i := range raw {
		raw[i].applyDefaults()
	}
	return raw
}

// PresetByName resolves a built-in scenario.
func PresetByName(name string) (Scenario, bool) {
	for _, sc := range Presets() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// PresetNames lists the built-in scenario names in order.
func PresetNames() []string {
	var out []string
	for _, sc := range Presets() {
		out = append(out, sc.Name)
	}
	return out
}
