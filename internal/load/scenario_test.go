package load

import (
	"strings"
	"testing"
)

// TestParseScenario covers the strict-decode contract: valid documents
// normalize, typos and trailing data are errors.
func TestParseScenario(t *testing.T) {
	sc, err := ParseScenario([]byte(`{
		"name": "t", "requests": 10,
		"arrival": {"process": "poisson", "rate_per_sec": 100},
		"tenants": {"count": 2}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Dataset != "cora" || sc.Scale != 1 || sc.Topology.Workers != 4 ||
		sc.Topology.Method != "1-hop" || sc.Topology.Replicas != 1 {
		t.Errorf("defaults not applied: %+v", sc)
	}

	if _, err := ParseScenario([]byte(`{"name": "t", "requets": 1}`)); err == nil ||
		!strings.Contains(err.Error(), "requets") {
		t.Errorf("typoed field should fail strict decode, got %v", err)
	}
	if _, err := ParseScenario([]byte(`{"name": "t", "requests": 1,
		"arrival": {"process": "poisson", "rate_per_sec": 1},
		"tenants": {"count": 1}} trailing`)); err == nil {
		t.Error("trailing data should be rejected")
	}
}

// TestValidateRejections spot-checks the validator's guardrails.
func TestValidateRejections(t *testing.T) {
	base := func() Scenario {
		sc := Scenario{
			Name: "t", Requests: 10,
			Arrival: Arrival{Process: ProcessPoisson, RatePerSec: 100},
		}
		sc.applyDefaults()
		return sc
	}
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"no name", func(s *Scenario) { s.Name = "" }},
		{"no requests", func(s *Scenario) { s.Requests = 0 }},
		{"scale > 1", func(s *Scenario) { s.Scale = 1.5 }},
		{"bad process", func(s *Scenario) { s.Arrival.Process = "lumpy" }},
		{"fault rates sum > 1", func(s *Scenario) {
			s.Faults.ErrorRate = 0.6
			s.Faults.GarbageRate = 0.6
		}},
		{"hang without timeout", func(s *Scenario) { s.Faults.HangRate = 0.1 }},
		{"hedge without replicas", func(s *Scenario) { s.Topology.Hedge = true }},
		{"affinity without replicas", func(s *Scenario) { s.Topology.Affinity = true }},
		{"compress out of range", func(s *Scenario) { s.Topology.Compress = 7 }},
		{"negative max_queue", func(s *Scenario) { s.Topology.MaxQueue = -1 }},
		{"negative slo", func(s *Scenario) { s.SLOP99MS = -1 }},
	}
	for _, tc := range cases {
		sc := base()
		tc.mutate(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base scenario should validate: %v", err)
	}
}

// TestPresetsRoundTrip: every built-in scenario validates and survives
// encode→parse as a fixed point — the same invariant the fuzz target
// enforces on arbitrary accepted inputs.
func TestPresetsRoundTrip(t *testing.T) {
	names := map[string]bool{}
	for _, sc := range Presets() {
		if names[sc.Name] {
			t.Fatalf("duplicate preset name %q", sc.Name)
		}
		names[sc.Name] = true
		if err := sc.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", sc.Name, err)
			continue
		}
		enc, err := sc.Encode()
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseScenario(enc)
		if err != nil {
			t.Errorf("preset %q re-parse: %v", sc.Name, err)
			continue
		}
		if back != sc {
			t.Errorf("preset %q round-trip drifted:\n  was %+v\n  got %+v", sc.Name, sc, back)
		}
	}
	for _, want := range []string{"smoke", "steady", "burst", "flood", "chaos"} {
		if _, ok := PresetByName(want); !ok {
			t.Errorf("missing preset %q", want)
		}
	}
	if _, ok := PresetByName("nope"); ok {
		t.Error("PresetByName accepted an unknown name")
	}
	if got := len(PresetNames()); got != len(Presets()) {
		t.Errorf("PresetNames returned %d names for %d presets", got, len(Presets()))
	}
}
