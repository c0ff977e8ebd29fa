package load

import (
	"encoding/json"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
)

// TestRunSmokePreset drives the CI smoke scenario end to end against
// the in-process serving tier and checks the report's accounting
// invariants: every offered request is classified exactly once, the
// contract decode never fails against our own server, and the SLO
// verdict agrees with /debug/slo from the same run.
func TestRunSmokePreset(t *testing.T) {
	sc, ok := PresetByName("smoke")
	if !ok {
		t.Fatal("smoke preset missing")
	}
	sc.Requests = 120 // trim the preset for test wall-clock

	rep, err := Run(sc, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.OK + rep.Rejected + rep.Errors + rep.DecodeErrors; got != sc.Requests {
		t.Errorf("classified %d of %d requests", got, sc.Requests)
	}
	if rep.DecodeErrors != 0 {
		t.Errorf("%d decode errors against our own server — wire contract drifted", rep.DecodeErrors)
	}
	if rep.Errors != 0 {
		t.Errorf("%d errors in a fault-free scenario", rep.Errors)
	}
	if rep.OK == 0 {
		t.Fatal("no request completed")
	}
	if rep.TokensPerQuery <= 0 {
		t.Errorf("tokens_per_query %v, want > 0", rep.TokensPerQuery)
	}
	if rep.P50MS <= 0 || rep.P99MS < rep.P50MS {
		t.Errorf("implausible percentiles: p50 %v p99 %v", rep.P50MS, rep.P99MS)
	}
	if !rep.SLO.Configured {
		t.Error("smoke preset sets an SLO but /debug/slo reports none configured")
	}
	if rep.SLO.Samples == 0 {
		t.Error("server SLO engine saw no samples")
	}
	if !rep.SLOAgree {
		t.Errorf("client and server SLO verdicts disagree: client pass=%v server pass=%v",
			rep.SLOPass, rep.SLO.Pass)
	}

	// The report must survive the JSON-lines append that builds
	// BENCH_load.json.
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := rep.AppendJSONL(path); err != nil {
		t.Fatal(err)
	}
	if err := rep.AppendJSONL(path); err != nil {
		t.Fatal(err)
	}
}

// TestRunQuotaBackpressure gives each tenant a tiny token budget and
// asserts the open-loop driver observes quota 429s as rejections, not
// errors — the tenant-quota half of the backpressure contract.
func TestRunQuotaBackpressure(t *testing.T) {
	sc := Scenario{
		Name: "quota", Seed: 3, Scale: 0.12, Requests: 80, NodePool: 60,
		Arrival:  Arrival{Process: ProcessPoisson, RatePerSec: 2000},
		Tenants:  Tenants{Count: 2, TokenBudget: 200},
		Topology: Topology{Knobs: core.Knobs{Workers: 8}, Window: time.Millisecond},
	}
	rep, err := Run(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejected == 0 {
		t.Errorf("no rejections despite a %d-token budget: %+v", sc.Tenants.TokenBudget, rep)
	}
	if rep.DecodeErrors != 0 {
		t.Errorf("%d decode errors — 429 bodies or Retry-After drifted", rep.DecodeErrors)
	}
	if rep.OK == 0 {
		t.Error("budget rejected everything; expected some completions before exhaustion")
	}
}

// TestReportJSONShape pins the BENCH_load.json row schema: the fields
// the acceptance gate greps for must exist under exactly these keys.
func TestReportJSONShape(t *testing.T) {
	rep := &Report{Scenario: "x"}
	enc, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(enc, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"scenario", "seed", "requests", "p50_ms", "p95_ms", "p99_ms",
		"tokens_per_query", "coalesce_rate", "affinity_hit_rate",
		"reject_share", "queue_peak", "slo", "slo_pass", "slo_agree",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("report row missing key %q", key)
		}
	}
}
