package load

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
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
}

// TestRunQuotaBackpressure gives each tenant a tiny token budget and
// asserts the open-loop driver observes quota 429s as rejections, not
// errors — the tenant-quota half of the backpressure contract.
func TestRunQuotaBackpressure(t *testing.T) {
	sc := Scenario{
		Name: "quota", Seed: 3, Scale: 0.12, Requests: 80, NodePool: 60,
		Arrival:  Arrival{Process: ProcessPoisson, RatePerSec: 2000},
		Tenants:  Tenants{Count: 2, TokenBudget: 200},
		Topology: Topology{Knobs: core.Knobs{Workers: 8}},
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

// TestLatencyRunsFromDueInstant offers a request whose due instant
// passed 50 ms before it was sent, against a server that answers at
// once: the driver's lateness is the caller's wait, so the sample's
// latency must include it.
func TestLatencyRunsFromDueInstant(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(serve.QueryResponse{Node: 7, Category: "c", Tenant: "t"})
	}))
	defer ts.Close()
	const late = 50 * time.Millisecond
	s := doQuery(ts.Client(), ts.URL, "t", 7, time.Now().Add(-late))
	if s.class != classOK {
		t.Fatalf("class %q, want %q", s.class, classOK)
	}
	if s.latency < late {
		t.Errorf("latency %v excludes the %v the request was already late when sent", s.latency, late)
	}
}
