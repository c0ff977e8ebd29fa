package core

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/predictors"
	"repro/internal/promptcache"
)

// tracedConfig is the chaos execution shape of the acceptance run: a
// 3-slot replica pool with hedging and failover and a persistent disk
// cache, feeding one batch executor.
func tracedConfig(pc *promptcache.Cache) ExecConfig {
	return ExecConfig{
		Workers:      4,
		ReplicaCount: 3,
		Hedge:        true,
		HedgeAfter:   5 * time.Millisecond,
		Disk:         pc,
	}
}

// newTraceRegistry returns a registry sized so a whole plan's spans
// and ledgers fit without the rings evicting.
func newTraceRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.SetTraceCapacity(16384)
	reg.SetLedgerCapacity(4096)
	return reg
}

// TestChaosRunProducesStitchedTraces executes a plan through the full
// stack — executor, replica pool with hedging, disk cache, fault
// injector — twice (cold then warm) and checks, for every query of
// both runs, that one stitched trace exists (every span parents back
// to the query's "core.query" root), that the ledger's billed stages
// cover the query's wall-clock, and that billed tokens across all
// ledgers sum exactly to the run's metered token spend.
func TestChaosRunProducesStitchedTraces(t *testing.T) {
	f := newFixture(t, 400, 40, 7)
	m := predictors.KHopRandom{K: 1}
	plan := Plan{Queries: f.split.Query}
	pc, err := promptcache.Open(t.TempDir(), promptcache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()

	injected := func() llm.Predictor {
		return f.faultedSim(t, llm.FaultConfig{Seed: 11, ErrorRate: 0.15})
	}

	for _, phase := range []string{"cold", "warm"} {
		reg := newTraceRegistry()
		ctx := f.freshCtx()
		ctx.Obs = reg
		res, err := ExecuteWith(ctx, m, injected(), plan, tracedConfig(pc))
		if err != nil {
			if _, ok := err.(*QueryErrors); !ok {
				t.Fatalf("%s run: %v", phase, err)
			}
		}
		verifyStitchedTraces(t, phase, reg, res, len(plan.Queries))
	}
}

// verifyStitchedTraces checks the per-query trace/ledger invariants on
// one finished run.
func verifyStitchedTraces(t *testing.T, phase string, reg *obs.Registry, res *Results, queries int) {
	t.Helper()
	ledgers := reg.Ledgers()
	if len(ledgers) != queries {
		t.Fatalf("%s: %d ledgers for %d queries", phase, len(ledgers), queries)
	}

	billedTokens := 0
	sawPool, sawCache := false, false
	for _, led := range ledgers {
		billedTokens += led.BilledTokens
		if a := led.Attribution(); a < 0.9 {
			t.Errorf("%s: query %s attribution %.2f < 0.9 (total %v, billed %v)",
				phase, led.Name, a, led.Total, led.BilledWall)
		}

		spans := reg.TraceByID(led.TraceID)
		if len(spans) == 0 {
			t.Fatalf("%s: no spans for trace %s", phase, led.TraceID)
		}
		byID := make(map[string]obs.Trace, len(spans))
		names := make(map[string]int, len(spans))
		var root obs.Trace
		for _, sp := range spans {
			byID[sp.SpanID] = sp
			names[sp.Name]++
			if sp.Name == "core.query" {
				root = sp
			}
		}
		if root.SpanID == "" {
			t.Fatalf("%s: trace %s has no core.query root (spans: %v)", phase, led.TraceID, names)
		}
		if root.ParentID != "" {
			t.Errorf("%s: core.query root has parent %s", phase, root.ParentID)
		}
		// Every span must chain to the root through in-trace parents —
		// one stitched tree, no orphans.
		for _, sp := range spans {
			cur, hops := sp, 0
			for cur.ParentID != "" {
				parent, ok := byID[cur.ParentID]
				if !ok {
					t.Fatalf("%s: span %s (%s) has parent %s outside trace %s",
						phase, sp.Name, sp.SpanID, cur.ParentID, led.TraceID)
				}
				cur = parent
				if hops++; hops > len(spans) {
					t.Fatalf("%s: parent cycle in trace %s", phase, led.TraceID)
				}
			}
			if cur.SpanID != root.SpanID {
				t.Errorf("%s: span %s roots at %s, not core.query", phase, sp.Name, cur.Name)
			}
		}
		if names["batch.request"] == 0 {
			t.Errorf("%s: trace %s has no batch.request span (names: %v)", phase, led.TraceID, names)
		}
		if names["pool.attempt"] > 0 {
			sawPool = true
		}
		if names["batch.cache"] > 0 {
			sawCache = true
		}
	}

	if want := res.Meter.InputTokens() + res.Meter.OutputTokens(); billedTokens != want {
		t.Errorf("%s: billed tokens %d != metered spend %d", phase, billedTokens, want)
	}
	switch phase {
	case "cold":
		if !sawPool {
			t.Errorf("cold run executed no query through the pool")
		}
	case "warm":
		if !sawCache {
			t.Errorf("warm run served no query from the cache tier")
		}
	}
}

// TestSLOVerdictEndToEnd drives real plan executions into the SLO
// engine and asserts /debug/slo is deterministic: a generous objective
// passes with HTTP 200, an unmeetable one fails with HTTP 503 and a
// burn rate that accounts for every query.
func TestSLOVerdictEndToEnd(t *testing.T) {
	f := newFixture(t, 300, 25, 9)
	m := predictors.KHopRandom{K: 1}
	plan := Plan{Queries: f.split.Query}

	runWith := func(objective time.Duration) *obs.Registry {
		reg := newTraceRegistry()
		reg.SetSLO(obs.SLO{Name: "query_latency", Objective: objective, Percentile: 0.99})
		ctx := f.freshCtx()
		ctx.Obs = reg
		if _, err := ExecuteWith(ctx, m, f.sim, plan, ExecConfig{Workers: 2}); err != nil {
			t.Fatalf("objective %v: %v", objective, err)
		}
		return reg
	}

	// Generous objective: no query takes an hour.
	pass := runWith(time.Hour)
	rw := httptest.NewRecorder()
	obs.SLOHandler(pass).ServeHTTP(rw, httptest.NewRequest("GET", "/debug/slo", nil))
	if rw.Code != 200 {
		t.Fatalf("generous SLO: status %d, body %s", rw.Code, rw.Body.String())
	}
	rep := pass.SLOReport()
	if !rep.Pass || rep.Violations != 0 || rep.Samples != len(plan.Queries) {
		t.Fatalf("generous SLO report: %+v", rep)
	}

	// Unmeetable objective: every query outlives a nanosecond.
	fail := runWith(time.Nanosecond)
	rw = httptest.NewRecorder()
	obs.SLOHandler(fail).ServeHTTP(rw, httptest.NewRequest("GET", "/debug/slo", nil))
	if rw.Code != 503 {
		t.Fatalf("unmeetable SLO: status %d, body %s", rw.Code, rw.Body.String())
	}
	if !strings.Contains(rw.Body.String(), `"pass": false`) {
		t.Fatalf("unmeetable SLO body: %s", rw.Body.String())
	}
	rep = fail.SLOReport()
	if rep.Pass || rep.Violations != uint64(len(plan.Queries)) {
		t.Fatalf("unmeetable SLO report: %+v", rep)
	}
}

// TestSLOSamplesUntracedQueries: every plan query is one SLO sample
// even when tracing samples none of them.
func TestSLOSamplesUntracedQueries(t *testing.T) {
	f := newFixture(t, 300, 25, 9)
	plan := Plan{Queries: f.split.Query}
	reg := obs.NewRegistry()
	reg.SetTraceSample(0)
	reg.SetSLO(obs.SLO{Objective: time.Hour})
	ctx := f.freshCtx()
	ctx.Obs = reg
	if _, err := ExecuteWith(ctx, predictors.KHopRandom{K: 1}, f.sim, plan, ExecConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if rep := reg.SLOReport(); rep.Samples != len(plan.Queries) || !rep.Pass {
		t.Fatalf("SLO report after %d untraced queries: %+v", len(plan.Queries), rep)
	}
	if got := len(reg.Ledgers()); got != 0 {
		t.Fatalf("%d ledgers closed at trace sample 0", got)
	}
}

// TestBoostRunLinksQueryTracesToRounds checks the boost path's trace
// shape: a core.plan trace containing one core.round span per round,
// and every query root carrying plan_trace/round attributes that link
// it back.
func TestBoostRunLinksQueryTracesToRounds(t *testing.T) {
	f := newFixture(t, 300, 20, 5)
	m := predictors.KHopRandom{K: 1}
	reg := newTraceRegistry()
	ctx := f.freshCtx()
	ctx.Obs = reg
	res, traces, err := BoostWith(ctx, m, f.sim, Plan{Queries: f.split.Query},
		DefaultBoostConfig(), ExecConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	var planTrace string
	rounds := 0
	queryRoots := 0
	for _, sp := range reg.Traces() {
		switch sp.Name {
		case "core.plan":
			if sp.Attrs["mode"] == "boost" {
				planTrace = sp.TraceID
			}
		case "core.round":
			rounds++
		case "core.query":
			if sp.ParentID != "" {
				t.Errorf("core.query is not a root (parent %s)", sp.ParentID)
			}
			queryRoots++
			if sp.Attrs["round"] == "" {
				t.Errorf("core.query missing round attribute: %v", sp.Attrs)
			}
		}
	}
	if planTrace == "" {
		t.Fatal("no boost core.plan span recorded")
	}
	if rounds != res.Rounds || len(traces) != res.Rounds {
		t.Errorf("core.round spans = %d, want %d rounds", rounds, res.Rounds)
	}
	if queryRoots != len(f.split.Query) {
		t.Errorf("core.query roots = %d, want %d", queryRoots, len(f.split.Query))
	}
	// Round spans live in the plan's trace (rounds are children).
	for _, sp := range reg.TraceByID(planTrace) {
		if sp.Name == "core.round" && sp.ParentID == "" {
			t.Errorf("core.round is unparented inside the plan trace")
		}
	}
	for _, sp := range reg.Traces() {
		if sp.Name == "core.query" && sp.Attrs["plan_trace"] != planTrace {
			t.Errorf("core.query plan_trace = %q, want %q", sp.Attrs["plan_trace"], planTrace)
		}
	}
}
