package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func feedSLO(r *Registry, durs ...time.Duration) {
	for _, d := range durs {
		RecordSLO(r, d)
	}
}

func TestSLOReportUnconfigured(t *testing.T) {
	r := NewRegistry()
	feedSLO(r, time.Second)
	rep := r.SLOReport()
	if rep.Configured || !rep.Pass || rep.Samples != 0 {
		t.Fatalf("unconfigured report = %+v", rep)
	}
}

func TestSLOPassAndFailDeterministic(t *testing.T) {
	r := NewRegistry()
	r.SetSLO(SLO{Objective: 100 * time.Millisecond, Percentile: 0.9})
	// 10 samples: nine fast, one slow. p90 (nearest-rank idx 9 of 10
	// sorted) = 50ms → pass; the 200ms sample is 1 violation.
	for i := 0; i < 9; i++ {
		feedSLO(r, 50*time.Millisecond)
	}
	feedSLO(r, 200*time.Millisecond)
	rep := r.SLOReport()
	if !rep.Pass || rep.ObservedMS != 50 || rep.Violations != 1 || rep.Samples != 10 {
		t.Fatalf("pass report = %+v", rep)
	}
	// violFrac 0.1 / budget 0.1 = burn 1.0 (exactly on budget).
	if rep.BurnRate < 0.999 || rep.BurnRate > 1.001 {
		t.Fatalf("burn rate = %v, want 1.0", rep.BurnRate)
	}

	// Two more slow samples flip the p90 over the objective: nearest
	// rank ⌈0.9·12⌉ = 11th of twelve sorted samples = 300ms.
	feedSLO(r, 300*time.Millisecond, 300*time.Millisecond)
	rep = r.SLOReport()
	if rep.Pass {
		t.Fatalf("should fail: %+v", rep)
	}
	if rep.ObservedMS != 300 || rep.Violations != 3 {
		t.Fatalf("fail report = %+v", rep)
	}
	if got := r.CounterValue(metricSLOViolations, "slo", "query_latency"); got != 3 {
		t.Fatalf("%s = %v, want 3", metricSLOViolations, got)
	}
}

func TestSLOHandlerJSONAndStatus(t *testing.T) {
	r := NewRegistry()
	r.SetSLO(SLO{Objective: time.Nanosecond, Percentile: 0.5, Name: "lat"})
	feedSLO(r, time.Second)

	rw := httptest.NewRecorder()
	SLOHandler(r).ServeHTTP(rw, httptest.NewRequest("GET", "/debug/slo", nil))
	if rw.Code != http.StatusServiceUnavailable {
		t.Fatalf("failing SLO returned %d", rw.Code)
	}
	var rep SLOReport
	if err := json.Unmarshal(rw.Body.Bytes(), &rep); err != nil {
		t.Fatalf("handler body not JSON: %v\n%s", err, rw.Body.String())
	}
	if rep.Pass || rep.Name != "lat" || rep.Violations != 1 {
		t.Fatalf("handler report = %+v", rep)
	}

	// Generous objective passes with 200.
	r2 := NewRegistry()
	r2.SetSLO(SLO{Objective: time.Hour})
	feedSLO(r2, time.Second)
	rw = httptest.NewRecorder()
	SLOHandler(r2).ServeHTTP(rw, httptest.NewRequest("GET", "/debug/slo", nil))
	if rw.Code != http.StatusOK {
		t.Fatalf("passing SLO returned %d", rw.Code)
	}
}

func TestSLOPercentileAndNameDefaults(t *testing.T) {
	r := NewRegistry()
	r.SetSLO(SLO{Objective: time.Second, Percentile: 7}) // out of range
	rep := r.SLOReport()
	if rep.Percentile != 0.99 || rep.Name != "query_latency" {
		t.Fatalf("defaults not applied: %+v", rep)
	}
}
