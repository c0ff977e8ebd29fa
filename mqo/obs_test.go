package mqo

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/llm"
)

// TestOptimizeEmitsMetrics runs the pipeline with a registry wired via
// Options.Obs and checks the counters against the report the run
// itself returned: the metrics must be a faithful second account of
// the same execution.
func TestOptimizeEmitsMetrics(t *testing.T) {
	w, p := smallWorkload(t, 31)
	reg := NewRegistry()
	rep, err := Optimize(w, KHopRandom{K: 1}, p, Options{Obs: reg})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}

	if got := reg.CounterValue("mqo_queries_total", "mode", "plain"); got != float64(len(rep.Results.Pred)) {
		t.Errorf("mqo_queries_total = %v, want %d", got, len(rep.Results.Pred))
	}
	if got := reg.CounterValue("mqo_input_tokens_total", "mode", "plain"); got != float64(rep.Results.Meter.InputTokens()) {
		t.Errorf("mqo_input_tokens_total = %v, want %d", got, rep.Results.Meter.InputTokens())
	}
	if got := reg.CounterValue("mqo_output_tokens_total", "mode", "plain"); got != float64(rep.Results.Meter.OutputTokens()) {
		t.Errorf("mqo_output_tokens_total = %v, want %d", got, rep.Results.Meter.OutputTokens())
	}
	if got := reg.CounterValue("mqo_queries_equipped_total", "mode", "plain"); got != float64(rep.Results.Equipped) {
		t.Errorf("mqo_queries_equipped_total = %v, want %d", got, rep.Results.Equipped)
	}
	if got := reg.CounterValue("mqo_optimize_runs_total", "method", "1-hop random"); got != 1 {
		t.Errorf("mqo_optimize_runs_total = %v, want 1", got)
	}
	// One predictor attempt per query: no retries are configured.
	if got := reg.HistogramCount("mqo_batch_attempt_duration_seconds"); got != uint64(len(rep.Results.Pred)) {
		t.Errorf("attempt latency observations = %d, want %d", got, len(rep.Results.Pred))
	}

	// The run must also have left spans in the trace ring: one
	// mqo.optimize plus one core.query per executed query.
	var optimizeSpans, querySpans int
	for _, tr := range reg.Traces() {
		switch tr.Name {
		case "mqo.optimize":
			optimizeSpans++
		case "core.query":
			querySpans++
		}
	}
	if optimizeSpans != 1 {
		t.Errorf("mqo.optimize spans = %d, want 1", optimizeSpans)
	}
	if want := len(rep.Results.Pred); querySpans == 0 || querySpans > want {
		t.Errorf("core.query spans = %d, want in (0, %d]", querySpans, want)
	}
}

func TestOptimizeBoostEmitsRoundMetrics(t *testing.T) {
	w, p := smallWorkload(t, 32)
	reg := NewRegistry()
	rep, err := Optimize(w, KHopRandom{K: 1}, p, Options{Boost: true, Obs: reg})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if got := reg.CounterValue("mqo_boost_rounds_total"); got != float64(rep.Results.Rounds) {
		t.Errorf("mqo_boost_rounds_total = %v, want %d", got, rep.Results.Rounds)
	}
	if got := reg.CounterValue("mqo_queries_total", "mode", "boost"); got != float64(rep.Results.Meter.Queries()) {
		t.Errorf("mqo_queries_total{boost} = %v, want %d", got, rep.Results.Meter.Queries())
	}
	if got := reg.CounterValue("mqo_pseudo_label_uses_total"); got != float64(rep.Results.PseudoLabelUses) {
		t.Errorf("mqo_pseudo_label_uses_total = %v, want %d", got, rep.Results.PseudoLabelUses)
	}
	if got := reg.GaugeValue("mqo_boost_pending_queries"); got != 0 {
		t.Errorf("mqo_boost_pending_queries settled at %v, want 0", got)
	}
}

// flakyPredictor fails the first call for every distinct prompt with
// a transient 500, then delegates to the wrapped predictor.
type flakyPredictor struct {
	mu    sync.Mutex
	seen  map[string]bool
	inner Predictor
}

func (f *flakyPredictor) Name() string { return f.inner.Name() }
func (f *flakyPredictor) Query(prompt string) (Response, error) {
	f.mu.Lock()
	first := !f.seen[prompt]
	f.seen[prompt] = true
	f.mu.Unlock()
	if first {
		return Response{}, &llm.APIError{StatusCode: 500, Message: "transient"}
	}
	return f.inner.Query(prompt)
}

func TestBatchExecutorEmitsRetryMetrics(t *testing.T) {
	g, err := GenerateDatasetScaled("citeseer", 33, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorkload(g, 5, 12, 4, 33)
	ctx := w.Context()
	var reqs []BatchRequest
	for i, v := range w.Queries {
		reqs = append(reqs, BatchRequest{ID: fmt.Sprint(i), Prompt: BuildPrompt(ctx, v, nil, false)})
	}

	reg := NewRegistry()
	flaky := &flakyPredictor{seen: map[string]bool{}, inner: NewSim(GPT35(), g, 33)}
	exec, err := NewBatchExecutor(flaky, BatchConfig{Workers: 3, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	// The executor asks each request once, so the first batch fails
	// every request and the second, asking the same prompts, answers
	// them all.
	first, err := exec.Execute(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if first.Failed != len(reqs) {
		t.Fatalf("first batch failed %d of %d requests, want all", first.Failed, len(reqs))
	}
	res, err := exec.Execute(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("batch failed %d requests: %+v", res.Failed, res)
	}

	if got := reg.CounterValue("mqo_batch_requests_total", "outcome", "ok"); got != float64(len(reqs)) {
		t.Errorf("requests{ok} = %v, want %d", got, len(reqs))
	}
	if got := reg.CounterValue("mqo_batch_requests_total", "outcome", "error"); got != float64(len(reqs)) {
		t.Errorf("requests{error} = %v, want %d", got, len(reqs))
	}
	if got := reg.CounterValue("mqo_batch_tokens_total"); got != float64(res.TokensUsed) {
		t.Errorf("tokens = %v, want %d", got, res.TokensUsed)
	}
	// One call per request per batch: one failing, one succeeding.
	if got := reg.HistogramCount("mqo_batch_attempt_duration_seconds"); got != uint64(2*len(reqs)) {
		t.Errorf("attempt observations = %d, want %d", got, 2*len(reqs))
	}
	if got := reg.GaugeValue("mqo_batch_inflight"); got != 0 {
		t.Errorf("inflight settled at %v, want 0", got)
	}
}

// TestMetricsHandlerFacade serves an end-to-end registry over HTTP and
// checks the exposition is well-formed Prometheus text.
func TestMetricsHandlerFacade(t *testing.T) {
	w, p := smallWorkload(t, 34)
	reg := NewRegistry()
	if _, err := Optimize(w, Vanilla{}, p, Options{Obs: reg}); err != nil {
		t.Fatal(err)
	}
	rw := httptest.NewRecorder()
	MetricsHandler(reg).ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
	body := rw.Body.String()
	if !strings.Contains(body, "# TYPE mqo_queries_total counter") {
		t.Errorf("exposition missing TYPE line:\n%.400s", body)
	}
	if !strings.Contains(body, `mqo_queries_total{mode="plain"}`) {
		t.Errorf("exposition missing series:\n%.400s", body)
	}
	if !strings.Contains(body, "mqo_batch_attempt_duration_seconds_bucket") {
		t.Errorf("exposition missing histogram buckets:\n%.400s", body)
	}
}

// TestDefaultRecorderLightsUpPipeline checks SetDefaultRecorder routes
// un-wired runs into the registry, and that restoring the no-op stops
// recording.
func TestDefaultRecorderLightsUpPipeline(t *testing.T) {
	w, p := smallWorkload(t, 35)
	reg := NewRegistry()
	SetDefaultRecorder(reg)
	defer SetDefaultRecorder(nil)
	rep, err := Optimize(w, Vanilla{}, p, Options{}) // no Obs wired
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.CounterValue("mqo_queries_total", "mode", "plain"); got != float64(len(rep.Results.Pred)) {
		t.Errorf("default-routed mqo_queries_total = %v, want %d", got, len(rep.Results.Pred))
	}
	SetDefaultRecorder(nil)
	before := reg.CounterValue("mqo_queries_total", "mode", "plain")
	if _, err := Optimize(w, Vanilla{}, p, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := reg.CounterValue("mqo_queries_total", "mode", "plain"); got != before {
		t.Error("registry still recording after SetDefaultRecorder(nil)")
	}
}
