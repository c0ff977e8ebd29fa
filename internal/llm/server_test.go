package llm

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// blockingPredictor parks Query for the prompt "slow" until released
// and answers every other prompt at once, to prove that neither the
// handler's bookkeeping nor another request waits behind an in-flight
// query.
type blockingPredictor struct {
	entered chan struct{}
	release chan struct{}
}

func (b *blockingPredictor) Name() string { return "blocking" }
func (b *blockingPredictor) Query(promptText string) (Response, error) {
	if promptText == "slow" {
		close(b.entered)
		<-b.release
	}
	return Response{Text: "Category: ['A']", Category: "A", InputTokens: 10, OutputTokens: 2}, nil
}

func chatBody(prompt string) *strings.Reader {
	data, _ := json.Marshal(map[string]any{
		"model":    "sim",
		"messages": []map[string]string{{"role": "user", "content": prompt}},
	})
	return strings.NewReader(string(data))
}

func TestHandlerDoesNotBlockBehindSlowQuery(t *testing.T) {
	bp := &blockingPredictor{entered: make(chan struct{}), release: make(chan struct{})}
	reg := obs.NewRegistry()
	h := NewHandler(bp)
	h.Obs = reg

	done := make(chan struct{})
	go func() {
		defer close(done)
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest("POST", ChatCompletionsPath, chatBody("slow")))
	}()
	<-bp.entered // the first predictor call is parked

	// Requests() and the metrics registry must respond immediately.
	readDone := make(chan struct{})
	go func() {
		_ = h.Requests()
		var b strings.Builder
		_ = reg.WritePrometheus(&b)
		close(readDone)
	}()
	select {
	case <-readDone:
	case <-time.After(2 * time.Second):
		t.Fatal("Requests()/metrics blocked behind an in-flight query")
	}

	// A concurrent malformed request must also complete without waiting
	// for the predictor: validation happens outside the critical section.
	badDone := make(chan int, 1)
	go func() {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest("POST", ChatCompletionsPath, strings.NewReader("{not json")))
		badDone <- rw.Code
	}()
	select {
	case code := <-badDone:
		if code != http.StatusBadRequest {
			t.Fatalf("malformed request code = %d, want 400", code)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("malformed request blocked behind an in-flight query")
	}

	// A second valid request must reach the predictor and be answered
	// while the first call is still parked: the handler holds no lock
	// around the predictor.
	okDone := make(chan int, 1)
	go func() {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest("POST", ChatCompletionsPath, chatBody("fast")))
		okDone <- rw.Code
	}()
	select {
	case code := <-okDone:
		if code != http.StatusOK {
			t.Fatalf("second request code = %d, want 200", code)
		}
	case <-time.After(2 * time.Second):
		close(bp.release)
		t.Fatal("second valid request blocked behind an in-flight query")
	}

	close(bp.release)
	<-done
	if h.Requests() != 2 {
		t.Fatalf("Requests = %d, want 2", h.Requests())
	}
}

func TestHandlerMalformedBodyJSONError(t *testing.T) {
	h := NewHandler(&blockingPredictor{}) // never reached
	for _, body := range []string{"{truncated", `"a string"`, ""} {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest("POST", ChatCompletionsPath, strings.NewReader(body)))
		if rw.Code != http.StatusBadRequest {
			t.Fatalf("body %q: code = %d, want 400", body, rw.Code)
		}
		if ct := rw.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("body %q: content-type = %q", body, ct)
		}
		var eb chatErrorBody
		if err := json.Unmarshal(rw.Body.Bytes(), &eb); err != nil || eb.Error.Message == "" {
			t.Fatalf("body %q: error body not JSON with message: %v / %s", body, err, rw.Body.String())
		}
	}
}

func TestHandlerOversizedBody413(t *testing.T) {
	h := NewHandler(&blockingPredictor{})
	big := strings.NewReader(strings.Repeat("x", maxRequestBody+1))
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("POST", ChatCompletionsPath, big))
	if rw.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("code = %d, want 413", rw.Code)
	}
	var eb chatErrorBody
	if err := json.Unmarshal(rw.Body.Bytes(), &eb); err != nil {
		t.Fatalf("413 body not JSON: %v", err)
	}
}

func TestHandlerRecordsMetricsAndUsageHeaders(t *testing.T) {
	g, _ := testGraph(t, 200)
	sim := NewSim(GPT35(), g.Vocab, g.Classes, 1)
	reg := obs.NewRegistry()
	sim.SetObserver(reg)
	h := NewHandler(sim)
	h.Obs = reg

	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("POST", ChatCompletionsPath, chatBody(buildVanilla(g, 0))))
	if rw.Code != http.StatusOK {
		t.Fatalf("code = %d: %s", rw.Code, rw.Body.String())
	}
	if rw.Header().Get(obs.HeaderInputTokens) == "" || rw.Header().Get(obs.HeaderOutputTokens) == "" {
		t.Fatal("usage headers not set on success")
	}

	// One more request that fails validation, then check the registry.
	rw2 := httptest.NewRecorder()
	h.ServeHTTP(rw2, httptest.NewRequest("GET", ChatCompletionsPath, nil))
	if rw2.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET code = %d", rw2.Code)
	}

	if got := reg.CounterValue("mqo_http_requests_total", "code", "200"); got != 1 {
		t.Fatalf("requests{200} = %v, want 1", got)
	}
	if got := reg.CounterValue("mqo_http_requests_total", "code", "405"); got != 1 {
		t.Fatalf("requests{405} = %v, want 1", got)
	}
	if got := reg.CounterValue("mqo_http_errors_total", "code", "405"); got != 1 {
		t.Fatalf("errors{405} = %v, want 1", got)
	}
	if reg.CounterValue("mqo_http_input_tokens_total") <= 0 {
		t.Fatal("input tokens not recorded")
	}
	if got := reg.HistogramCount("mqo_http_request_duration_seconds"); got != 2 {
		t.Fatalf("latency observations = %d, want 2", got)
	}
	if got := reg.CounterValue("mqo_sim_queries_total"); got != 1 {
		t.Fatalf("sim queries = %v, want 1", got)
	}
	if got := reg.HistogramCount("mqo_sim_predict_duration_seconds"); got != 1 {
		t.Fatalf("sim latency observations = %d, want 1", got)
	}
}
