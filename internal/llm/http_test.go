package llm_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/prompt"
	"repro/internal/tag"
)

// testGraphAndPrompt builds a small dataset and one valid Table III
// prompt for it.
func testGraphAndPrompt(t testing.TB) (*tag.Graph, string, string) {
	t.Helper()
	spec, err := tag.SpecByName("cora")
	if err != nil {
		t.Fatal(err)
	}
	g := tag.Generate(spec, 3, tag.Options{Scale: 0.1})
	v := g.Nodes[0]
	p := prompt.Build(prompt.Request{
		TargetTitle:    g.Title(v.ID),
		TargetAbstract: g.Abstract(v.ID),
		Categories:     g.Classes,
	})
	return g, p, g.Classes[v.Label]
}

func newTestClient(t testing.TB, baseURL string, extra func(*llm.HTTPConfig)) *llm.HTTPPredictor {
	t.Helper()
	cfg := llm.HTTPConfig{
		BaseURL:        baseURL,
		Model:          "sim-gpt-3.5",
		MaxRetries:     3,
		RetryBaseDelay: time.Millisecond,
	}
	if extra != nil {
		extra(&cfg)
	}
	c, err := llm.NewHTTPPredictor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestHTTPRoundTripMatchesDirectSim(t *testing.T) {
	g, promptText, _ := testGraphAndPrompt(t)

	direct := llm.NewSim(llm.GPT35(), g.Vocab, g.Classes, 9)
	want, err := direct.Query(promptText)
	if err != nil {
		t.Fatal(err)
	}

	served := llm.NewSim(llm.GPT35(), g.Vocab, g.Classes, 9)
	h := llm.NewHandler(served)
	srv := httptest.NewServer(h)
	defer srv.Close()

	c := newTestClient(t, srv.URL, nil)
	got, err := c.Query(promptText)
	if err != nil {
		t.Fatal(err)
	}
	if got.Category != want.Category {
		t.Errorf("HTTP category %q != direct %q", got.Category, want.Category)
	}
	if got.InputTokens != want.InputTokens || got.OutputTokens != want.OutputTokens {
		t.Errorf("usage over HTTP (%d,%d) != direct (%d,%d)",
			got.InputTokens, got.OutputTokens, want.InputTokens, want.OutputTokens)
	}
	if c.Meter().Queries() != 1 || c.Meter().InputTokens() != want.InputTokens {
		t.Errorf("client meter = %d queries / %d input tokens, want 1 / %d",
			c.Meter().Queries(), c.Meter().InputTokens(), want.InputTokens)
	}
	if h.Requests() != 1 {
		t.Errorf("server served %d requests, want 1", h.Requests())
	}
}

func TestHTTPRetryOn503ThenSuccess(t *testing.T) {
	g, promptText, _ := testGraphAndPrompt(t)
	inner := llm.NewHandler(llm.NewSim(llm.GPT35(), g.Vocab, g.Classes, 9))

	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":{"message":"overloaded","type":"server_error"}}`,
				http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := newTestClient(t, srv.URL, nil)
	resp, err := c.Query(promptText)
	if err != nil {
		t.Fatalf("expected retry success, got %v", err)
	}
	if resp.Category == "" {
		t.Error("empty category after retry")
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3 (2 failures + success)", got)
	}
}

func TestHTTPNoRetryOnClientError(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":{"message":"bad prompt","type":"invalid_request_error"}}`,
			http.StatusBadRequest)
	}))
	defer srv.Close()

	c := newTestClient(t, srv.URL, nil)
	_, err := c.Query("whatever")
	if err == nil {
		t.Fatal("400 response did not error")
	}
	var apiErr *llm.APIError
	if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("error = %v, want APIError 400", err)
	}
	if !strings.Contains(apiErr.Message, "bad prompt") {
		t.Errorf("error message %q lost server detail", apiErr.Message)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("client retried a 400: %d calls", got)
	}
}

// asAPIError mirrors errors.As without importing errors in this test.
func asAPIError(err error, target **llm.APIError) bool {
	for err != nil {
		if e, ok := err.(*llm.APIError); ok {
			*target = e
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestHTTPRetryExhaustion(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":{"message":"slow down","type":"server_error"}}`,
			http.StatusTooManyRequests)
	}))
	defer srv.Close()

	c := newTestClient(t, srv.URL, func(cfg *llm.HTTPConfig) { cfg.MaxRetries = 2 })
	_, err := c.Query("x")
	if err == nil {
		t.Fatal("exhausted retries did not error")
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Errorf("error %q does not report attempts", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3", got)
	}
}

func TestHTTPAuth(t *testing.T) {
	g, promptText, _ := testGraphAndPrompt(t)
	h := llm.NewHandler(llm.NewSim(llm.GPT35(), g.Vocab, g.Classes, 9))
	h.RequireKey = "sk-test-123"
	srv := httptest.NewServer(h)
	defer srv.Close()

	bad := newTestClient(t, srv.URL, func(cfg *llm.HTTPConfig) { cfg.APIKey = "wrong" })
	if _, err := bad.Query(promptText); err == nil {
		t.Error("wrong API key accepted")
	}
	good := newTestClient(t, srv.URL, func(cfg *llm.HTTPConfig) { cfg.APIKey = "sk-test-123" })
	if _, err := good.Query(promptText); err != nil {
		t.Errorf("correct API key rejected: %v", err)
	}
}

func TestHTTPLenientCategoryFallback(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		out := map[string]any{
			"choices": []map[string]any{{
				"message": map[string]any{"role": "assistant", "content": "  Theory \n"},
			}},
			"usage": map[string]int{"prompt_tokens": 10, "completion_tokens": 2},
		}
		_ = json.NewEncoder(w).Encode(out)
	}))
	defer srv.Close()

	c := newTestClient(t, srv.URL, nil)
	resp, err := c.Query("x")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Category != "Theory" {
		t.Errorf("fallback category = %q, want %q", resp.Category, "Theory")
	}
	if resp.InputTokens != 10 || resp.OutputTokens != 2 {
		t.Errorf("usage = (%d,%d), want server-reported (10,2)", resp.InputTokens, resp.OutputTokens)
	}
}

func TestHTTPMalformedResponses(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"not json", "garbage"},
		{"no choices", `{"choices":[]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				fmt.Fprint(w, tc.body)
			}))
			defer srv.Close()
			c := newTestClient(t, srv.URL, func(cfg *llm.HTTPConfig) { cfg.MaxRetries = 1 })
			if _, err := c.Query("x"); err == nil {
				t.Error("malformed response accepted")
			}
		})
	}
}

func TestHTTPConfigValidation(t *testing.T) {
	if _, err := llm.NewHTTPPredictor(llm.HTTPConfig{Model: "m"}); err == nil {
		t.Error("missing BaseURL accepted")
	}
	if _, err := llm.NewHTTPPredictor(llm.HTTPConfig{BaseURL: "http://x"}); err == nil {
		t.Error("missing Model accepted")
	}
	if _, err := llm.NewHTTPPredictor(llm.HTTPConfig{BaseURL: "http://x", Model: "m", MaxRetries: -1}); err == nil {
		t.Error("negative MaxRetries accepted")
	}
}

func TestHandlerRequestValidation(t *testing.T) {
	g, _, _ := testGraphAndPrompt(t)
	h := llm.NewHandler(llm.NewSim(llm.GPT35(), g.Vocab, g.Classes, 9))
	srv := httptest.NewServer(h)
	defer srv.Close()

	post := func(path, body string) int {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if got := post("/nope", "{}"); got != http.StatusNotFound {
		t.Errorf("unknown path -> %d, want 404", got)
	}
	if got := post(llm.ChatCompletionsPath, "not json"); got != http.StatusBadRequest {
		t.Errorf("bad json -> %d, want 400", got)
	}
	if got := post(llm.ChatCompletionsPath, `{"model":"m","messages":[]}`); got != http.StatusBadRequest {
		t.Errorf("no messages -> %d, want 400", got)
	}
	// An unreadable (non-Table III) prompt is a 400, not a 500.
	if got := post(llm.ChatCompletionsPath,
		`{"model":"m","messages":[{"role":"user","content":"hi"}]}`); got != http.StatusBadRequest {
		t.Errorf("unreadable prompt -> %d, want 400", got)
	}
	resp, err := http.Get(srv.URL + llm.ChatCompletionsPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET -> %d, want 405", resp.StatusCode)
	}
}

func TestRetryBackoffCapped(t *testing.T) {
	base := 100 * time.Millisecond
	max := 30 * time.Second
	cases := []struct {
		attempt int
		want    time.Duration
	}{
		{1, 100 * time.Millisecond},
		{2, 200 * time.Millisecond},
		{5, 1600 * time.Millisecond},
		{10, 30 * time.Second},
		// Regression: shifting/doubling by the raw attempt count used to
		// overflow int64 into negative delays past attempt ~64.
		{64, 30 * time.Second},
		{100, 30 * time.Second},
		{1 << 20, 30 * time.Second},
	}
	for _, c := range cases {
		got := llm.RetryBackoff(base, max, c.attempt)
		if got != c.want {
			t.Errorf("RetryBackoff(%v, %v, %d) = %v, want %v", base, max, c.attempt, got, c.want)
		}
		if got < 0 {
			t.Fatalf("RetryBackoff(%v, %v, %d) went negative: %v", base, max, c.attempt, got)
		}
	}
	if d := llm.RetryBackoff(0, max, 50); d != 0 {
		t.Errorf("zero base must yield zero delay, got %v", d)
	}
	if d := llm.RetryBackoff(time.Second, 0, 80); d != llm.DefaultMaxRetryDelay {
		t.Errorf("zero max must default to %v, got %v", llm.DefaultMaxRetryDelay, d)
	}
}

func TestHTTPConcurrentQueriesMeterRace(t *testing.T) {
	// Regression for a data race on HTTPPredictor.meter: one client
	// shared by many workers must meter all queries without racing (run
	// under -race) and without losing counts.
	g, promptText, _ := testGraphAndPrompt(t)
	h := llm.NewHandler(llm.NewSim(llm.GPT35(), g.Vocab, g.Classes, 9))
	srv := httptest.NewServer(h)
	defer srv.Close()

	c := newTestClient(t, srv.URL, nil)
	const workers = 8
	const perWorker = 5
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := c.Query(promptText); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := c.Meter().Queries(); got != workers*perWorker {
		t.Fatalf("meter recorded %d queries, want %d", got, workers*perWorker)
	}
	if c.Meter().InputTokens() <= 0 || c.Meter().OutputTokens() <= 0 {
		t.Fatalf("meter token totals not recorded: in=%d out=%d",
			c.Meter().InputTokens(), c.Meter().OutputTokens())
	}
}

// retryAfterServer answers 429 with the given Retry-After header value
// until failures have been served, then proxies to a real sim handler.
func retryAfterServer(t *testing.T, failures int, header func() string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	g, _, _ := testGraphAndPrompt(t)
	inner := llm.NewHandler(llm.NewSim(llm.GPT35(), g.Vocab, g.Classes, 9))
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= int64(failures) {
			w.Header().Set("Retry-After", header())
			http.Error(w, `{"error":{"message":"slow down","type":"rate_limit_error"}}`,
				http.StatusTooManyRequests)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

// TestHTTPHonorsRetryAfterSeconds is the regression test for the
// ignored-Retry-After bug: the client used to retry a 429 on its own
// exponential schedule (1ms base here), fighting server backpressure.
// The server demands 2s; with MaxRetryDelay capping it at 250ms, the
// observed wait proves the header — not the exponential schedule —
// set the delay.
func TestHTTPHonorsRetryAfterSeconds(t *testing.T) {
	_, promptText, _ := testGraphAndPrompt(t)
	srv, calls := retryAfterServer(t, 1, func() string { return "2" })
	c := newTestClient(t, srv.URL, func(cfg *llm.HTTPConfig) {
		cfg.MaxRetryDelay = 250 * time.Millisecond
	})

	startAt := time.Now()
	if _, err := c.Query(promptText); err != nil {
		t.Fatalf("expected retry success, got %v", err)
	}
	elapsed := time.Since(startAt)
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2", got)
	}
	if elapsed < 250*time.Millisecond {
		t.Fatalf("waited %v before retrying, want >= 250ms (Retry-After capped at MaxRetryDelay); the exponential schedule alone would wait ~1ms", elapsed)
	}
	if elapsed > 1500*time.Millisecond {
		t.Fatalf("waited %v, want the 2s header capped at the 250ms MaxRetryDelay", elapsed)
	}
}

// TestHTTPHonorsRetryAfterHTTPDate covers the HTTP-date form of the
// header, which must be honored the same way as delta-seconds.
func TestHTTPHonorsRetryAfterHTTPDate(t *testing.T) {
	_, promptText, _ := testGraphAndPrompt(t)
	srv, calls := retryAfterServer(t, 1, func() string {
		return time.Now().Add(2 * time.Second).UTC().Format(http.TimeFormat)
	})
	c := newTestClient(t, srv.URL, func(cfg *llm.HTTPConfig) {
		cfg.MaxRetryDelay = 250 * time.Millisecond
	})

	startAt := time.Now()
	if _, err := c.Query(promptText); err != nil {
		t.Fatalf("expected retry success, got %v", err)
	}
	elapsed := time.Since(startAt)
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2", got)
	}
	if elapsed < 250*time.Millisecond {
		t.Fatalf("waited %v before retrying, want >= 250ms from the HTTP-date Retry-After", elapsed)
	}
}

// TestHTTPMalformedRetryAfterFallsBack keeps the exponential schedule
// when the header cannot be parsed.
func TestHTTPMalformedRetryAfterFallsBack(t *testing.T) {
	_, promptText, _ := testGraphAndPrompt(t)
	srv, _ := retryAfterServer(t, 1, func() string { return "soon" })
	c := newTestClient(t, srv.URL, nil)

	startAt := time.Now()
	if _, err := c.Query(promptText); err != nil {
		t.Fatalf("expected retry success, got %v", err)
	}
	if elapsed := time.Since(startAt); elapsed > time.Second {
		t.Fatalf("malformed header stalled the retry for %v", elapsed)
	}
}

// TestHTTPRetryAfterSurfacesInAPIError asserts the parsed hint rides
// the error so pools/executors can respect it too.
func TestHTTPRetryAfterSurfacesInAPIError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		http.Error(w, `{"error":{"message":"slow down","type":"rate_limit_error"}}`,
			http.StatusTooManyRequests)
	}))
	defer srv.Close()
	c := newTestClient(t, srv.URL, func(cfg *llm.HTTPConfig) {
		cfg.MaxRetries = 1
		cfg.MaxRetryDelay = time.Millisecond
	})

	_, err := c.Query("whatever")
	var apiErr *llm.APIError
	if !asAPIError(err, &apiErr) {
		t.Fatalf("error = %v, want wrapped APIError", err)
	}
	if apiErr.RetryAfter != 7*time.Second {
		t.Fatalf("APIError.RetryAfter = %v, want 7s", apiErr.RetryAfter)
	}
}
