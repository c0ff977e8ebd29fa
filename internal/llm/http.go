package llm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/prompt"
	"repro/internal/token"
)

// This file implements the production path of the "LLMs as predictors"
// contract: an OpenAI-compatible chat-completions client. The paper
// treats the LLM as a black box reachable over an API; everything else
// in this repository (methods, pruning, boosting, budget accounting)
// operates on prompt strings and Responses, so swapping Sim for
// HTTPPredictor deploys the same pipeline against a real endpoint.

// HTTPConfig configures an HTTPPredictor.
type HTTPConfig struct {
	// BaseURL is the API root, e.g. "https://api.openai.com" or a local
	// llmserve address. The client POSTs to BaseURL + ChatCompletionsPath.
	BaseURL string
	// Model is the model identifier sent in every request.
	Model string
	// APIKey, when non-empty, is sent as a Bearer token.
	APIKey string
	// MaxRetries bounds retry attempts on 429/5xx/network errors
	// (default 3; the first attempt is not a retry).
	MaxRetries int
	// RetryBaseDelay is the initial backoff, doubled per retry
	// (default 200ms).
	RetryBaseDelay time.Duration
	// MaxRetryDelay caps the exponential backoff (default 30s). Without
	// a cap, doubling overflows time.Duration after ~60 retries and the
	// negative delay makes time.After fire immediately, hammering an
	// already-struggling endpoint.
	MaxRetryDelay time.Duration
	// Timeout bounds each HTTP round trip (default 60s).
	Timeout time.Duration
	// Client overrides the transport; nil uses a client with Timeout.
	Client *http.Client
}

// ChatCompletionsPath is the OpenAI-compatible endpoint path.
const ChatCompletionsPath = "/v1/chat/completions"

// HTTPPredictor queries an OpenAI-compatible endpoint and implements
// Predictor. Token usage is taken from the server's usage block when
// present, otherwise estimated with the local tokenizer.
type HTTPPredictor struct {
	cfg    HTTPConfig
	client *http.Client
	meter  token.Meter
}

// NewHTTPPredictor validates the configuration and returns a client.
func NewHTTPPredictor(cfg HTTPConfig) (*HTTPPredictor, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("llm: HTTPConfig.BaseURL is required")
	}
	if cfg.Model == "" {
		return nil, errors.New("llm: HTTPConfig.Model is required")
	}
	if cfg.MaxRetries < 0 {
		return nil, fmt.Errorf("llm: negative MaxRetries %d", cfg.MaxRetries)
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 3
	}
	if cfg.RetryBaseDelay <= 0 {
		cfg.RetryBaseDelay = 200 * time.Millisecond
	}
	if cfg.MaxRetryDelay <= 0 {
		cfg.MaxRetryDelay = DefaultMaxRetryDelay
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: cfg.Timeout}
	}
	return &HTTPPredictor{cfg: cfg, client: client}, nil
}

// Name implements Predictor.
func (c *HTTPPredictor) Name() string { return c.cfg.Model }

// Identity implements Identifier: the model id plus the endpoint, so
// persistent caches distinguish the same model name served by two
// different backends (say, llmserve instances over different datasets).
func (c *HTTPPredictor) Identity() string { return c.cfg.Model + "@" + c.cfg.BaseURL }

// Meter returns the client-side token meter (cumulative usage of all
// queries, successful or not as reported by the server). The meter is
// synchronized, so it stays consistent when the predictor serves a
// multi-worker batch executor.
func (c *HTTPPredictor) Meter() *token.Meter { return &c.meter }

// chat-completions wire format (the subset this client uses).
type chatMessage struct {
	Role    string `json:"role"`
	Content string `json:"content"`
}

type chatRequest struct {
	Model       string        `json:"model"`
	Messages    []chatMessage `json:"messages"`
	Temperature float64       `json:"temperature"`
}

type chatChoice struct {
	Message chatMessage `json:"message"`
}

type chatUsage struct {
	PromptTokens     int `json:"prompt_tokens"`
	CompletionTokens int `json:"completion_tokens"`
}

type chatResponse struct {
	Choices []chatChoice `json:"choices"`
	Usage   chatUsage    `json:"usage"`
}

type chatErrorBody struct {
	Error struct {
		Message string `json:"message"`
		Type    string `json:"type"`
		// TraceID correlates an error with its /debug/querytrace entry
		// (set by llm.Handler on traced requests).
		TraceID string `json:"trace_id,omitempty"`
	} `json:"error"`
}

// APIError is a non-retryable (or retry-exhausted) HTTP failure.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the server's Retry-After hint, when it sent one
	// (parsed from both delta-seconds and HTTP-date forms); zero
	// otherwise. Retry schedules prefer it over their own backoff —
	// ignoring it fights the server's backpressure.
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("llm: API error %d: %s", e.StatusCode, e.Message)
}

// ClientFault reports whether err is an API error the request itself
// caused: a 4xx other than 429. Retrying it cannot help, and it says
// nothing about the backend's health, so no retry loop repeats it and
// no circuit breaker counts it. Rate limits (429), server failures
// (5xx) and every non-API error are not client faults.
func ClientFault(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.StatusCode < 500 &&
		apiErr.StatusCode != http.StatusTooManyRequests
}

// DefaultMaxRetryDelay is the default HTTPConfig.MaxRetryDelay, the
// ceiling of the client's backoff — the only retry schedule in the
// stack.
const DefaultMaxRetryDelay = 30 * time.Second

// parseRetryAfter reads a Retry-After header value in either RFC 9110
// form — delta-seconds ("120") or an HTTP-date — returning 0 for an
// absent, malformed or already-elapsed value.
func parseRetryAfter(v string, now time.Time) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs <= 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := at.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// retryBackoff returns the exponential backoff before retry attempt
// (attempt ≥ 1 is the first retry): base doubled attempt−1 times,
// capped at max. The cap is what keeps very long retry schedules sane —
// unchecked doubling overflows time.Duration into a negative value,
// which time.After treats as "fire now".
func retryBackoff(base, max time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	if max <= 0 {
		max = DefaultMaxRetryDelay
	}
	d := base
	for i := 1; i < attempt; i++ {
		if d >= max/2 {
			return max
		}
		d *= 2
	}
	if d > max {
		return max
	}
	return d
}

// Query implements Predictor: one chat-completions call with retries.
// The category is parsed from the model's answer with the Table III
// response format; an answer not in that format is used verbatim
// (trimmed) so a single loosely-formatted reply does not abort a batch.
func (c *HTTPPredictor) Query(promptText string) (Response, error) {
	return c.QueryContext(context.Background(), promptText)
}

// QueryContext is Query with caller-controlled cancellation.
func (c *HTTPPredictor) QueryContext(ctx context.Context, promptText string) (Response, error) {
	body, err := json.Marshal(chatRequest{
		Model:    c.cfg.Model,
		Messages: []chatMessage{{Role: "user", Content: promptText}},
	})
	if err != nil {
		return Response{}, fmt.Errorf("llm: encoding request: %w", err)
	}

	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			delay := retryBackoff(c.cfg.RetryBaseDelay, c.cfg.MaxRetryDelay, attempt)
			// The server's Retry-After (typically on 429) overrides the
			// local exponential schedule: it knows when capacity returns,
			// and retrying earlier just fights its backpressure. Still
			// capped at MaxRetryDelay so a hostile or buggy header cannot
			// stall a worker for minutes.
			var apiErr *APIError
			if errors.As(lastErr, &apiErr) && apiErr.RetryAfter > 0 {
				delay = apiErr.RetryAfter
				if delay > c.cfg.MaxRetryDelay {
					delay = c.cfg.MaxRetryDelay
				}
			}
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return Response{}, ctx.Err()
			}
		}
		resp, err := c.do(ctx, body)
		if err == nil {
			return c.finish(promptText, resp)
		}
		lastErr = err
		if ClientFault(err) {
			return Response{}, err
		}
		if ctx.Err() != nil {
			return Response{}, ctx.Err()
		}
	}
	return Response{}, fmt.Errorf("llm: giving up after %d attempts: %w", c.cfg.MaxRetries+1, lastErr)
}

// do performs one HTTP round trip. When the context carries a sampled
// trace span, the round trip gets a child span and the request carries
// the W3C traceparent header, so an llmserve on the other end (itself
// possibly proxying to further upstreams) stitches its spans into this
// query's trace.
func (c *HTTPPredictor) do(ctx context.Context, body []byte) (*chatResponse, error) {
	sctx, sp := obs.StartSpanCtx(ctx, nil, "llm.http", "model", c.cfg.Model)
	req, err := http.NewRequestWithContext(sctx, http.MethodPost,
		strings.TrimSuffix(c.cfg.BaseURL, "/")+ChatCompletionsPath, bytes.NewReader(body))
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("llm: building request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if c.cfg.APIKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.cfg.APIKey)
	}
	if tp := obs.TraceParent(sp); tp != "" {
		req.Header.Set(obs.TraceParentHeader, tp)
	}
	httpResp, err := c.client.Do(req)
	if err != nil {
		sp.SetAttr("outcome", "transport_error")
		sp.End()
		return nil, fmt.Errorf("llm: transport: %w", err)
	}
	defer httpResp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(httpResp.Body, 1<<20))
	sp.SetAttr("status", strconv.Itoa(httpResp.StatusCode))
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("llm: reading response: %w", err)
	}
	if httpResp.StatusCode != http.StatusOK {
		msg := strings.TrimSpace(string(raw))
		var eb chatErrorBody
		if json.Unmarshal(raw, &eb) == nil && eb.Error.Message != "" {
			msg = eb.Error.Message
		}
		return nil, &APIError{
			StatusCode: httpResp.StatusCode,
			Message:    msg,
			RetryAfter: parseRetryAfter(httpResp.Header.Get("Retry-After"), time.Now()),
		}
	}
	var out chatResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("llm: decoding response: %w", err)
	}
	if len(out.Choices) == 0 {
		return nil, errors.New("llm: response has no choices")
	}
	return &out, nil
}

// finish converts a successful wire response into a Response and meters
// its tokens.
func (c *HTTPPredictor) finish(promptText string, wire *chatResponse) (Response, error) {
	content := wire.Choices[0].Message.Content
	category, err := prompt.ParseResponse(content)
	if err != nil {
		category = strings.TrimSpace(content)
	}
	in, out := wire.Usage.PromptTokens, wire.Usage.CompletionTokens
	if in == 0 {
		in = token.Count(promptText)
	}
	if out == 0 {
		out = token.Count(content)
	}
	resp := Response{Text: content, Category: category, InputTokens: in, OutputTokens: out}
	c.meter.AddQuery(in, out)
	return resp, nil
}
