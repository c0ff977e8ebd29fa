package llm

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// maxRequestBody caps a chat-completions request body (4 MiB is far
// beyond any Table III prompt); larger bodies get a JSON 413 instead of
// unbounded buffering.
const maxRequestBody = 4 << 20

// Handler serves a Predictor (usually a *Sim) behind the OpenAI-
// compatible chat-completions endpoint, so the HTTP client — and any
// other OpenAI-compatible tooling — can drive the simulated model over
// a real network boundary. Requests run concurrently: the handler
// holds no lock, and the predictor is safe for concurrent use (see
// Predictor), so one slow query delays neither another query nor a
// /metrics or /healthz read.
type Handler struct {
	predictor Predictor
	// RequireKey, when non-empty, rejects requests whose Bearer token
	// does not match.
	RequireKey string
	// Obs receives request metrics (count by status, errors, token
	// totals, latency histogram); nil routes to the process-default
	// recorder. Set before serving.
	Obs obs.Recorder
	// requests counts successfully served queries.
	requests atomic.Int64
}

// NewHandler wraps a predictor.
func NewHandler(p Predictor) *Handler { return &Handler{predictor: p} }

// Requests returns the number of successfully served queries. It is
// lock-free and never blocks behind an in-flight query.
func (h *Handler) Requests() int { return int(h.requests.Load()) }

// ServeHTTP implements http.Handler for POST /v1/chat/completions.
// Requests carrying a W3C traceparent header join the caller's trace
// (the request span's parent is the caller's span, across the process
// boundary); every traced request gets the X-Trace-Id response header
// and a per-request ledger billing the predictor call.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rec := obs.Active(h.Obs)
	ctx := obs.WithRemoteParent(r.Context(), r.Header.Get(obs.TraceParentHeader))
	sctx, span := obs.StartSpanCtx(ctx, rec, "llm.request", "method", r.Method)
	var led *obs.Ledger
	if span.Sampled() {
		w.Header().Set(obs.HeaderTraceID, span.TraceID())
		led = obs.NewLedger(rec, span.TraceID(), "llm.request")
		sctx = obs.ContextWithLedger(sctx, led)
	}
	status, inTokens, outTokens := h.serve(sctx, w, r)

	code := strconv.Itoa(status)
	rec.Add("mqo_http_requests_total", 1, "code", code)
	if status >= 400 {
		rec.Add("mqo_http_errors_total", 1, "code", code)
	}
	if inTokens > 0 || outTokens > 0 {
		rec.Add("mqo_http_input_tokens_total", float64(inTokens))
		rec.Add("mqo_http_output_tokens_total", float64(outTokens))
	}
	total := time.Since(start)
	rec.Observe("mqo_http_request_duration_seconds", total.Seconds())
	span.SetAttr("code", code)
	if inTokens > 0 {
		span.SetAttr("input_tokens", strconv.Itoa(inTokens))
	}
	span.End()
	if led != nil {
		if resid := total - led.BilledWall(); resid > 0 {
			led.Charge(obs.StageExec, resid, 0, true)
		}
		led.Close(total)
	}
}

// serve handles one request and reports the response status plus the
// token usage of a successful query (0, 0 otherwise). ctx carries the
// request's span and ledger; context-aware predictors receive it so a
// proxy hop (a pool of HTTPPredictors) forwards the trace onward.
func (h *Handler) serve(ctx context.Context, w http.ResponseWriter, r *http.Request) (status, inTokens, outTokens int) {
	if r.URL.Path != ChatCompletionsPath {
		writeAPIError(w, http.StatusNotFound, fmt.Sprintf("unknown path %q", r.URL.Path))
		return http.StatusNotFound, 0, 0
	}
	if r.Method != http.MethodPost {
		writeAPIError(w, http.StatusMethodNotAllowed, "use POST")
		return http.StatusMethodNotAllowed, 0, 0
	}
	if h.RequireKey != "" && r.Header.Get("Authorization") != "Bearer "+h.RequireKey {
		writeAPIError(w, http.StatusUnauthorized, "invalid API key")
		return http.StatusUnauthorized, 0, 0
	}
	// Read the whole (bounded) body up front so malformed or oversized
	// payloads produce a JSON error immediately rather than a decoder
	// blocked on a half-sent connection.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeAPIError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return http.StatusRequestEntityTooLarge, 0, 0
		}
		writeAPIError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return http.StatusBadRequest, 0, 0
	}
	var req chatRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeAPIError(w, http.StatusBadRequest, "malformed JSON body: "+err.Error())
		return http.StatusBadRequest, 0, 0
	}
	if len(req.Messages) == 0 {
		writeAPIError(w, http.StatusBadRequest, "messages must be non-empty")
		return http.StatusBadRequest, 0, 0
	}
	promptText := req.Messages[len(req.Messages)-1].Content
	if promptText == "" {
		writeAPIError(w, http.StatusBadRequest, "empty prompt")
		return http.StatusBadRequest, 0, 0
	}

	qstart := time.Now()
	resp, err := Ask(ctx, h.predictor, promptText)
	// The predictor call is this request's predict stage: its wall and
	// the response's tokens are the billed serving cost (cache layers
	// underneath charge themselves unbilled, see promptcache.Wrap).
	obs.Charge(ctx, obs.StagePredict, time.Since(qstart), resp.InputTokens+resp.OutputTokens, true)
	if err != nil {
		// An unreadable prompt, or an upstream's own 4xx, is the
		// caller's fault: 400, so clients do not retry it. Anything
		// else failed behind this server (an upstream down, its
		// breaker open): 502, which clients retry, fail over and
		// count toward their breakers.
		status := http.StatusBadGateway
		if errors.Is(err, ErrUnreadablePrompt) || ClientFault(err) {
			status = http.StatusBadRequest
		}
		writeAPIError(w, status, err.Error())
		return status, 0, 0
	}
	h.requests.Add(1)

	out := map[string]any{
		"id":      fmt.Sprintf("chatcmpl-sim-%d", time.Now().UnixNano()),
		"object":  "chat.completion",
		"created": time.Now().Unix(),
		"model":   h.predictor.Name(),
		"choices": []map[string]any{{
			"index":         0,
			"message":       chatMessage{Role: "assistant", Content: resp.Text},
			"finish_reason": "stop",
		}},
		"usage": chatUsage{
			PromptTokens:     resp.InputTokens,
			CompletionTokens: resp.OutputTokens,
		},
	}
	w.Header().Set("Content-Type", "application/json")
	// Usage headers let a generic access-log middleware report token
	// spend without parsing the body (see obs.AccessLog).
	w.Header().Set(obs.HeaderInputTokens, strconv.Itoa(resp.InputTokens))
	w.Header().Set(obs.HeaderOutputTokens, strconv.Itoa(resp.OutputTokens))
	if err := json.NewEncoder(w).Encode(out); err != nil {
		// Headers are already written; nothing more we can do.
		return http.StatusOK, resp.InputTokens, resp.OutputTokens
	}
	return http.StatusOK, resp.InputTokens, resp.OutputTokens
}

// writeAPIError emits an OpenAI-style error body. When the response
// already carries a trace ID header (set before the handler body ran),
// the error body repeats it so clients can quote the trace of a
// 4xx/5xx without keeping response headers around.
func writeAPIError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	var body chatErrorBody
	body.Error.Message = msg
	body.Error.Type = "invalid_request_error"
	if status >= 500 || status == http.StatusTooManyRequests {
		body.Error.Type = "server_error"
	}
	body.Error.TraceID = w.Header().Get(obs.HeaderTraceID)
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}
