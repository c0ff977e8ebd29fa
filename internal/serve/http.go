package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/tag"
)

// QueryPath is the online query endpoint the serve tier mounts.
const QueryPath = "/v1/query"

// maxQueryBody caps a POST /v1/query body. {"node":N} takes under 32
// bytes, so 4 KiB leaves room for any formatting while a larger body
// gets a JSON 413 instead of unbounded buffering.
const maxQueryBody = 4 << 10

// QueryRequest is the POST /v1/query body.
type QueryRequest struct {
	// Node is the graph node to classify; a body without it is
	// rejected with 400.
	Node *int `json:"node"`
}

// QueryResponse is the success body. TraceID echoes the request's
// serve.query trace (also sent as the X-Trace-Id header) so a client
// can join its observed latency to /debug/querytrace; it is omitted
// when tracing did not sample the request.
type QueryResponse struct {
	Node         int    `json:"node"`
	Category     string `json:"category"`
	Tenant       string `json:"tenant"`
	Coalesced    bool   `json:"coalesced"`
	Cached       bool   `json:"cached"`
	Fallback     bool   `json:"fallback"`
	InputTokens  int    `json:"input_tokens"`
	OutputTokens int    `json:"output_tokens"`
	TraceID      string `json:"trace_id,omitempty"`
}

// errorBody mirrors the OpenAI-style error envelope the rest of the
// repo's HTTP surfaces use.
type errorBody struct {
	Error struct {
		Message string `json:"message"`
		Type    string `json:"type"`
	} `json:"error"`
}

// Tenant resolves the requesting tenant: an explicit X-Tenant header
// wins, else the Authorization bearer key identifies the tenant, else
// "anonymous". Quotas and fair scheduling key off this value.
func Tenant(r *http.Request) string {
	if t := strings.TrimSpace(r.Header.Get("X-Tenant")); t != "" {
		return t
	}
	auth := strings.TrimSpace(r.Header.Get("Authorization"))
	if rest, ok := strings.CutPrefix(auth, "Bearer "); ok {
		if key := strings.TrimSpace(rest); key != "" {
			return key
		}
	}
	return "anonymous"
}

// Handler returns the POST /v1/query handler for s.
//
// Backpressure contract: a request rejected at admission (queue past
// its high-water mark, tenant over quota, or drain in progress) gets a
// JSON 429 — 503 for drain — carrying a Retry-After header in whole
// seconds; clients are expected to honor it (llm.HTTPPredictor does).
func Handler(s *Server) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "invalid_request_error",
				"only POST is supported")
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxQueryBody))
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge, "invalid_request_error",
					fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
				return
			}
			writeError(w, http.StatusBadRequest, "invalid_request_error",
				"reading body: "+err.Error())
			return
		}
		var req QueryRequest
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, http.StatusBadRequest, "invalid_request_error",
				"invalid JSON body: "+err.Error())
			return
		}
		if req.Node == nil {
			writeError(w, http.StatusBadRequest, "invalid_request_error",
				`missing "node"`)
			return
		}
		tenant := Tenant(r)
		res, err := s.Submit(r.Context(), tenant, tag.NodeID(*req.Node))
		if err != nil {
			writeSubmitError(w, s, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if res.TraceID != "" {
			w.Header().Set(obs.HeaderTraceID, res.TraceID)
		}
		_ = json.NewEncoder(w).Encode(QueryResponse{
			Node:         int(res.Node),
			Category:     res.Category,
			Tenant:       tenant,
			Coalesced:    res.Coalesced,
			Cached:       res.Cached,
			Fallback:     res.Fallback,
			InputTokens:  res.Response.InputTokens,
			OutputTokens: res.Response.OutputTokens,
			TraceID:      res.TraceID,
		})
	})
}

// writeSubmitError maps Submit errors onto the HTTP surface.
func writeSubmitError(w http.ResponseWriter, s *Server, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		retryAfter(w, s)
		writeError(w, http.StatusTooManyRequests, "rate_limit_error", err.Error())
	case errors.Is(err, ErrQuotaExhausted):
		retryAfter(w, s)
		writeError(w, http.StatusTooManyRequests, "quota_error", err.Error())
	case errors.Is(err, ErrDraining):
		retryAfter(w, s)
		writeError(w, http.StatusServiceUnavailable, "draining", err.Error())
	case errors.Is(err, ErrUnknownNode):
		writeError(w, http.StatusBadRequest, "invalid_request_error", err.Error())
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusRequestTimeout, "timeout", err.Error())
	default:
		writeError(w, http.StatusBadGateway, "upstream_error", err.Error())
	}
}

func retryAfter(w http.ResponseWriter, s *Server) {
	secs := int(math.Ceil(s.RetryAfter().Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

func writeError(w http.ResponseWriter, status int, typ, msg string) {
	var b errorBody
	b.Error.Message = msg
	b.Error.Type = typ
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(b)
}
