package pool

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/prompt"
	"repro/internal/tag"
)

// TestProxyHopTracePropagation reproduces llmserve's multi-upstream
// proxy topology in-process — client → proxy Handler (pool of
// HTTPPredictors) → upstream Handler (simulator) — and checks one
// trace ID spans all three processes' rings with parent IDs intact at
// both HTTP hops: the proxy's request span parents on the client's
// outgoing llm.http span, the upstream's on the proxy's.
func TestProxyHopTracePropagation(t *testing.T) {
	spec, err := tag.SmallSpec("cora", 200)
	if err != nil {
		t.Fatal(err)
	}
	g := tag.Generate(spec, 101, tag.Options{})
	promptText := prompt.Build(prompt.Request{
		TargetTitle:    g.Title(0),
		TargetAbstract: g.Abstract(0),
		Categories:     g.Classes,
	})

	// Upstream: the simulator behind a chat-completions Handler.
	regUp := obs.NewRegistry()
	hUp := llm.NewHandler(llm.NewSim(llm.GPT35(), g.Vocab, g.Classes, 7))
	hUp.Obs = regUp
	upstream := httptest.NewServer(hUp)
	defer upstream.Close()

	// Proxy: a Handler whose predictor is a pool of HTTP clients on the
	// upstream (llmserve -upstreams mode).
	newUp := func() llm.Predictor {
		hp, err := llm.NewHTTPPredictor(llm.HTTPConfig{BaseURL: upstream.URL, Model: "sim"})
		if err != nil {
			t.Fatal(err)
		}
		return hp
	}
	regProxy := obs.NewRegistry()
	pl, err := New([]llm.Predictor{newUp(), newUp()}, Config{Obs: regProxy})
	if err != nil {
		t.Fatal(err)
	}
	hProxy := llm.NewHandler(pl)
	hProxy.Obs = regProxy
	proxy := httptest.NewServer(hProxy)
	defer proxy.Close()

	// Client: an HTTP predictor on the proxy, called under a root span.
	client, err := llm.NewHTTPPredictor(llm.HTTPConfig{BaseURL: proxy.URL, Model: "sim"})
	if err != nil {
		t.Fatal(err)
	}
	regClient := obs.NewRegistry()
	cctx, root := obs.StartSpanCtx(context.Background(), regClient, "client.query")
	resp, err := client.QueryContext(cctx, promptText)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	traceID := root.TraceID()

	// Hop 0: the client ring holds the outgoing llm.http span under the
	// root.
	clientHTTP := spanNamed(t, regClient, traceID, "llm.http")
	if clientHTTP.ParentID != root.SpanID() {
		t.Fatalf("client llm.http parent = %s, want root %s", clientHTTP.ParentID, root.SpanID())
	}

	// Hop 1: the proxy's request span joined the client's trace, with
	// the client's llm.http span as remote parent; underneath it the
	// pool routed and called out again.
	proxyReq := spanNamed(t, regProxy, traceID, "llm.request")
	if proxyReq.ParentID != clientHTTP.SpanID {
		t.Fatalf("proxy llm.request parent = %s, want client llm.http %s", proxyReq.ParentID, clientHTTP.SpanID)
	}
	spanNamed(t, regProxy, traceID, "pool.pick")
	spanNamed(t, regProxy, traceID, "pool.attempt")
	proxyHTTP := spanNamed(t, regProxy, traceID, "llm.http")

	// Hop 2: the upstream's request span parents on the proxy's
	// outgoing llm.http span — two process boundaries, one tree.
	upReq := spanNamed(t, regUp, traceID, "llm.request")
	if upReq.ParentID != proxyHTTP.SpanID {
		t.Fatalf("upstream llm.request parent = %s, want proxy llm.http %s", upReq.ParentID, proxyHTTP.SpanID)
	}

	// Both hops kept their books: each server billed the predict stage
	// with exactly the tokens it served.
	for _, tt := range []struct {
		name string
		reg  *obs.Registry
	}{{"proxy", regProxy}, {"upstream", regUp}} {
		led, ok := tt.reg.LedgerByTrace(traceID)
		if !ok {
			t.Fatalf("%s kept no ledger for trace %s", tt.name, traceID)
		}
		if want := resp.InputTokens + resp.OutputTokens; led.BilledTokens != want {
			t.Errorf("%s billed %d tokens, want %d", tt.name, led.BilledTokens, want)
		}
	}
}

// TestProxyErrorBodyCarriesTraceID checks the JSON error responses of
// a traced request quote the request's trace ID, so a client can jump
// from a 4xx straight to /debug/querytrace?id=….
func TestProxyErrorBodyCarriesTraceID(t *testing.T) {
	spec, err := tag.SmallSpec("cora", 50)
	if err != nil {
		t.Fatal(err)
	}
	g := tag.Generate(spec, 101, tag.Options{})
	reg := obs.NewRegistry()
	h := llm.NewHandler(llm.NewSim(llm.GPT35(), g.Vocab, g.Classes, 1))
	h.Obs = reg
	srv := httptest.NewServer(h)
	defer srv.Close()

	const remoteTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, err := http.NewRequest("POST", srv.URL+llm.ChatCompletionsPath,
		strings.NewReader(`{"model":"sim","messages":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceParentHeader, "00-"+remoteTrace+"-00f067aa0ba902b7-01")
	httpResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", httpResp.StatusCode)
	}
	if got := httpResp.Header.Get(obs.HeaderTraceID); got != remoteTrace {
		t.Fatalf("X-Trace-Id = %q, want %q", got, remoteTrace)
	}
	var body struct {
		Error struct {
			Message string `json:"message"`
			TraceID string `json:"trace_id"`
		} `json:"error"`
	}
	if err := json.NewDecoder(httpResp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error.TraceID != remoteTrace {
		t.Fatalf("error body trace_id = %q, want %q", body.Error.TraceID, remoteTrace)
	}
}

// TestProxyUpstreamFailureIs5xx reproduces llmserve -upstreams over
// two replicas that fail: a transport failure behind the proxy is the
// server's failure, so the client gets a 5xx after 1 + MaxRetries
// round trips (retrying, failing over and counting it toward a breaker
// as it would any 5xx). An upstream's own 4xx stays the caller's
// fault: 400, asked once.
func TestProxyUpstreamFailureIs5xx(t *testing.T) {
	for _, tc := range []struct {
		name       string
		upstream   error
		wantStatus int
		wantTrips  int64
	}{
		{"transport", errors.New("llm: transport: connection refused"), http.StatusBadGateway, 4},
		{"upstream 4xx", &llm.APIError{StatusCode: http.StatusNotFound, Message: "no such model"}, http.StatusBadRequest, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl := mustPool(t, Config{Breaker: batch.BreakerConfig{Threshold: 2}},
				&fakePred{name: "u0", id: "x", err: tc.upstream}, &fakePred{name: "u1", id: "x", err: tc.upstream})
			h := llm.NewHandler(pl)
			h.Obs = obs.NewRegistry()
			var trips atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				trips.Add(1)
				h.ServeHTTP(w, r)
			}))
			defer srv.Close()
			client, err := llm.NewHTTPPredictor(llm.HTTPConfig{BaseURL: srv.URL, Model: "sim", MaxRetries: 3, RetryBaseDelay: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			_, err = client.Query("any prompt")
			var apiErr *llm.APIError
			if !errors.As(err, &apiErr) || apiErr.StatusCode != tc.wantStatus {
				t.Fatalf("client error %v, want API error %d", err, tc.wantStatus)
			}
			if got := trips.Load(); got != tc.wantTrips {
				t.Errorf("client made %d round trips, want %d", got, tc.wantTrips)
			}
		})
	}
}

// spanNamed returns the one retained span with the given name inside a
// trace, failing the test when absent.
func spanNamed(t *testing.T, reg *obs.Registry, traceID, name string) obs.Trace {
	t.Helper()
	for _, sp := range reg.TraceByID(traceID) {
		if sp.Name == name {
			return sp
		}
	}
	var names []string
	for _, sp := range reg.TraceByID(traceID) {
		names = append(names, sp.Name)
	}
	t.Fatalf("trace %s has no %q span (has %v)", traceID, name, names)
	return obs.Trace{}
}
