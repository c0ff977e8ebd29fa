package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// The golden files pin the /v1/query wire contract byte for byte:
// status, Content-Type, the Retry-After hint on backpressure, the
// X-Trace-Id echo, and the exact JSON body for each outcome. Clients
// (llm.HTTPPredictor, the load harness's strict decoder) parse these
// shapes; a golden diff is an API break, not a formatting nit.
// Regenerate deliberately with UPDATE_GOLDEN=1 go test.
//
// Trace IDs are random per process, so every 32-hex-char run is
// normalized to a fixed placeholder before comparison; the success test
// separately asserts the header and body carry the *same* live ID.
var traceIDPattern = regexp.MustCompile(`[0-9a-f]{32}`)

const traceIDPlaceholder = "00000000000000000000000000000000"

func normalizeTraceIDs(s string) string {
	return traceIDPattern.ReplaceAllString(s, traceIDPlaceholder)
}

// renderResponse serializes the parts of the response the contract
// covers into the golden text form.
func renderResponse(resp *http.Response, body []byte) string {
	var b strings.Builder
	fmt.Fprintf(&b, "HTTP %d\n", resp.StatusCode)
	fmt.Fprintf(&b, "Content-Type: %s\n", resp.Header.Get("Content-Type"))
	if v := resp.Header.Get("Retry-After"); v != "" {
		fmt.Fprintf(&b, "Retry-After: %s\n", v)
	}
	if v := resp.Header.Get(obs.HeaderTraceID); v != "" {
		fmt.Fprintf(&b, "X-Trace-Id: %s\n", normalizeTraceIDs(v))
	}
	b.WriteString("\n")
	b.WriteString(normalizeTraceIDs(string(body)))
	return b.String()
}

func checkGolden(t *testing.T, name string, resp *http.Response, body []byte) {
	t.Helper()
	got := renderResponse(resp, body)
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s: response drifted from the pinned contract:\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

func postQuery(t *testing.T, ts *httptest.Server, tenant, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+QueryPath, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestGoldenQuerySuccess pins the 200 body — field set, order, token
// accounting — and the trace contract: the X-Trace-Id header and the
// body's trace_id are the same live 32-hex-char ID.
func TestGoldenQuerySuccess(t *testing.T) {
	f := newFixture(t, 300, 40, 7)
	s := newServer(t, f, f.freshSim(), Config{Obs: obs.NewRegistry()})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	node := f.split.Query[0]
	resp, body := postQuery(t, ts, "acme", fmt.Sprintf(`{"node": %d}`, node))

	header := resp.Header.Get(obs.HeaderTraceID)
	if !traceIDPattern.MatchString(header) {
		t.Fatalf("X-Trace-Id %q is not a 32-hex trace ID", header)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.TraceID != header {
		t.Fatalf("body trace_id %q != X-Trace-Id header %q", qr.TraceID, header)
	}
	checkGolden(t, "golden_query_ok.txt", resp, body)
}

// TestGoldenQueryMalformed pins the 400 envelope for a body that is
// not JSON.
func TestGoldenQueryMalformed(t *testing.T) {
	f := newFixture(t, 300, 40, 7)
	s := newServer(t, f, f.freshSim(), Config{})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	resp, body := postQuery(t, ts, "acme", `not json`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	checkGolden(t, "golden_query_malformed.txt", resp, body)
}

// TestGoldenQueryQueueFull pins the 429 queue-full envelope and its
// Retry-After hint. The first request's node is executing, parked on a
// gated predictor, so it provably occupies the one admission slot when
// the second arrives — no timing, no flakes.
func TestGoldenQueryQueueFull(t *testing.T) {
	f := newFixture(t, 300, 40, 7)
	gate := newGated(f.freshSim())
	s := newServer(t, f, gate, Config{MaxQueue: 1, RetryAfter: 2 * time.Second})
	defer gate.open() // let the parked node finish so Close can drain
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	node := f.split.Query[0]
	first := make(chan struct{})
	go func() {
		defer close(first)
		resp, err := http.Post(ts.URL+QueryPath, "application/json",
			strings.NewReader(fmt.Sprintf(`{"node": %d}`, node)))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitFor(t, func() bool { return gate.calls() == 1 })

	resp, body := postQuery(t, ts, "acme", fmt.Sprintf(`{"node": %d}`, f.split.Query[1]))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	checkGolden(t, "golden_query_queue_full.txt", resp, body)
	gate.open()
	<-first
}

// TestGoldenQueryQuota pins the 429 tenant-quota envelope: one answered
// query exhausts a 1-token budget, the tenant's next request is
// rejected with the quota error type and a Retry-After hint.
func TestGoldenQueryQuota(t *testing.T) {
	f := newFixture(t, 300, 40, 7)
	s := newServer(t, f, f.freshSim(), Config{TenantBudget: 1, RetryAfter: 2 * time.Second})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	resp, _ := postQuery(t, ts, "acme", fmt.Sprintf(`{"node": %d}`, f.split.Query[0]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d, want 200", resp.StatusCode)
	}
	resp, body := postQuery(t, ts, "acme", fmt.Sprintf(`{"node": %d}`, f.split.Query[1]))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429", resp.StatusCode)
	}
	checkGolden(t, "golden_query_quota.txt", resp, body)
}
