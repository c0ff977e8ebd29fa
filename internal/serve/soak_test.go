//go:build soak

package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/predictors"
	"repro/internal/tag"
)

// soakQuery fires one POST /v1/query and decodes the reply.
func soakQuery(t testing.TB, url, tenant string, node int) (int, string, QueryResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+QueryPath,
		strings.NewReader(fmt.Sprintf(`{"node": %d}`, node)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr QueryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, resp.Header.Get("Retry-After"), qr
}

// TestSoakServeMixedTenants is the serving tier's end-to-end soak,
// meant to run under -race: concurrent tenants hammer /v1/query with
// overlapping query sets, and the tier must (1) answer identically to
// batch-shaped execution of the same query set, (2) make zero
// predictor calls on a warm re-run, and leave (4) no goroutine behind
// after drain. (Backpressure, property (3), soaks separately below —
// it needs a gated predictor.)
func TestSoakServeMixedTenants(t *testing.T) {
	before := runtime.NumGoroutine()

	f := newFixture(t, 600, 120, 43)
	nodes := f.split.Query[:60]
	counter := &countingPredictor{inner: f.freshSim()}
	s, err := New(f.freshCtx(), predictors.KHopRandom{K: 1}, counter, Config{
		Exec: core.ExecConfig{Workers: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(s))

	// Open-loop mixed-tenant load: every tenant walks the whole node
	// set from a different offset, so identical nodes are in flight
	// from distinct tenants constantly.
	const tenants = 8
	answers := make([]map[int]string, tenants)
	var wg sync.WaitGroup
	for ten := 0; ten < tenants; ten++ {
		wg.Add(1)
		go func(ten int) {
			defer wg.Done()
			got := make(map[int]string, len(nodes))
			for i := range nodes {
				node := int(nodes[(i+ten*7)%len(nodes)])
				code, _, qr := soakQuery(t, ts.URL, fmt.Sprintf("tenant-%d", ten), node)
				if code != http.StatusOK {
					t.Errorf("tenant %d node %d: status %d", ten, node, code)
					return
				}
				got[node] = qr.Category
			}
			answers[ten] = got
		}(ten)
	}
	wg.Wait()
	coldCalls := counter.calls.Load()
	if coldCalls == 0 {
		t.Fatal("no predictor calls during cold run")
	}
	if coldCalls > int64(len(nodes)) {
		t.Fatalf("%d predictor calls for %d unique nodes: cross-tenant coalescing failed", coldCalls, len(nodes))
	}

	// (1) Answer-identical to batch-shaped execution of the same set.
	batchRes, err := core.ExecuteWith(f.freshCtx(), predictors.KHopRandom{K: 1},
		f.freshSim(), core.Plan{Queries: nodes}, core.ExecConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for ten, got := range answers {
		for node, cat := range got {
			if want := batchRes.Pred[tag.NodeID(node)]; cat != want {
				t.Fatalf("tenant %d node %d: serve %q vs batch %q", ten, node, cat, want)
			}
		}
	}

	// (2) Warm re-run: zero additional predictor calls.
	var warm sync.WaitGroup
	for ten := 0; ten < tenants; ten++ {
		warm.Add(1)
		go func(ten int) {
			defer warm.Done()
			for _, v := range nodes {
				if code, _, _ := soakQuery(t, ts.URL, fmt.Sprintf("warm-%d", ten), int(v)); code != http.StatusOK {
					t.Errorf("warm tenant %d node %d: status %d", ten, v, code)
					return
				}
			}
		}(ten)
	}
	warm.Wait()
	if got := counter.calls.Load(); got != coldCalls {
		t.Fatalf("warm re-run made %d extra predictor calls", got-coldCalls)
	}

	// (4) Drain leaves no goroutine behind.
	ts.Close()
	s.Close()
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before+2 })
}

// TestSoakServeBackpressure holds the predictor shut while an open-
// loop flood hits /v1/query, asserting property (3): past the
// high-water mark requests are rejected with 429 + Retry-After, and
// the admission queue never exceeds its bound.
func TestSoakServeBackpressure(t *testing.T) {
	before := runtime.NumGoroutine()

	f := newFixture(t, 600, 120, 47)
	gate := newGated(f.freshSim())
	const maxQueue = 8
	s, err := New(f.freshCtx(), predictors.KHopRandom{K: 1}, gate, Config{
		MaxQueue: maxQueue, RetryAfter: 3 * time.Second,
		Exec: core.ExecConfig{Workers: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(s))

	// Sample the queue bound continuously while the flood runs.
	var maxDepth atomic.Int64
	sampler := make(chan struct{})
	var sampled sync.WaitGroup
	sampled.Add(1)
	go func() {
		defer sampled.Done()
		for {
			select {
			case <-sampler:
				return
			default:
				if d := int64(s.QueueDepth()); d > maxDepth.Load() {
					maxDepth.Store(d)
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	const flood = 64
	var ok, rejected atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, retryAfter, _ := soakQuery(t, ts.URL, fmt.Sprintf("flood-%d", i%4), int(f.split.Query[i%len(f.split.Query)]))
			switch code {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusTooManyRequests:
				rejected.Add(1)
				if retryAfter == "" {
					t.Error("429 without Retry-After header")
				}
			default:
				t.Errorf("request %d: unexpected status %d", i, code)
			}
		}(i)
	}
	// Give the flood time to pile up against the gated slots, then
	// open the gate so admitted requests finish.
	waitFor(t, func() bool { return rejected.Load() > 0 })
	gate.open()
	wg.Wait()
	close(sampler)
	sampled.Wait()

	if rejected.Load() == 0 {
		t.Fatal("open-loop overload produced no 429s")
	}
	if ok.Load() == 0 {
		t.Fatal("every request rejected: admission control over-throttled")
	}
	if got := maxDepth.Load(); got > maxQueue {
		t.Fatalf("observed queue depth %d exceeds bound %d", got, maxQueue)
	}

	ts.Close()
	s.Close()
	if _, err := s.Submit(context.Background(), "late", f.split.Query[0]); err != ErrDraining {
		t.Fatalf("post-drain submit: err = %v, want ErrDraining", err)
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before+2 })
}
