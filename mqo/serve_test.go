package mqo

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestServeFacade drives the public serving surface end to end: build
// the tier from a workload with NewServer, query it both directly and
// over HTTP, and check the answer agrees with batch-shaped Optimize on
// the same workload.
func TestServeFacade(t *testing.T) {
	g, err := GenerateDatasetScaled("cora", 21, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorkload(g, 15, 50, 4, 21)
	m := SNS{}
	opt := Options{Knobs: Knobs{Workers: 4}}

	s, err := NewServer(w, m, NewSim(GPT35(), g, 21), opt, ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	node := w.Queries[0]
	res, err := s.Submit(context.Background(), "team-a", node)
	if err != nil {
		t.Fatal(err)
	}

	rep, err := Optimize(w, m, NewSim(GPT35(), g, 21), opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := rep.Results.Pred[node]; res.Category != want {
		t.Fatalf("serve answer %q differs from Optimize answer %q", res.Category, want)
	}

	ts := httptest.NewServer(ServeHandler(s))
	defer ts.Close()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+ServeQueryPath,
		strings.NewReader(`{"node": `+jsonInt(int(node))+`}`))
	req.Header.Set("Authorization", "Bearer key-team-b")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP status = %d", resp.StatusCode)
	}
	var body struct {
		Category  string `json:"category"`
		Tenant    string `json:"tenant"`
		Coalesced bool   `json:"coalesced"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Category != res.Category {
		t.Fatalf("HTTP answer %q differs from direct answer %q", body.Category, res.Category)
	}
	if body.Tenant != "key-team-b" {
		t.Fatalf("tenant = %q, want bearer key", body.Tenant)
	}
	if !body.Coalesced {
		t.Fatal("repeat query must be served from the coalescing memory")
	}
}

func jsonInt(v int) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestNewServerHonoursFallbackAndRejectsCacheDir pins NewServer to
// what Optimize does with the same Options: Fallback fits the
// surrogate on the labeled set so a dead backend still gets answers,
// and a CacheDir the Server could never Close is an error instead of
// being silently ignored.
func TestNewServerHonoursFallbackAndRejectsCacheDir(t *testing.T) {
	g, err := GenerateDatasetScaled("cora", 22, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorkload(g, 10, 20, 4, 22)
	dead, err := NewFaultInjector(NewSim(GPT35(), g, 22), FaultConfig{ErrorRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(w, KHopRandom{K: 1}, dead, Options{Fallback: true}, ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Submit(context.Background(), "team-a", w.Queries[0])
	if err != nil {
		t.Fatalf("Submit over a dead backend with Fallback: %v", err)
	}
	if !res.Fallback || res.Category == "" {
		t.Fatalf("result = %+v, want a surrogate answer marked Fallback", res)
	}

	if _, err := NewServer(w, KHopRandom{K: 1}, dead, Options{CacheDir: t.TempDir()}, ServeConfig{}); err == nil ||
		!strings.Contains(err.Error(), "CachingPredictor") {
		t.Fatalf("NewServer with CacheDir = %v, want an error pointing at CachingPredictor", err)
	}
	if _, err := NewServer(w, KHopRandom{K: 1}, dead, Options{Knobs: Knobs{Hedge: true}}, ServeConfig{}); err == nil {
		t.Fatal("NewServer accepted hedge without replicas")
	}
}
