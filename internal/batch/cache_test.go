package batch

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/promptcache"
)

func openCache(t *testing.T, cfg promptcache.Config) *promptcache.Cache {
	t.Helper()
	c, err := promptcache.Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestDiskTierServesSecondExecutor is the cache's reason to exist: a
// second executor over the same disk cache (a re-run of the same
// workload) pays zero predictor calls.
func TestDiskTierServesSecondExecutor(t *testing.T) {
	disk := openCache(t, promptcache.Config{})
	p := newScripted()
	e1, err := New(p, Config{Workers: 4, Disk: disk})
	if err != nil {
		t.Fatal(err)
	}
	all := reqs(50)
	res1, err := e1.Execute(context.Background(), all)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Failed != 0 || res1.CacheHits != 0 {
		t.Fatalf("cold run: %+v", res1)
	}
	if p.total.Load() != 50 {
		t.Fatalf("cold run paid %d calls, want 50", p.total.Load())
	}

	// Fresh executor, fresh memory tier: every answer must come from
	// disk, with token meters intact so accounting reproduces.
	e2, err := New(p, Config{Workers: 4, Disk: disk})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := e2.Execute(context.Background(), all)
	if err != nil {
		t.Fatal(err)
	}
	if p.total.Load() != 50 {
		t.Fatalf("warm run paid %d extra calls, want 0", p.total.Load()-50)
	}
	if res2.CacheHits != 50 || res2.Failed != 0 {
		t.Fatalf("warm run: %+v", res2)
	}
	for id, o := range res2.Outcomes {
		if !o.Cached || o.Err != nil {
			t.Fatalf("outcome %s not served from cache: %+v", id, o)
		}
		want := res1.Outcomes[id].Response
		if o.Response != want {
			t.Fatalf("outcome %s changed across runs: %+v vs %+v", id, o.Response, want)
		}
	}
}

// TestDiskTierSurvivesReopen: the warm run happens after the cache is
// closed and reopened, i.e. across a process restart.
func TestDiskTierSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	p := newScripted()
	disk, err := promptcache.Open(dir, promptcache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e1, err := New(p, Config{Disk: disk})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Execute(context.Background(), reqs(10)); err != nil {
		t.Fatal(err)
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}

	disk2, err := promptcache.Open(dir, promptcache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer disk2.Close()
	e2, err := New(p, Config{Disk: disk2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e2.Execute(context.Background(), reqs(10))
	if err != nil {
		t.Fatal(err)
	}
	if p.total.Load() != 10 {
		t.Fatalf("restart re-paid %d calls", p.total.Load()-10)
	}
	if res.CacheHits != 10 {
		t.Fatalf("restart run: %+v", res)
	}
}

// TestDiskNamespaceSeparates: two executors over the same disk cache
// but different namespaces must not share answers.
func TestDiskNamespaceSeparates(t *testing.T) {
	disk := openCache(t, promptcache.Config{})
	p := newScripted()
	e1, _ := New(p, Config{Disk: disk, CacheNamespace: "model-a"})
	if _, err := e1.Execute(context.Background(), reqs(5)); err != nil {
		t.Fatal(err)
	}
	e2, _ := New(p, Config{Disk: disk, CacheNamespace: "model-b"})
	res, err := e2.Execute(context.Background(), reqs(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != 0 {
		t.Fatalf("namespace b hit namespace a's entries: %+v", res)
	}
	if p.total.Load() != 10 {
		t.Fatalf("total calls %d, want 10 (no cross-namespace sharing)", p.total.Load())
	}
}

// TestEvictionUnderConcurrentExecute is the satellite -race test: many
// Execute calls hammer one cache with a byte budget a fraction
// of the working set. No update may be lost (every outcome correct),
// and the cache's Stats must reconcile exactly with its mqo_cache_*
// metrics when the dust settles.
func TestEvictionUnderConcurrentExecute(t *testing.T) {
	reg := obs.NewRegistry()
	disk, err := promptcache.Open(t.TempDir(), promptcache.Config{MaxBytes: 512, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()

	const execs = 6
	var wg sync.WaitGroup
	errs := make(chan error, execs)
	for g := 0; g < execs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := newScripted()
			e, err := New(p, Config{Workers: 4, Disk: disk, CacheNamespace: "race"})
			if err != nil {
				errs <- err
				return
			}
			// Overlapping but distinct working sets, far over the 512-byte
			// budget, so puts constantly evict while other executors read.
			rs := make([]Request, 30)
			for i := range rs {
				rs[i] = Request{ID: fmt.Sprintf("g%d-q%d", g, i), Prompt: fmt.Sprintf("prompt %d", (g*7+i)%40)}
			}
			res, err := e.Execute(context.Background(), rs)
			if err != nil {
				errs <- err
				return
			}
			for id, o := range res.Outcomes {
				if o.Err != nil {
					errs <- fmt.Errorf("outcome %s: %w", id, o.Err)
					return
				}
				if o.Response.Category != "A" {
					errs <- fmt.Errorf("outcome %s lost its update: %+v", id, o.Response)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := disk.Stats()
	if st.Bytes > 512 {
		t.Fatalf("live bytes %d exceed the 512-byte budget", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Fatal("a working set 10x the budget produced no evictions")
	}
	if got := reg.CounterValue("mqo_cache_hits_total"); got != float64(st.Hits) {
		t.Fatalf("hits counter %v != stats %d", got, st.Hits)
	}
	if got := reg.CounterValue("mqo_cache_misses_total"); got != float64(st.Misses) {
		t.Fatalf("misses counter %v != stats %d", got, st.Misses)
	}
	evicted := reg.CounterValue("mqo_cache_evictions_total", "reason", "lru") +
		reg.CounterValue("mqo_cache_evictions_total", "reason", "expired")
	if evicted != float64(st.Evictions) {
		t.Fatalf("eviction counters %v != stats %d", evicted, st.Evictions)
	}
	if got := reg.GaugeValue("mqo_cache_bytes"); got != float64(st.Bytes) {
		t.Fatalf("bytes gauge %v != stats %d", got, st.Bytes)
	}
}

// TestCrashAndResume: a batch stops when its token budget runs out,
// and the re-run asks the whole list again over the same disk cache.
// Every answer the first run paid for comes back Cached, at the tokens
// it cost; only the unfinished requests are billed.
func TestCrashAndResume(t *testing.T) {
	disk := openCache(t, promptcache.Config{})
	p := newScripted()
	p.tokens = 100
	all := reqs(10)

	// First run: the budget covers only 4 of 10 queries.
	e1, err := New(p, Config{Workers: 1, BudgetTokens: 400, Disk: disk})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := e1.Execute(context.Background(), all)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Skipped != 6 {
		t.Fatalf("first run skipped %d, want 6", res1.Skipped)
	}

	e2, err := New(p, Config{Workers: 2, Disk: disk})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := e2.Execute(context.Background(), all)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Failed != 0 || res2.Skipped != 0 || res2.CacheHits != 4 || len(res2.Outcomes) != 10 {
		t.Fatalf("resume run: %+v", res2)
	}
	if got := p.total.Load(); got != 10 {
		t.Errorf("the two runs billed %d queries, want 10 (4 + 6)", got)
	}
	if res2.TokensUsed != 600 {
		t.Errorf("resume spent %d fresh tokens, want 600", res2.TokensUsed)
	}
	for id, o := range res2.Outcomes {
		first := res1.Outcomes[id]
		if first.Err == nil {
			if !o.Cached || o.Response != first.Response || o.Response.InputTokens != 100 {
				t.Errorf("recovered outcome %s: %+v, want the first run's answer at its tokens, cached", id, o)
			}
		} else if o.Cached || o.Attempts != 1 || o.Err != nil {
			t.Errorf("unfinished request %s: %+v, want one fresh call", id, o)
		}
	}
}
