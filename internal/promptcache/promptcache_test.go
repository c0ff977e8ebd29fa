package promptcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/obs"
)

func resp(cat string, in, out int) llm.Response {
	return llm.Response{Text: "Category: ['" + cat + "']", Category: cat, InputTokens: in, OutputTokens: out}
}

func mustOpen(t *testing.T, dir string, cfg Config) *Cache {
	t.Helper()
	c, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestPutGetAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Config{})
	keys := make([]Key, 50)
	for i := range keys {
		keys[i] = KeyOf("ns", fmt.Sprintf("prompt %d", i))
		if err := c.Put(keys[i], resp(fmt.Sprintf("cat%d", i), i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Get(KeyOf("ns", "missing")); ok {
		t.Fatal("hit on a never-written key")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := mustOpen(t, dir, Config{})
	for i, k := range keys {
		got, ok := c2.Get(k)
		if !ok {
			t.Fatalf("key %d lost across reopen", i)
		}
		want := resp(fmt.Sprintf("cat%d", i), i, 1)
		if got != want {
			t.Fatalf("key %d: got %+v want %+v", i, got, want)
		}
	}
	if n := c2.Len(); n != 50 {
		t.Fatalf("entries after reopen: %d want 50", n)
	}
}

func TestOverwriteReplaces(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Config{})
	k := KeyOf("ns", "p")
	if err := c.Put(k, resp("old", 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(k, resp("new", 2, 2)); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Get(k); got.Category != "new" {
		t.Fatalf("got %q want new", got.Category)
	}
	c.Close()
	c2 := mustOpen(t, dir, Config{})
	if got, ok := c2.Get(k); !ok || got.Category != "new" {
		t.Fatalf("reopen: got %+v ok=%v, want the overwrite", got, ok)
	}
	if c2.Len() != 1 {
		t.Fatalf("len %d want 1", c2.Len())
	}
}

// TestTornTailRecovery simulates kill -9 mid-append: any truncation of
// a valid segment must reopen cleanly, keep every complete record, and
// stay appendable.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Config{})
	for i := 0; i < 10; i++ {
		if err := c.Put(KeyOf("ns", fmt.Sprintf("p%d", i)), resp("c", 10+i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()

	seg := filepath.Join(dir, "seg-00.log")
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := replay(full)
	if len(recs) != 10 {
		t.Fatalf("fixture has %d records, want 10", len(recs))
	}

	for cut := len(full) - 1; cut >= 0; cut -= 7 {
		if err := os.WriteFile(seg, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantRecs, _ := replay(full[:cut])
		c2, err := Open(dir, Config{})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got := c2.Len(); got != int64(len(wantRecs)) {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, got, len(wantRecs))
		}
		// Still appendable after tail truncation.
		extra := KeyOf("ns", "post-crash")
		if err := c2.Put(extra, resp("x", 1, 1)); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		c2.Close()
		c3, err := Open(dir, Config{})
		if err != nil {
			t.Fatalf("cut %d: reopen after append: %v", cut, err)
		}
		if _, ok := c3.Get(extra); !ok {
			t.Fatalf("cut %d: post-crash append lost", cut)
		}
		for i, r := range wantRecs {
			if got, ok := c3.Get(r.key); !ok || got.Category != "c" {
				t.Fatalf("cut %d: record %d lost or corrupt (ok=%v)", cut, i, ok)
			}
		}
		c3.Close()
	}
}

// TestCorruptMiddleStopsAtPrefix: flipping a byte inside a record must
// drop that record and everything after it (the framing can no longer
// be trusted), while keeping the records before it.
func TestCorruptMiddleStopsAtPrefix(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Config{})
	k0, k1, k2 := KeyOf("ns", "a"), KeyOf("ns", "b"), KeyOf("ns", "c")
	for _, k := range []Key{k0, k1, k2} {
		if err := c.Put(k, resp("c", 3, 1)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	seg := filepath.Join(dir, "seg-00.log")
	data, _ := os.ReadFile(seg)
	recs, _ := replay(data)
	if len(recs) != 3 {
		t.Fatalf("want 3 records, got %d", len(recs))
	}
	// Corrupt a payload byte of the second record.
	off := int(recs[0].size) + recordHeaderSize + 40
	data[off] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c2 := mustOpen(t, dir, Config{})
	if _, ok := c2.Get(k0); !ok {
		t.Fatal("record before the corruption lost")
	}
	if _, ok := c2.Get(k1); ok {
		t.Fatal("corrupt record served")
	}
	if _, ok := c2.Get(k2); ok {
		t.Fatal("record after the corruption served (framing cannot be trusted)")
	}
}

func TestLRUEvictionUnderByteBudget(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	c := mustOpen(t, dir, Config{MaxBytes: 400, Obs: reg})
	var keys []Key
	for i := 0; i < 20; i++ {
		k := KeyOf("ns", fmt.Sprintf("p%02d", i))
		keys = append(keys, k)
		if err := c.Put(k, resp("c", i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("tiny budget produced no evictions")
	}
	if st.Bytes > 400 {
		t.Fatalf("live bytes %d exceed budget 400", st.Bytes)
	}
	if _, ok := c.Get(keys[19]); !ok {
		t.Fatal("most recent entry evicted")
	}
	if _, ok := c.Get(keys[0]); ok {
		t.Fatal("oldest entry survived a 20x-over budget")
	}
	if got := reg.CounterValue("mqo_cache_evictions_total", "reason", "lru"); got != float64(st.Evictions) {
		t.Fatalf("eviction counter %v != stats %d", got, st.Evictions)
	}

	// Eviction is durable: a reopen must not resurrect evicted keys.
	c.Close()
	c2 := mustOpen(t, dir, Config{MaxBytes: 400})
	if _, ok := c2.Get(keys[0]); ok {
		t.Fatal("evicted entry resurrected by reopen")
	}
	if _, ok := c2.Get(keys[19]); !ok {
		t.Fatal("live entry lost by reopen")
	}
}

func TestTTLExpiry(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c := mustOpen(t, dir, Config{TTL: time.Minute, now: clock})
	k := KeyOf("ns", "p")
	if err := c.Put(k, resp("c", 1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); !ok {
		t.Fatal("fresh entry missed")
	}
	now = now.Add(2 * time.Minute)
	if c.Contains(k) {
		t.Fatal("Contains served an expired entry")
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("expired entry served")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 0 {
		t.Fatalf("stats after expiry: %+v", st)
	}
	// Expiry also applies at replay: reopening must drop it.
	c.Close()
	c2 := mustOpen(t, dir, Config{TTL: time.Minute, now: clock})
	if c2.Len() != 0 {
		t.Fatal("expired entry survived reopen")
	}
}

func TestCompactionShrinksSegment(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Config{})
	k := KeyOf("ns", "hot")
	long := strings.Repeat("x", 512)
	for i := 0; i < 100; i++ {
		if err := c.Put(k, llm.Response{Text: long, Category: "c", InputTokens: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, "seg-00.log"))
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if fi.Size() != st.Bytes {
		t.Fatalf("compacted segment %d bytes, live set %d", fi.Size(), st.Bytes)
	}
	if got, ok := c.Get(k); !ok || got.InputTokens != 99 {
		t.Fatalf("latest value lost by compaction: %+v ok=%v", got, ok)
	}
	c.Close()
	c2 := mustOpen(t, dir, Config{})
	if got, ok := c2.Get(k); !ok || got.InputTokens != 99 {
		t.Fatalf("latest value lost across reopen after compaction: %+v ok=%v", got, ok)
	}
}

// TestCompactionPreservesLRUOrder: after compact + reopen, eviction
// order must still be least-recently-used, not insertion order.
func TestCompactionPreservesLRUOrder(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Config{})
	old := KeyOf("ns", "old")
	hot := KeyOf("ns", "hot")
	if err := c.Put(old, resp("c", 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(hot, resp("c", 2, 1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(old); !ok { // touch: old is now most recent
		t.Fatal("miss")
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// Reopen with a budget that fits exactly one entry: the LRU victim
	// must be `hot` (least recently used), proving compaction wrote
	// oldest-first.
	c2 := mustOpen(t, dir, Config{MaxBytes: 1})
	if _, ok := c2.Get(old); !ok {
		t.Fatal("most-recently-used entry evicted at reopen")
	}
	if _, ok := c2.Get(hot); ok {
		t.Fatal("least-recently-used entry survived a one-entry budget")
	}
}

func TestStatsReconcileWithMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	c := mustOpen(t, t.TempDir(), Config{Obs: reg})
	k1, k2 := KeyOf("ns", "a"), KeyOf("ns", "b")
	c.Put(k1, resp("c", 1, 1))
	c.Get(k1)
	c.Get(k2)
	c.Get(k2)
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats %+v, want 1 hit / 2 misses", st)
	}
	if got := reg.CounterValue("mqo_cache_hits_total"); got != 1 {
		t.Fatalf("hits counter %v", got)
	}
	if got := reg.CounterValue("mqo_cache_misses_total"); got != 2 {
		t.Fatalf("misses counter %v", got)
	}
	if got := reg.GaugeValue("mqo_cache_bytes"); got != float64(st.Bytes) {
		t.Fatalf("bytes gauge %v != stats %d", got, st.Bytes)
	}
}

func TestNamespaceIsolation(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Config{})
	p := "identical prompt"
	c.Put(KeyOf("gpt-3.5/seed=1|tmpl=v1", p), resp("A", 1, 1))
	c.Put(KeyOf("gpt-3.5/seed=2|tmpl=v1", p), resp("B", 1, 1))
	got, ok := c.Get(KeyOf("gpt-3.5/seed=1|tmpl=v1", p))
	if !ok || got.Category != "A" {
		t.Fatalf("namespace 1: %+v ok=%v", got, ok)
	}
	got, ok = c.Get(KeyOf("gpt-3.5/seed=2|tmpl=v1", p))
	if !ok || got.Category != "B" {
		t.Fatalf("namespace 2: %+v ok=%v", got, ok)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Config{MaxBytes: 4096})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := KeyOf("ns", fmt.Sprintf("p%d", i%37))
				if i%3 == 0 {
					if err := c.Put(k, resp("c", i, 1)); err != nil {
						t.Error(err)
						return
					}
				} else if r, ok := c.Get(k); ok && r.Category != "c" {
					t.Errorf("wrong category %q", r.Category)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > 4096 {
		t.Fatalf("live bytes %d exceed budget", st.Bytes)
	}
}

func TestWrapServesFromCacheAcrossPredictors(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Config{})
	inner := &countingPredictor{category: "K"}
	p := Wrap(inner, c)
	if p.Name() != inner.Name() {
		t.Fatalf("Wrap changed the served name: %q", p.Name())
	}
	r1, err := p.Query("prompt")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.Query("prompt")
	if err != nil {
		t.Fatal(err)
	}
	if inner.calls != 1 {
		t.Fatalf("inner called %d times, want 1", inner.calls)
	}
	if r1 != r2 {
		t.Fatalf("cached answer differs: %+v vs %+v", r1, r2)
	}

	// A fresh wrapper over a fresh inner predictor with the same
	// identity reads the persisted answer: zero inner calls.
	inner2 := &countingPredictor{category: "K"}
	p2 := Wrap(inner2, c)
	if _, err := p2.Query("prompt"); err != nil {
		t.Fatal(err)
	}
	if inner2.calls != 0 {
		t.Fatalf("warm wrapper paid %d inner calls, want 0", inner2.calls)
	}
}

type countingPredictor struct {
	category string
	calls    int
}

func (p *countingPredictor) Name() string { return "counting" }

func (p *countingPredictor) Query(promptText string) (llm.Response, error) {
	p.calls++
	return llm.Response{Text: "Category: ['" + p.category + "']", Category: p.category,
		InputTokens: len(promptText), OutputTokens: 4}, nil
}

func TestKeyOfSeparatesNamespaceFromPrompt(t *testing.T) {
	// "ab" + "c" must not collide with "a" + "bc".
	if KeyOf("ab", "c") == KeyOf("a", "bc") {
		t.Fatal("namespace/prompt split ambiguous")
	}
	if KeyOf("ns", "p") != KeyOf("ns", "p") {
		t.Fatal("KeyOf not deterministic")
	}
}

func TestOpenRejectsBadConfig(t *testing.T) {
	if _, err := Open("", Config{}); err == nil {
		t.Fatal("empty dir accepted")
	}
	if _, err := Open(t.TempDir(), Config{MaxBytes: -1}); err == nil {
		t.Fatal("negative budget accepted")
	}
}

func TestPutAfterCloseFails(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Config{})
	c.Close()
	if err := c.Put(KeyOf("ns", "p"), resp("c", 1, 1)); err == nil {
		t.Fatal("Put after Close succeeded")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	k := KeyOf("ns", "p")
	when := time.Unix(123, 456)
	want := llm.Response{Text: "some text\nwith newline", Category: "Theory", InputTokens: 7, OutputTokens: 3}
	rec := encodeRecord(k, when, kindPut, want)
	recs, good := replay(rec)
	if len(recs) != 1 || good != int64(len(rec)) {
		t.Fatalf("replay: %d records, offset %d/%d", len(recs), good, len(rec))
	}
	r := recs[0]
	if r.key != k || !r.written.Equal(when) || r.kind != kindPut || r.resp != want {
		t.Fatalf("round trip mismatch: %+v", r)
	}
	if !bytes.Equal(rec, encodeRecord(k, when, kindPut, want)) {
		t.Fatal("encodeRecord not deterministic")
	}
}

// recordSize is the on-disk size of one record holding r.
func recordSize(r llm.Response) int64 {
	return int64(len(encodeRecord(Key{}, time.Unix(0, 0), kindPut, r)))
}

// TestByteBoundIsExact: a budget with room for exactly k records holds
// k distinct prompts without evicting any, and the (k+1)-th evicts
// exactly the least recently used entry.
func TestByteBoundIsExact(t *testing.T) {
	const k = 64
	r := resp("c", 1, 1)
	size := recordSize(r)
	reg := obs.NewRegistry()
	c := mustOpen(t, t.TempDir(), Config{MaxBytes: k * size, Obs: reg})
	keys := make([]Key, k+1)
	for i := range keys {
		keys[i] = KeyOf("ns", fmt.Sprintf("prompt %d", i))
	}
	for _, key := range keys[:k] {
		if err := c.Put(key, r); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Evictions != 0 || st.Entries != k || st.Bytes != k*size {
		t.Fatalf("%d records into room for %d: %+v, want all kept", k, k, st)
	}
	// Touch the oldest entry, so the least recently used is keys[1].
	if _, ok := c.Get(keys[0]); !ok {
		t.Fatal("oldest entry missing before the budget was reached")
	}
	if err := c.Put(keys[k], r); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != k || st.Bytes != k*size {
		t.Fatalf("after record %d: %+v, want exactly one eviction", k+1, st)
	}
	for i, key := range keys {
		if got, want := c.Contains(key), i != 1; got != want {
			t.Fatalf("key %d cached = %v, want %v (only the least recently used goes)", i, got, want)
		}
	}
	if got := reg.CounterValue("mqo_cache_evictions_total", "reason", "lru"); got != 1 {
		t.Fatalf("eviction counter %v, want 1", got)
	}
}

// TestContainsLeavesLRUAndStats: the budget estimator's lookup neither
// saves the least recently used entry from the next eviction nor moves
// the hit and miss counters.
func TestContainsLeavesLRUAndStats(t *testing.T) {
	r := resp("c", 1, 1)
	c := mustOpen(t, t.TempDir(), Config{MaxBytes: 2 * recordSize(r)})
	oldest, newer, next := KeyOf("ns", "oldest"), KeyOf("ns", "newer"), KeyOf("ns", "next")
	for _, k := range []Key{oldest, newer} {
		if err := c.Put(k, r); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Stats()
	if !c.Contains(oldest) || c.Contains(next) {
		t.Fatal("Contains misreports presence")
	}
	if after := c.Stats(); after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("Contains moved the counters: %+v -> %+v", before, after)
	}
	if err := c.Put(next, r); err != nil {
		t.Fatal(err)
	}
	if c.Contains(oldest) {
		t.Fatal("Contains saved the least recently used entry from eviction")
	}
	if !c.Contains(newer) || !c.Contains(next) {
		t.Fatal("eviction took an entry other than the least recently used")
	}
}

// TestReopenMergesStripedSegments: a directory in the striped layout an
// earlier version wrote — eight segments, each key in the one its first
// byte picks — reopens with every live entry and keeps only seg-00.log,
// and reopens the same way a second time. A merge that fails before its
// rename leaves the eight files as they were.
func TestReopenMergesStripedSegments(t *testing.T) {
	dir := t.TempDir()
	const stripes = 8
	segs := make([][]byte, stripes)
	want := map[Key]llm.Response{}
	written := time.Unix(1000, 0)
	for i := 0; i < 60; i++ {
		k := KeyOf("ns", fmt.Sprintf("p%d", i))
		s := int(k[0]) % stripes
		r := resp(fmt.Sprintf("c%d", i), i, 1)
		segs[s] = append(segs[s], encodeRecord(k, written, kindPut, r)...)
		want[k] = r
		switch i % 5 {
		case 1: // overwritten
			r = resp("new", i, 2)
			segs[s] = append(segs[s], encodeRecord(k, written, kindPut, r)...)
			want[k] = r
		case 2: // evicted
			segs[s] = append(segs[s], encodeRecord(k, written, kindTombstone, llm.Response{})...)
			delete(want, k)
		}
	}
	// A torn tail in a stripe other than seg-00.log is dropped by the
	// merge.
	segs[3] = append(segs[3], encodeRecord(KeyOf("ns", "torn"), written, kindPut, resp("t", 1, 1))[:20]...)
	for s, data := range segs {
		if len(data) == 0 {
			t.Fatalf("stripe %d holds no record; pick more keys", s)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seg-%02x.log", s)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// A directory where the compaction's temp file must go makes the
	// merge fail before its rename.
	blocker := filepath.Join(dir, "seg-00.log.tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if c, err := Open(dir, Config{}); err == nil {
		c.Close()
		t.Fatal("Open succeeded although the merge could not write its temp file")
	}
	for s, data := range segs {
		got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("seg-%02x.log", s)))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("failed merge changed stripe %d (err %v)", s, err)
		}
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}

	for pass := 1; pass <= 2; pass++ {
		c, err := Open(dir, Config{})
		if err != nil {
			t.Fatalf("open %d: %v", pass, err)
		}
		if got := c.Len(); got != int64(len(want)) {
			t.Fatalf("open %d: %d entries, want %d", pass, got, len(want))
		}
		for k, r := range want {
			if got, ok := c.Get(k); !ok || got != r {
				t.Fatalf("open %d: entry %x = %+v (ok=%v), want %+v", pass, k[:4], got, ok, r)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		names, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != 1 || filepath.Base(names[0]) != "seg-00.log" {
			t.Fatalf("open %d left %v, want only seg-00.log", pass, names)
		}
	}
}
