// Package promptcache is a persistent, content-addressed prompt →
// response cache. The paper's whole premise is that multi-query
// workloads share token-level work: common neighbor text, identical
// prompts, repeated plans across runs. batch.Executor keeps no answers
// of its own: it looks every request up in this store before paying
// for a call and writes each fresh answer through, so a prompt asked
// again — later in a run or in a later process — is answered from disk,
// and a repeated `mqorun` pays only for tokens it has never bought
// before.
//
// Design:
//
//   - Content addressing. A cache key is SHA-256 of the namespace (the
//     predictor's identity — model name plus its answer-function seed —
//     and the prompt-template version) and the full prompt text. Any
//     change to the model, its seed, or the prompt template changes the
//     key, so stale answers can never be served across an upgrade.
//   - Sharding with lock striping. Keys are spread across N segment
//     files by their first key byte; each shard has its own mutex, file
//     handle, index and LRU list, so concurrent workers rarely contend.
//   - Crash-safe append-only segments. A record is
//     [4B payload length][4B CRC32][payload]; replay on reopen stops at
//     the first record whose length or checksum does not validate and
//     truncates the tail, so a kill -9 mid-append loses at most the
//     record being written, never the cache.
//   - Bounded by bytes, not entries. Each shard holds MaxBytes/shards
//     of live records; eviction is LRU (tombstones make it durable) and
//     TTL expiry is applied at read and replay time. When dead bytes
//     dominate a segment it is compacted by atomic rename.
//
// Live entries are kept in memory (the byte budget bounds that too), so
// Get never touches the disk; the segment files are the durability
// layer, not the read path.
package promptcache

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/prompt"
)

// Metric names emitted by the cache; the full catalog lives in
// README.md ("Observability").
const (
	metricCacheHits      = "mqo_cache_hits_total"
	metricCacheMisses    = "mqo_cache_misses_total"
	metricCacheEvictions = "mqo_cache_evictions_total"
	metricCacheBytes     = "mqo_cache_bytes"
)

// Key is the 32-byte content address of one (namespace, prompt) pair.
type Key [sha256.Size]byte

// KeyOf addresses one prompt within one namespace. The namespace and
// prompt are length-separated before hashing so no (ns, prompt) pair
// can collide with a different split of the same bytes.
func KeyOf(namespace, promptText string) Key {
	h := sha256.New()
	fmt.Fprintf(h, "%d\x00", len(namespace))
	h.Write([]byte(namespace))
	h.Write([]byte{0})
	h.Write([]byte(promptText))
	var k Key
	h.Sum(k[:0])
	return k
}

// Namespace derives the cache namespace for a predictor: its identity
// (llm.Identifier when implemented, which folds in the answer-function
// seed; Name otherwise) plus the prompt-template version. These are
// exactly the invalidation axes — a different model, a reseeded
// simulator, or a template change each produce a disjoint key space.
func Namespace(p llm.Predictor) string {
	return NamespaceVersion(llm.IdentityOf(p), prompt.TemplateVersion)
}

// NamespaceVersion is Namespace for a predictor identity (see
// llm.IdentityOf) with an explicit template version — the hook for
// layers that rewrite prompt bytes, like the compression stage, whose
// prompt.Compressor.TemplateVersion() names the template generation it
// produces (e.g. "v2+c2"). Every compression configuration owns a
// disjoint key space, so a cached answer bought with compressed bytes
// can never be replayed for the uncompressed prompt or for a different
// compression level.
func NamespaceVersion(identity, version string) string {
	return identity + "|tmpl=" + version
}

// Config tunes a Cache.
type Config struct {
	// Shards is the number of segment files and lock stripes
	// (default 8, max 256). More shards mean less lock contention and
	// smaller per-file replay/compaction units.
	Shards int
	// MaxBytes bounds the live bytes across all shards; 0 means
	// unbounded. Each shard enforces MaxBytes/Shards with LRU eviction.
	MaxBytes int64
	// TTL expires entries this long after they were written; 0 means
	// entries never expire. Expired entries count as misses and are
	// dropped at replay.
	TTL time.Duration
	// Obs receives cache metrics (hits, misses, evictions, live bytes);
	// nil routes to the process-default recorder.
	Obs obs.Recorder

	// now overrides the clock in tests.
	now func() time.Time
}

// Stats is a point-in-time snapshot of cache activity since Open.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64 // LRU evictions + TTL expiries
	Entries   int64
	Bytes     int64 // live record bytes (header + payload)
}

// Cache is a persistent prompt→response cache. All methods are safe
// for concurrent use.
type Cache struct {
	dir    string
	cfg    Config
	rec    obs.Recorder
	shards []*shard

	mu     sync.Mutex // guards closed
	closed bool

	stats struct {
		sync.Mutex
		s Stats
	}
}

// Open creates or reopens the cache rooted at dir. Existing segment
// files are replayed; a torn tail (crash mid-append) is truncated and
// the rest of the cache is kept.
func Open(dir string, cfg Config) (*Cache, error) {
	if dir == "" {
		return nil, errors.New("promptcache: empty directory")
	}
	if cfg.Shards == 0 {
		cfg.Shards = 8
	}
	if cfg.Shards < 1 || cfg.Shards > 256 {
		return nil, fmt.Errorf("promptcache: shards %d outside [1,256]", cfg.Shards)
	}
	if cfg.MaxBytes < 0 || cfg.TTL < 0 {
		return nil, fmt.Errorf("promptcache: negative MaxBytes or TTL")
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("promptcache: %w", err)
	}
	c := &Cache{dir: dir, cfg: cfg, rec: obs.Active(cfg.Obs)}
	perShard := int64(0)
	if cfg.MaxBytes > 0 {
		perShard = cfg.MaxBytes / int64(cfg.Shards)
		if perShard == 0 {
			perShard = 1 // degenerate budgets still evict rather than divide to "unbounded"
		}
	}
	c.shards = make([]*shard, cfg.Shards)
	for i := range c.shards {
		s, recovered, err := openShard(filepath.Join(dir, fmt.Sprintf("seg-%02x.log", i)), perShard, cfg.TTL, cfg.now)
		if err != nil {
			for _, prev := range c.shards[:i] {
				prev.close()
			}
			return nil, err
		}
		c.shards[i] = s
		c.addBytes(recovered)
	}
	return c, nil
}

// shardFor maps a key to its lock stripe.
func (c *Cache) shardFor(k Key) *shard {
	return c.shards[int(k[0])%len(c.shards)]
}

// addBytes updates the live-byte accounting and gauge.
func (c *Cache) addBytes(delta int64) {
	if delta == 0 {
		return
	}
	c.stats.Lock()
	c.stats.s.Bytes += delta
	// Gauge update stays under the lock so concurrent deltas cannot
	// publish out of order and leave the gauge stale.
	c.rec.Set(metricCacheBytes, float64(c.stats.s.Bytes))
	c.stats.Unlock()
}

// Get returns the cached response for k, if present and unexpired.
// A hit refreshes the entry's LRU position.
func (c *Cache) Get(k Key) (llm.Response, bool) {
	s := c.shardFor(k)
	resp, evictedBytes, expired, ok := s.get(k)
	c.addBytes(-evictedBytes)
	if expired {
		c.bumpEvictions(1, "expired")
	}
	if !ok {
		c.stats.Lock()
		c.stats.s.Misses++
		c.stats.Unlock()
		c.rec.Add(metricCacheMisses, 1)
		return llm.Response{}, false
	}
	c.stats.Lock()
	c.stats.s.Hits++
	c.stats.Unlock()
	c.rec.Add(metricCacheHits, 1)
	return resp, true
}

// Contains reports whether k is cached and unexpired, without touching
// LRU order or the hit/miss counters — the planner's lookup for
// cache-aware budgeting must not skew the operational stats.
func (c *Cache) Contains(k Key) bool {
	return c.shardFor(k).contains(k)
}

// Put stores (or replaces) the response for k. The write is appended
// to the shard's segment before the index is updated; LRU eviction and
// compaction run under the same shard lock.
func (c *Cache) Put(k Key, resp llm.Response) error {
	s := c.shardFor(k)
	delta, evicted, err := s.put(k, resp)
	c.addBytes(delta)
	c.bumpEvictions(evicted, "lru")
	return err
}

// bumpEvictions updates eviction accounting.
func (c *Cache) bumpEvictions(n int64, reason string) {
	if n == 0 {
		return
	}
	c.stats.Lock()
	c.stats.s.Evictions += n
	c.stats.Unlock()
	c.rec.Add(metricCacheEvictions, float64(n), "reason", reason)
}

// Stats snapshots the cache counters. Entries and Bytes are recomputed
// from the shards so they reconcile exactly with the index state.
func (c *Cache) Stats() Stats {
	c.stats.Lock()
	out := c.stats.s
	c.stats.Unlock()
	out.Entries, out.Bytes = 0, 0
	for _, s := range c.shards {
		n, b := s.size()
		out.Entries += n
		out.Bytes += b
	}
	return out
}

// Len returns the number of live entries.
func (c *Cache) Len() int64 { return c.Stats().Entries }

// Compact rewrites every shard's segment to contain only live records,
// reclaiming tombstone and overwrite garbage. Each shard compacts
// atomically (temp file + rename) under its own lock; a crash during
// compaction leaves either the old or the new segment, never a mix.
func (c *Cache) Compact() error {
	var firstErr error
	for _, s := range c.shards {
		if err := s.compactNow(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close flushes and closes every segment file. The cache must not be
// used afterwards.
func (c *Cache) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	var firstErr error
	for _, s := range c.shards {
		if err := s.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
