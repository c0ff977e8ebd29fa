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
//   - One segment under one lock. The cache is one append-only file,
//     seg-00.log, and one mutex guards it together with the in-memory
//     index, LRU list and counters, so every paid answer has one home
//     and the byte budget is exact.
//   - Crash-safe append-only segment. A record is
//     [4B payload length][4B CRC32][payload]; replay on reopen stops at
//     the first record whose length or checksum does not validate and
//     truncates the tail, so a kill -9 mid-append loses at most the
//     record being written, never the cache.
//   - Bounded by bytes, not entries. The live records never exceed
//     MaxBytes; eviction is LRU (tombstones make it durable) and TTL
//     expiry is applied at read and replay time. When dead bytes make
//     up more than half the segment it is compacted by atomic rename,
//     which rewrites the whole cache under the lock.
//
// Live entries are kept in memory (the byte budget bounds that too), so
// Get never touches the disk; the segment file is the durability
// layer, not the read path. It is also the record a stopped batch
// resumes from: re-running a request list over the same cache answers
// every prompt already bought from disk, with the tokens it cost.
package promptcache

import (
	"container/list"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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
	// MaxBytes bounds the live record bytes (header + payload); 0
	// means unbounded. A Put that takes the cache past it evicts least
	// recently used entries until the live set fits again, so the
	// bound is exact: room for k records holds k. The entry just
	// written always stays, even when it alone is larger.
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

// Cache is a persistent prompt→response cache: one segment file, and
// the in-memory index, LRU list and counters that mirror it, all under
// one mutex. All methods are safe for concurrent use.
type Cache struct {
	path string // the segment file, <dir>/seg-00.log
	cfg  Config
	rec  obs.Recorder

	mu        sync.Mutex
	f         *os.File // nil once closed
	index     map[Key]*entry
	lru       *list.List // front = most recently used; values are Keys
	live      int64      // live record bytes
	fileBytes int64      // segment file bytes, live and dead
	stats     Stats      // Hits, Misses and Evictions; Stats fills the rest
}

// Open creates or reopens the cache rooted at dir. The segment file
// is replayed; a torn tail (crash mid-append) is truncated and the
// rest of the cache is kept. A directory written by an earlier,
// striped version of this package holds seg-00.log through seg-07.log:
// Open replays them all, writes the live set into seg-00.log through
// compaction and only then removes the others, so a crash before the
// rename leaves the old files as they were.
func Open(dir string, cfg Config) (*Cache, error) {
	if dir == "" {
		return nil, errors.New("promptcache: empty directory")
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
	c := &Cache{
		path: filepath.Join(dir, segmentName), cfg: cfg, rec: obs.Active(cfg.Obs),
		index: make(map[Key]*entry), lru: list.New(),
	}
	// Other segments hold the keys an earlier version striped away
	// from seg-00.log; each key lives in exactly one file.
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("promptcache: %w", err)
	}
	var others []string
	for _, de := range files {
		if n := de.Name(); n != segmentName && strings.HasPrefix(n, "seg-") && strings.HasSuffix(n, ".log") {
			others = append(others, filepath.Join(dir, n))
		}
	}
	if err := c.load(others); err != nil {
		return nil, err
	}
	if c.live > 0 {
		c.rec.Set(metricCacheBytes, float64(c.live))
	}
	return c, nil
}

// Get returns the cached response for k, if present and unexpired.
// A hit refreshes the entry's LRU position.
func (c *Cache) Get(k Key) (llm.Response, bool) {
	c.mu.Lock()
	e, hit := c.index[k]
	expired := hit && c.expired(e)
	if expired {
		// Drop it from the index only: replay applies the same TTL
		// check, so the stale record cannot resurrect.
		c.drop(k)
		c.rec.Set(metricCacheBytes, float64(c.live))
		c.stats.Evictions++
		hit = false
	}
	if hit {
		c.lru.MoveToFront(e.elem)
		c.stats.Hits++
	} else {
		c.stats.Misses++
	}
	c.mu.Unlock()
	if expired {
		c.rec.Add(metricCacheEvictions, 1, "reason", "expired")
	}
	if !hit {
		c.rec.Add(metricCacheMisses, 1)
		return llm.Response{}, false
	}
	c.rec.Add(metricCacheHits, 1)
	return e.resp, true // an entry is never modified, only replaced
}

// Contains reports whether k is cached and unexpired, without touching
// LRU order or the hit/miss counters — the planner's lookup for
// cache-aware budgeting must not skew the operational stats.
func (c *Cache) Contains(k Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.index[k]
	return ok && !c.expired(e)
}

// Put stores (or replaces) the response for k. The record is appended
// to the segment before the index is updated; LRU eviction and
// compaction run under the same lock.
func (c *Cache) Put(k Key, resp llm.Response) error {
	written := c.cfg.now()
	rec := encodeRecord(k, written, kindPut, resp)
	c.mu.Lock()
	evicted, err := c.put(k, resp, written, rec)
	c.mu.Unlock()
	if evicted > 0 {
		c.rec.Add(metricCacheEvictions, float64(evicted), "reason", "lru")
	}
	return err
}

// Stats snapshots the cache counters. Entries and Bytes are read from
// the index, so they reconcile exactly with its state.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.stats
	out.Entries, out.Bytes = int64(len(c.index)), c.live
	return out
}

// Len returns the number of live entries.
func (c *Cache) Len() int64 { return c.Stats().Entries }

// Compact rewrites the segment to contain only live records,
// reclaiming tombstone and overwrite garbage, through a temp file and
// an atomic rename: a crash during compaction leaves either the old or
// the new segment, never a mix.
func (c *Cache) Compact() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return c.errClosed()
	}
	return c.compact()
}

// Close syncs and closes the segment file. The cache must not be used
// afterwards; closing twice is a no-op.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.f.Sync()
	if cerr := c.f.Close(); err == nil {
		err = cerr
	}
	c.f = nil
	return err
}
