package mqo

import (
	"time"

	"repro/internal/promptcache"
)

// PromptCache is the persistent, content-addressed prompt→response
// cache: one append-only segment file with checksummed records
// (crash-safe — a kill -9 mid-append loses at most the record being
// written), LRU/TTL eviction under an exact byte budget, and atomic
// compaction. Wire one into ExecConfig.Disk or BatchConfig.Disk, or
// set Options.CacheDir and let Optimize manage it. It is also what a
// stopped batch resumes from: a re-run over the same cache answers
// every prompt already bought from disk, at the tokens it cost.
type PromptCache = promptcache.Cache

// PromptCacheConfig tunes OpenPromptCache (byte budget, TTL).
type PromptCacheConfig = promptcache.Config

// PromptCacheStats snapshots cache activity: hits, misses, evictions,
// live entries and bytes. The same numbers are exported as the
// mqo_cache_* metrics.
type PromptCacheStats = promptcache.Stats

// CacheKey is the 32-byte content address of one (namespace, prompt)
// pair.
type CacheKey = promptcache.Key

// OpenPromptCache creates or reopens a persistent prompt cache rooted
// at dir, replaying its segment files and truncating any torn tail
// left by a crash.
func OpenPromptCache(dir string, cfg PromptCacheConfig) (*PromptCache, error) {
	return promptcache.Open(dir, cfg)
}

// CacheNamespace derives the cache namespace for a predictor: its
// identity (model name plus answer-function seed when exposed) and the
// prompt-template version — exactly the axes on which cached answers
// invalidate.
func CacheNamespace(p Predictor) string { return promptcache.Namespace(p) }

// CacheKeyOf addresses one prompt within one namespace.
func CacheKeyOf(namespace, promptText string) CacheKey {
	return promptcache.KeyOf(namespace, promptText)
}

// CachingPredictor fronts any predictor with a persistent cache: hits
// answer from disk, misses query the inner predictor and persist the
// answer. llmserve uses this server-side so repeated prompts cost zero
// predictor work across restarts.
func CachingPredictor(p Predictor, c *PromptCache) Predictor {
	return promptcache.Wrap(p, c)
}

// DefaultCacheTTL is a reasonable expiry for long-lived caches fronting
// live backends; simulator-backed caches can use 0 (never expire).
const DefaultCacheTTL = 30 * 24 * time.Hour
