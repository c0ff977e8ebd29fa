package promptcache

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"repro/internal/llm"
)

// Segment record layout (little-endian):
//
//	[4B payload length][4B CRC32(payload)][payload]
//	payload = key(32) | writtenAt int64 | kind byte |
//	          inputTokens uint32 | outputTokens uint32 |
//	          categoryLen uint16 | category | text...
//
// Records are append-only; an overwrite appends a fresh record and an
// eviction appends a tombstone (kind 1), so the file is always a valid
// prefix plus at most one torn record. Replay applies records in file
// order — later records supersede earlier ones — and stops at the
// first frame whose length or checksum fails to validate, truncating
// the tail. That is exactly the state a kill -9 mid-append leaves
// behind, which is why reopening after a crash can lose at most the
// record being written.

const (
	recordHeaderSize = 8
	// payloadFixedSize is the payload size before the variable-length
	// category and text fields.
	payloadFixedSize = 32 + 8 + 1 + 4 + 4 + 2
	// maxPayloadSize rejects absurd frame lengths during replay before
	// any allocation: prompts and responses are far below 64 MiB, so a
	// bigger length is framing garbage, not data.
	maxPayloadSize = 64 << 20

	kindPut       = 0
	kindTombstone = 1
)

// encodeRecord frames one record. Tombstones carry an empty response.
func encodeRecord(k Key, written time.Time, kind byte, resp llm.Response) []byte {
	if len(resp.Category) > 1<<16-1 {
		resp.Category = resp.Category[:1<<16-1] // cannot round-trip; keep the frame valid
	}
	n := payloadFixedSize + len(resp.Category) + len(resp.Text)
	buf := make([]byte, recordHeaderSize+n)
	p := buf[recordHeaderSize:]
	copy(p[:32], k[:])
	binary.LittleEndian.PutUint64(p[32:], uint64(written.UnixNano()))
	p[40] = kind
	binary.LittleEndian.PutUint32(p[41:], uint32(resp.InputTokens))
	binary.LittleEndian.PutUint32(p[45:], uint32(resp.OutputTokens))
	binary.LittleEndian.PutUint16(p[49:], uint16(len(resp.Category)))
	copy(p[payloadFixedSize:], resp.Category)
	copy(p[payloadFixedSize+len(resp.Category):], resp.Text)
	binary.LittleEndian.PutUint32(buf[0:], uint32(n))
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(p))
	return buf
}

// record is one decoded segment record.
type record struct {
	key     Key
	written time.Time
	kind    byte
	resp    llm.Response
	size    int64 // on-disk size including header
}

// decodePayload parses a checksum-validated payload; ok is false when
// the payload's internal structure is inconsistent with its length.
func decodePayload(p []byte) (record, bool) {
	if len(p) < payloadFixedSize {
		return record{}, false
	}
	var r record
	copy(r.key[:], p[:32])
	r.written = time.Unix(0, int64(binary.LittleEndian.Uint64(p[32:])))
	r.kind = p[40]
	if r.kind > kindTombstone {
		return record{}, false
	}
	r.resp.InputTokens = int(binary.LittleEndian.Uint32(p[41:]))
	r.resp.OutputTokens = int(binary.LittleEndian.Uint32(p[45:]))
	catLen := int(binary.LittleEndian.Uint16(p[49:]))
	if payloadFixedSize+catLen > len(p) {
		return record{}, false
	}
	r.resp.Category = string(p[payloadFixedSize : payloadFixedSize+catLen])
	r.resp.Text = string(p[payloadFixedSize+catLen:])
	r.size = int64(recordHeaderSize + len(p))
	return r, true
}

// replay decodes records from data, returning them in file order plus
// the byte offset of the valid prefix. It never fails: anything after
// the first unverifiable frame is a torn tail to be truncated.
func replay(data []byte) (recs []record, goodOffset int64) {
	off := 0
	for {
		if len(data)-off < recordHeaderSize {
			return recs, int64(off)
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n < payloadFixedSize || n > maxPayloadSize || len(data)-off-recordHeaderSize < n {
			return recs, int64(off)
		}
		sum := binary.LittleEndian.Uint32(data[off+4:])
		payload := data[off+recordHeaderSize : off+recordHeaderSize+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, int64(off)
		}
		r, ok := decodePayload(payload)
		if !ok {
			return recs, int64(off)
		}
		recs = append(recs, r)
		off += recordHeaderSize + n
	}
}

// segmentName is the one segment file in a cache directory.
const segmentName = "seg-00.log"

// entry is one live cache entry, held in memory; the segment file is
// its durable copy.
type entry struct {
	resp    llm.Response
	written time.Time
	size    int64
	elem    *list.Element // list value is the Key
}

// load opens (or creates) the segment, replays it and then the legacy
// segments in others, truncates the segment's torn tail, drops
// expired entries and enforces the byte budget. When others is not
// empty, or eviction or dead bytes call for it, the live set is
// compacted into the segment; the legacy files are removed only after
// that rename.
func (c *Cache) load(others []string) (err error) {
	data, err := os.ReadFile(c.path)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("promptcache: reading %s: %w", c.path, err)
	}
	recs, good := replay(data)
	f, err := os.OpenFile(c.path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("promptcache: opening %s: %w", c.path, err)
	}
	c.f, c.fileBytes = f, good
	defer func() {
		if err != nil {
			c.f.Close()
		}
	}()
	if int64(len(data)) > good {
		// Torn tail from a crash mid-append: cut it so the next append
		// starts a clean frame.
		if err := f.Truncate(good); err != nil {
			return fmt.Errorf("promptcache: truncating torn tail of %s: %w", c.path, err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		return fmt.Errorf("promptcache: seeking %s: %w", c.path, err)
	}
	c.apply(recs)
	for _, path := range others {
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("promptcache: reading %s: %w", path, err)
		}
		recs, _ := replay(data)
		c.apply(recs)
	}
	// Over budget after replay (the budget shrank, or expiries changed
	// the balance): evict oldest-first, then compact away the garbage
	// instead of appending tombstones for entries about to be dropped.
	evicted := false
	for c.overBudget() {
		c.drop(c.lru.Back().Value.(Key))
		evicted = true
	}
	if len(others) > 0 || evicted || c.garbageHeavy() {
		if err := c.compact(); err != nil {
			return err
		}
	}
	for _, path := range others {
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("promptcache: removing merged segment %s: %w", path, err)
		}
	}
	return nil
}

// apply replays decoded records into the index in file order: a later
// record for a key supersedes an earlier one, a tombstone deletes it,
// and a record past its TTL is not loaded.
func (c *Cache) apply(recs []record) {
	t := c.cfg.now()
	for _, r := range recs {
		if r.kind == kindTombstone || (c.cfg.TTL > 0 && t.Sub(r.written) > c.cfg.TTL) {
			c.drop(r.key)
			continue
		}
		c.insert(r.key, &entry{resp: r.resp, written: r.written, size: r.size})
	}
}

// insert makes e the most recently used entry for k, replacing any
// entry k had.
func (c *Cache) insert(k Key, e *entry) {
	c.drop(k)
	e.elem = c.lru.PushFront(k)
	c.index[k] = e
	c.live += e.size
}

// expired reports whether e has outlived the TTL.
func (c *Cache) expired(e *entry) bool {
	return c.cfg.TTL > 0 && c.cfg.now().Sub(e.written) > c.cfg.TTL
}

// overBudget reports whether the live set exceeds MaxBytes and holds
// more than one entry: the last one standing is never evicted.
func (c *Cache) overBudget() bool {
	return c.cfg.MaxBytes > 0 && c.live > c.cfg.MaxBytes && c.lru.Len() > 1
}

// drop removes a key from the in-memory index only. Callers make the
// removal durable (tombstone or compaction) or rely on replay's TTL
// check.
func (c *Cache) drop(k Key) {
	e, ok := c.index[k]
	if !ok {
		return
	}
	c.lru.Remove(e.elem)
	c.live -= e.size
	delete(c.index, k)
}

// put appends rec, the framed record for (k, resp) written at
// written, updates the index and evicts least recently used entries
// past the byte budget, each with a tombstone. It returns the number
// of evictions. The entry just written always survives: a record
// larger than the whole budget must still be usable, or a degenerate
// budget turns the cache into a black hole.
func (c *Cache) put(k Key, resp llm.Response, written time.Time, rec []byte) (evicted int64, err error) {
	if c.f == nil {
		return 0, c.errClosed()
	}
	if err := c.append(rec); err != nil {
		return 0, err
	}
	c.insert(k, &entry{resp: resp, written: written, size: int64(len(rec))})
	for err == nil && c.overBudget() {
		victim := c.lru.Back().Value.(Key)
		if err = c.append(encodeRecord(victim, c.cfg.now(), kindTombstone, llm.Response{})); err == nil {
			c.drop(victim)
			evicted++
		}
	}
	c.stats.Evictions += evicted
	c.rec.Set(metricCacheBytes, float64(c.live))
	if err == nil && c.garbageHeavy() {
		err = c.compact()
	}
	return evicted, err
}

// append writes one framed record to the segment file.
func (c *Cache) append(rec []byte) error {
	if _, err := c.f.Write(rec); err != nil {
		return fmt.Errorf("promptcache: appending to %s: %w", c.path, err)
	}
	c.fileBytes += int64(len(rec))
	return nil
}

// garbageHeavy reports whether dead bytes (overwrites + tombstones)
// make up more than half the segment, which is when rewriting it pays.
func (c *Cache) garbageHeavy() bool {
	return c.fileBytes > 4096 && c.fileBytes > 2*c.live
}

// errClosed is the error of a write to a closed cache.
func (c *Cache) errClosed() error {
	return fmt.Errorf("promptcache: %s: cache is closed", c.path)
}

// compact rewrites the segment to contain exactly the live entries,
// oldest first (so replay rebuilds the same LRU order), and atomically
// renames it into place. A crash mid-compaction leaves the old segment
// untouched.
func (c *Cache) compact() error {
	tmpPath := c.path + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("promptcache: compacting %s: %w", c.path, err)
	}
	// fail discards the temp file; closing it twice is harmless.
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("promptcache: compacting %s: %w", c.path, err)
	}
	var written int64
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		k := el.Value.(Key)
		e := c.index[k]
		rec := encodeRecord(k, e.written, kindPut, e.resp)
		if _, err := tmp.Write(rec); err != nil {
			return fail(err)
		}
		written += int64(len(rec))
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmpPath, c.path); err != nil {
		return fail(err)
	}
	f, err := os.OpenFile(c.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("promptcache: reopening %s after compaction: %w", c.path, err)
	}
	c.f.Close()
	c.f = f
	c.fileBytes = written
	return nil
}
