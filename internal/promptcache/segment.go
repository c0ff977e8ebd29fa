package promptcache

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
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

// entry is one live cache entry, held in memory; the segment file is
// its durable copy.
type entry struct {
	resp    llm.Response
	written time.Time
	size    int64
	elem    *list.Element // list value is the Key
}

// shard is one lock stripe: a segment file plus its in-memory index.
type shard struct {
	mu        sync.Mutex
	path      string
	f         *os.File
	budget    int64 // live-byte budget; 0 = unbounded
	ttl       time.Duration
	now       func() time.Time
	index     map[Key]*entry
	lru       *list.List // front = most recently used
	live      int64      // live record bytes
	fileBytes int64      // total segment file bytes
}

// openShard opens (or creates) one segment, replays it, truncates any
// torn tail, drops expired entries, and enforces the byte budget.
func openShard(path string, budget int64, ttl time.Duration, now func() time.Time) (*shard, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, 0, fmt.Errorf("promptcache: reading %s: %w", path, err)
	}
	recs, good := replay(data)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("promptcache: opening %s: %w", path, err)
	}
	if int64(len(data)) > good {
		// Torn tail from a crash mid-append: cut it so the next append
		// starts a clean frame.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("promptcache: truncating torn tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("promptcache: seeking %s: %w", path, err)
	}
	s := &shard{
		path: path, f: f, budget: budget, ttl: ttl, now: now,
		index: make(map[Key]*entry), lru: list.New(), fileBytes: good,
	}
	t := now()
	for _, r := range recs {
		if old, ok := s.index[r.key]; ok {
			s.lru.Remove(old.elem)
			s.live -= old.size
			delete(s.index, r.key)
		}
		if r.kind == kindTombstone {
			continue
		}
		if ttl > 0 && t.Sub(r.written) > ttl {
			continue
		}
		e := &entry{resp: r.resp, written: r.written, size: r.size}
		e.elem = s.lru.PushFront(r.key)
		s.index[r.key] = e
		s.live += r.size
	}
	// Over-budget after replay (the budget shrank, or expiries changed
	// the balance): evict oldest-first, then compact away the garbage
	// instead of appending tombstones for entries we are about to drop.
	evicted := false
	for s.budget > 0 && s.live > s.budget && s.lru.Len() > 1 {
		back := s.lru.Back()
		s.dropLocked(back.Value.(Key))
		evicted = true
	}
	if evicted || s.garbageHeavy() {
		if err := s.compactLocked(); err != nil {
			f.Close()
			return nil, 0, err
		}
	}
	return s, s.live, nil
}

// dropLocked removes a key from the in-memory index only. Callers must
// make the removal durable (tombstone or compaction).
func (s *shard) dropLocked(k Key) {
	e, ok := s.index[k]
	if !ok {
		return
	}
	s.lru.Remove(e.elem)
	s.live -= e.size
	delete(s.index, k)
}

// get looks up k. It reports the entry, the bytes released by a TTL expiry (0 otherwise), whether an expiry happened,
// and whether the lookup hit.
func (s *shard) get(k Key) (resp llm.Response, evictedBytes int64, expired, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, found := s.index[k]
	if !found {
		return llm.Response{}, 0, false, false
	}
	if s.ttl > 0 && s.now().Sub(e.written) > s.ttl {
		// Expired: drop it from the index only. Replay re-applies the
		// same TTL check, so the stale record cannot resurrect.
		size := e.size
		s.dropLocked(k)
		return llm.Response{}, size, true, false
	}
	s.lru.MoveToFront(e.elem)
	return e.resp, 0, false, true
}

// contains reports presence without touching LRU order.
func (s *shard) contains(k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[k]
	if !ok {
		return false
	}
	if s.ttl > 0 && s.now().Sub(e.written) > s.ttl {
		return false
	}
	return true
}

// size reports live entries and bytes.
func (s *shard) size() (entries, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.index)), s.live
}

// put appends a record for k, updates the index, and evicts LRU
// entries past the byte budget. It returns the net change in live
// bytes and the number of evictions.
func (s *shard) put(k Key, resp llm.Response) (deltaLive int64, evicted int64, err error) {
	written := s.now()
	rec := encodeRecord(k, written, kindPut, resp)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return 0, 0, fmt.Errorf("promptcache: %s: cache is closed", s.path)
	}
	if err := s.append(rec); err != nil {
		return 0, 0, err
	}
	before := s.live
	if old, ok := s.index[k]; ok {
		s.lru.Remove(old.elem)
		s.live -= old.size
	}
	e := &entry{resp: resp, written: written, size: int64(len(rec))}
	e.elem = s.lru.PushFront(k)
	s.index[k] = e
	s.live += e.size
	// LRU eviction: shed oldest entries until the live set fits the
	// budget. The entry just written always survives — a single record
	// larger than the whole budget must still be usable, otherwise a
	// degenerate budget turns the cache into a black hole.
	for s.budget > 0 && s.live > s.budget && s.lru.Len() > 1 {
		back := s.lru.Back()
		victim := back.Value.(Key)
		ts := encodeRecord(victim, s.now(), kindTombstone, llm.Response{})
		if err := s.append(ts); err != nil {
			return s.live - before, evicted, err
		}
		s.dropLocked(victim)
		evicted++
	}
	if s.garbageHeavy() {
		if err := s.compactLocked(); err != nil {
			return s.live - before, evicted, err
		}
	}
	return s.live - before, evicted, nil
}

// append writes one framed record to the segment file.
func (s *shard) append(rec []byte) error {
	if _, err := s.f.Write(rec); err != nil {
		return fmt.Errorf("promptcache: appending to %s: %w", s.path, err)
	}
	s.fileBytes += int64(len(rec))
	return nil
}

// garbageHeavy reports whether dead bytes (overwrites + tombstones)
// dominate the segment enough to be worth rewriting.
func (s *shard) garbageHeavy() bool {
	return s.fileBytes > 4096 && s.fileBytes > 2*s.live
}

// compactNow compacts under the shard lock.
func (s *shard) compactNow() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("promptcache: %s: cache is closed", s.path)
	}
	return s.compactLocked()
}

// compactLocked rewrites the segment to contain exactly the live
// entries, oldest first (so replay rebuilds the same LRU order), and
// atomically renames it into place. A crash mid-compaction leaves the
// old segment untouched.
func (s *shard) compactLocked() error {
	tmpPath := s.path + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("promptcache: compacting %s: %w", s.path, err)
	}
	var written int64
	for el := s.lru.Back(); el != nil; el = el.Prev() {
		k := el.Value.(Key)
		e := s.index[k]
		rec := encodeRecord(k, e.written, kindPut, e.resp)
		if _, err := tmp.Write(rec); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return fmt.Errorf("promptcache: compacting %s: %w", s.path, err)
		}
		written += int64(len(rec))
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("promptcache: compacting %s: %w", s.path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("promptcache: compacting %s: %w", s.path, err)
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("promptcache: compacting %s: %w", s.path, err)
	}
	old := s.f
	f, err := os.OpenFile(s.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("promptcache: reopening %s after compaction: %w", s.path, err)
	}
	old.Close()
	s.f = f
	s.fileBytes = written
	return nil
}

// close syncs and closes the segment file.
func (s *shard) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}
