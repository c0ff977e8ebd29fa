package promptcache

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/llm"
)

// FuzzSegmentReplay hardens crash recovery against arbitrary segment
// contents: any byte string — valid segments, truncations thereof,
// bit-flipped records, pure garbage — must replay without panicking,
// must recover exactly the records whose framing and checksum validate,
// and must leave the reopened cache appendable. This is the kill -9
// contract: whatever state a crash leaves on disk, Open never corrupts
// or loses checksum-valid data.
func FuzzSegmentReplay(f *testing.F) {
	rec := func(ns, p, cat, text string) []byte {
		return encodeRecord(KeyOf(ns, p), time.Unix(1000, 0), kindPut,
			llm.Response{Text: text, Category: cat, InputTokens: 5, OutputTokens: 2})
	}
	one := rec("ns", "a", "K", "Category: ['K']")
	two := append(append([]byte{}, one...), rec("ns", "b", "L", "Category: ['L']")...)
	tomb := encodeRecord(KeyOf("ns", "a"), time.Unix(2000, 0), kindTombstone, llm.Response{})

	f.Add([]byte{})
	f.Add(one)
	f.Add(two)
	f.Add(two[:len(two)-3]) // torn tail
	f.Add(append(append([]byte{}, two...), tomb...))
	f.Add([]byte("not a segment at all"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	mut := append([]byte{}, two...)
	mut[len(one)+recordHeaderSize+10] ^= 0x01 // corrupt second record's payload
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, good := replay(data)
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good offset %d outside [0,%d]", good, len(data))
		}
		// The valid prefix must re-replay to the same records: replay is
		// deterministic and self-delimiting.
		again, againGood := replay(data[:good])
		if againGood != good || len(again) != len(recs) {
			t.Fatalf("prefix replay diverged: %d/%d records, offset %d/%d",
				len(again), len(recs), againGood, good)
		}

		// Opening a cache over this exact byte string must never panic,
		// must surface every checksum-valid put not superseded by a later
		// record, and must stay writable.
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-00.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(dir, Config{})
		if err != nil {
			t.Fatalf("Open on fuzzed segment: %v", err)
		}
		defer c.Close()

		want := map[Key]record{}
		for _, r := range recs {
			if r.kind == kindTombstone {
				delete(want, r.key)
				continue
			}
			want[r.key] = r
		}
		if got := c.Len(); got != int64(len(want)) {
			t.Fatalf("recovered %d entries, want %d", got, len(want))
		}
		for k, r := range want {
			got, ok := c.Get(k)
			if !ok {
				t.Fatalf("checksum-valid record %x lost", k[:4])
			}
			if got != r.resp {
				t.Fatalf("record %x corrupted: got %+v want %+v", k[:4], got, r.resp)
			}
		}

		// The cache must accept appends after recovery, and the append
		// must survive another reopen together with the recovered set.
		extra := KeyOf("fuzz", "post-recovery")
		if err := c.Put(extra, llm.Response{Text: "x", Category: "X", InputTokens: 1, OutputTokens: 1}); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		c.Close()
		c2, err := Open(dir, Config{})
		if err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		defer c2.Close()
		if _, ok := c2.Get(extra); !ok {
			t.Fatal("post-recovery append lost on reopen")
		}
		for k := range want {
			if _, ok := c2.Get(k); !ok && k != extra {
				t.Fatalf("recovered record %x lost after append+reopen", k[:4])
			}
		}
	})
}
