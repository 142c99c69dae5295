package blob

import (
	"bytes"
	"fmt"
	"testing"
)

func TestBlockCacheHitMiss(t *testing.T) {
	c := NewBlockCache(1 << 20)
	if got := c.Get("seg1", 7, 0); got != nil {
		t.Fatalf("Get on empty cache = %v, want nil", got)
	}
	data := []byte("block-bytes")
	c.Put("seg1", 7, 0, data)
	got := c.Get("seg1", 7, 0)
	if !bytes.Equal(got, data) {
		t.Fatalf("Get after Put = %q, want %q", got, data)
	}
	// Distinct (seg, term, block) coordinates are distinct entries.
	if c.Get("seg1", 7, 1) != nil || c.Get("seg1", 8, 0) != nil || c.Get("seg2", 7, 0) != nil {
		t.Fatal("neighboring coordinates should miss")
	}
	// Get is a probe; hits and misses are what a reader reports.
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("probes counted %d hits, %d misses", st.Hits, st.Misses)
	}
	c.needed(1, 4)
	st := c.Stats()
	if st.Hits != 1 {
		t.Errorf("Hits = %d, want 1", st.Hits)
	}
	if st.Misses != 4 {
		t.Errorf("Misses = %d, want 4", st.Misses)
	}
	if st.Entries != 1 || st.Bytes != int64(len(data)) {
		t.Errorf("Entries/Bytes = %d/%d, want 1/%d", st.Entries, st.Bytes, len(data))
	}
	if hr := st.HitRate(); hr != 0.2 {
		t.Errorf("HitRate = %v, want 0.2", hr)
	}
}

func TestBlockCacheEviction(t *testing.T) {
	// Budget is split across 16 shards; pin everything to one shard by
	// using one (seg, term) and varying only the block so LRU order within
	// a shard is observable... blocks of the same term can land on
	// different shards too, so instead just verify the global invariant:
	// total bytes never exceed the budget and evictions are counted.
	const budget = 16 * 1024 // 1 KiB per shard
	c := NewBlockCache(budget)
	block := make([]byte, 256)
	for i := 0; i < 1000; i++ {
		c.Put("seg", int32(i), 0, block)
	}
	st := c.Stats()
	if st.Bytes > budget {
		t.Fatalf("cache holds %d bytes, budget %d", st.Bytes, budget)
	}
	if st.Evictions == 0 {
		t.Fatal("expected evictions after inserting 256000 bytes into a 16 KiB cache")
	}
	if st.BytesFetched != 1000*256 {
		t.Fatalf("BytesFetched = %d, want %d", st.BytesFetched, 1000*256)
	}
}

func TestBlockCacheOversizedBlock(t *testing.T) {
	c := NewBlockCache(16 * 100) // 100 bytes per shard
	big := make([]byte, 200)
	c.Put("seg", 1, 0, big)
	if c.Get("seg", 1, 0) != nil {
		t.Fatal("oversized block should not be cached")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("Entries = %d, want 0", st.Entries)
	}
}

func TestBlockCacheInvalidateExcept(t *testing.T) {
	c := NewBlockCache(1 << 20)
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("seg%d", i%2), int32(i), 0, []byte("x"))
	}
	removed := c.InvalidateExcept(map[string]bool{"seg0": true})
	if removed != 5 {
		t.Fatalf("InvalidateExcept removed %d entries, want 5", removed)
	}
	for i := 0; i < 10; i++ {
		got := c.Get(fmt.Sprintf("seg%d", i%2), int32(i), 0)
		if i%2 == 0 && got == nil {
			t.Errorf("live entry seg0/%d was evicted", i)
		}
		if i%2 == 1 && got != nil {
			t.Errorf("stale entry seg1/%d survived", i)
		}
	}
	if st := c.Stats(); st.Entries != 5 {
		t.Fatalf("Entries = %d, want 5", st.Entries)
	}
}

func TestBlockCacheLRUOrder(t *testing.T) {
	// A single shard holds two 100-byte blocks; touching the older one
	// must make the newer one the eviction victim. Find three block
	// coordinates that map to the same shard by probing with a throwaway
	// cache, exploiting that Put/Get only interact within one shard.
	probe := NewBlockCache(16 * 1024)
	var coords []int32
	probe.Put("s", 0, 0, []byte("x"))
	for i := int32(1); len(coords) < 2 && i < 1000; i++ {
		// Same shard iff evicting pressure applies; cheaper: compare via
		// the unexported shard index is not possible, so use a 1-entry
		// budget trick: insert candidate; if the original got evicted they
		// share a shard.
		small := NewBlockCache(16 * 8) // 8 bytes per shard: one entry max
		small.Put("s", 0, 0, []byte("abcd"))
		small.Put("s", i, 0, []byte("efgh"))
		if small.Get("s", 0, 0) == nil && small.Get("s", i, 0) != nil {
			coords = append(coords, i)
		}
	}
	if len(coords) < 2 {
		t.Skip("could not find co-sharded coordinates")
	}
	c := NewBlockCache(16 * 220) // 220 bytes per shard: two 100-byte blocks
	b := make([]byte, 100)
	c.Put("s", 0, 0, b)
	c.Put("s", coords[0], 0, b)
	c.Get("s", 0, 0) // refresh the older entry
	c.Put("s", coords[1], 0, b)
	if c.Get("s", 0, 0) == nil {
		t.Error("recently used entry was evicted")
	}
	if c.Get("s", coords[0], 0) != nil {
		t.Error("least recently used entry survived")
	}
}
