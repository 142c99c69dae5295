package blob

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// BlockCache is the searcher-side cache of posting blocks: the unit of
// residency is one skipInterval-long block (or a whole short list),
// however many of them one ranged read brought in. The cache is
// byte-budgeted, not entry-budgeted — block sizes vary by two orders of
// magnitude between width-0 packed blocks and positions streams —
// and striped into shards (same pattern as the query cache in
// internal/qcache) so that concurrent query threads on different terms
// do not serialize on one mutex.
//
// Keys embed the segment's content-addressed blob key, which is what
// makes generation changes safe with no epoch bookkeeping: a republished
// segment has a different hash, hence different keys, and a reader still
// draining queries against an old generation keeps hitting its own
// entries. InvalidateExcept reclaims the budget held by generations
// nothing references anymore.

const blockCacheShards = 16

// blockKey identifies one cached block.
type blockKey struct {
	seg   string // content-addressed segment blob key
	term  int32
	block int32
}

// CacheStats is a snapshot of cache effectiveness counters, surfaced on
// the node /metrics endpoint.
type CacheStats struct {
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	BytesFetched int64 `json:"bytes_fetched"` // bytes brought in on misses
	Evictions    int64 `json:"evictions"`
	Entries      int64 `json:"entries"`
	Bytes        int64 `json:"bytes"`        // resident payload bytes
	BudgetBytes  int64 `json:"budget_bytes"` // configured capacity
}

// HitRate returns hits / (hits+misses), 0 when idle.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

type cacheShard struct {
	mu    sync.Mutex
	lru   *list.List // front = most recent; values are *cacheEntry
	index map[blockKey]*list.Element
	bytes int64
}

type cacheEntry struct {
	key  blockKey
	data []byte
}

// BlockCache is safe for concurrent use.
type BlockCache struct {
	shards [blockCacheShards]cacheShard
	budget int64 // per-cache byte budget, split evenly across shards

	hits, misses, fetched, evictions int64
}

// NewBlockCache returns a cache bounded by budgetBytes of payload.
// A zero or negative budget still caches nothing but stays safe to use.
func NewBlockCache(budgetBytes int64) *BlockCache {
	c := &BlockCache{budget: budgetBytes}
	for i := range c.shards {
		c.shards[i].lru = list.New()
		c.shards[i].index = make(map[blockKey]*list.Element)
	}
	return c
}

func (c *BlockCache) shard(k blockKey) *cacheShard {
	// FNV-1a over the key fields.
	h := uint32(2166136261)
	for i := 0; i < len(k.seg); i++ {
		h = (h ^ uint32(k.seg[i])) * 16777619
	}
	h = (h ^ uint32(k.term)) * 16777619
	h = (h ^ uint32(k.block)) * 16777619
	return &c.shards[h%blockCacheShards]
}

// Get returns the cached block, or nil when it is not resident. It is a
// probe and counts nothing: hits and misses are reported by the reader,
// once per block a query needed (see needed). The returned slice is
// shared — callers must not modify it (posting decoders only read).
func (c *BlockCache) Get(seg string, term int32, block int) []byte {
	k := blockKey{seg: seg, term: term, block: int32(block)}
	sh := c.shard(k)
	sh.mu.Lock()
	el, ok := sh.index[k]
	if ok {
		sh.lru.MoveToFront(el)
	}
	sh.mu.Unlock()
	if !ok {
		return nil
	}
	return el.Value.(*cacheEntry).data
}

// needed counts blocks a query needed: hits were resident when the
// query first asked for them, misses had to be read. A query that reads
// a block and then decodes it has needed it once, as a miss.
func (c *BlockCache) needed(hits, misses int) {
	atomic.AddInt64(&c.hits, int64(hits))
	atomic.AddInt64(&c.misses, int64(misses))
}

// Put inserts a fetched block, evicting least-recently-used entries in
// its shard until the shard fits its share of the budget. Blocks larger
// than a shard's whole budget are not cached (the caller already has
// the bytes; caching them would just churn the shard).
func (c *BlockCache) Put(seg string, term int32, block int, data []byte) {
	atomic.AddInt64(&c.fetched, int64(len(data)))
	perShard := c.budget / blockCacheShards
	if int64(len(data)) > perShard {
		return
	}
	k := blockKey{seg: seg, term: term, block: int32(block)}
	sh := c.shard(k)
	sh.mu.Lock()
	if el, ok := sh.index[k]; ok {
		// Racing fetchers of the same block: keep the incumbent.
		sh.lru.MoveToFront(el)
		sh.mu.Unlock()
		return
	}
	sh.index[k] = sh.lru.PushFront(&cacheEntry{key: k, data: data})
	sh.bytes += int64(len(data))
	var evicted int64
	for sh.bytes > perShard {
		back := sh.lru.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*cacheEntry)
		sh.lru.Remove(back)
		delete(sh.index, ent.key)
		sh.bytes -= int64(len(ent.data))
		evicted++
	}
	sh.mu.Unlock()
	if evicted > 0 {
		atomic.AddInt64(&c.evictions, evicted)
	}
}

// InvalidateExcept drops every entry whose segment key is not in live,
// returning the number of entries removed. Called after a generation
// swap with the union of segment keys still referenced by any active
// snapshot.
func (c *BlockCache) InvalidateExcept(live map[string]bool) int {
	removed := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		var next *list.Element
		for el := sh.lru.Front(); el != nil; el = next {
			next = el.Next()
			ent := el.Value.(*cacheEntry)
			if !live[ent.key.seg] {
				sh.lru.Remove(el)
				delete(sh.index, ent.key)
				sh.bytes -= int64(len(ent.data))
				removed++
			}
		}
		sh.mu.Unlock()
	}
	return removed
}

// Stats returns a point-in-time snapshot of the cache counters.
func (c *BlockCache) Stats() CacheStats {
	s := CacheStats{
		Hits:         atomic.LoadInt64(&c.hits),
		Misses:       atomic.LoadInt64(&c.misses),
		BytesFetched: atomic.LoadInt64(&c.fetched),
		Evictions:    atomic.LoadInt64(&c.evictions),
		BudgetBytes:  c.budget,
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Entries += int64(sh.lru.Len())
		s.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return s
}
