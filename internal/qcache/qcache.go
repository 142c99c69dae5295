// Package qcache is a concurrency-safe LRU result cache. The paper's
// workload characterization shows web query streams are Zipf-popular —
// the same queries recur constantly — which is exactly the property that
// makes a small front-end result cache absorb a large share of traffic.
// The serve-cluster workload of bench/ measures it as qcache.hit_rate.
//
// Internally the cache is striped into up to maxShards independent
// mutex-guarded LRU shards keyed by a hash of the query string, so
// concurrent front-end lookups do not serialize on one global lock.
// Small caches stay single-shard and therefore exactly LRU; sharded
// caches are LRU per shard, which preserves the capacity bound and the
// Zipf hit-rate behavior while removing the contention point.
package qcache

import (
	"sync"
)

const (
	// maxShards caps the stripe count; it is a power of two so the shard
	// index is a mask of the key hash.
	maxShards = 16
	// minShardCapacity is the smallest per-shard capacity worth striping
	// for: below it, eviction behavior degrades measurably versus global
	// LRU, and caches that small are not contention-bound anyway.
	minShardCapacity = 32
)

// Cache is a fixed-capacity LRU map from string keys to values of type V.
// The zero value is unusable; construct with New. All methods are safe
// for concurrent use.
type Cache[V any] struct {
	shards []*shard[V]
	mask   uint32
}

// shard is one independently locked LRU stripe.
type shard[V any] struct {
	mu       sync.Mutex
	capacity int
	items    map[string]*entry[V]
	head     *entry[V] // most recently used
	tail     *entry[V] // least recently used
	hits     uint64
	misses   uint64
}

type entry[V any] struct {
	key        string
	value      V
	prev, next *entry[V]
}

// New returns a cache holding at most capacity entries. Capacity must be
// positive.
func New[V any](capacity int) *Cache[V] {
	if capacity <= 0 {
		capacity = 1
	}
	return newSharded[V](capacity, shardsFor(capacity))
}

// shardsFor picks the stripe count for a capacity: the largest power of
// two ≤ maxShards that keeps every shard at minShardCapacity or more.
func shardsFor(capacity int) int {
	n := 1
	for n < maxShards && capacity/(n*2) >= minShardCapacity {
		n *= 2
	}
	return n
}

// newSharded builds a cache with an explicit stripe count (a power of
// two). Total capacity is distributed exactly: the first capacity%shards
// shards get one extra slot, so Len never exceeds capacity.
func newSharded[V any](capacity, shards int) *Cache[V] {
	c := &Cache[V]{
		shards: make([]*shard[V], shards),
		mask:   uint32(shards - 1),
	}
	base, extra := capacity/shards, capacity%shards
	for i := range c.shards {
		sz := base
		if i < extra {
			sz++
		}
		c.shards[i] = &shard[V]{
			capacity: sz,
			items:    make(map[string]*entry[V], sz),
		}
	}
	return c
}

// shardFor hashes key (FNV-1a) and returns its stripe.
func (c *Cache[V]) shardFor(key string) *shard[V] {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return c.shards[h&c.mask]
}

// unlink removes e from the shard's LRU list.
func (s *shard[V]) unlink(e *entry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront makes e the shard's most recently used entry.
func (s *shard[V]) pushFront(e *entry[V]) {
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

// Get returns the cached value for key, marking it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.items[key]
	if !ok {
		s.misses++
		var zero V
		return zero, false
	}
	s.hits++
	if s.head != e {
		s.unlink(e)
		s.pushFront(e)
	}
	return e.value, true
}

// Put inserts or updates key, evicting the shard's least recently used
// entry when the shard is full.
func (c *Cache[V]) Put(key string, value V) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.items[key]; ok {
		e.value = value
		if s.head != e {
			s.unlink(e)
			s.pushFront(e)
		}
		return
	}
	if len(s.items) >= s.capacity {
		lru := s.tail
		s.unlink(lru)
		delete(s.items, lru.key)
	}
	e := &entry[V]{key: key, value: value}
	s.items[key] = e
	s.pushFront(e)
}

// Len returns the current number of entries.
func (c *Cache[V]) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// Stats returns lifetime hit and miss counts, summed across shards.
func (c *Cache[V]) Stats() (hits, misses uint64) {
	for _, s := range c.shards {
		s.mu.Lock()
		hits += s.hits
		misses += s.misses
		s.mu.Unlock()
	}
	return hits, misses
}

// HitRate returns hits/(hits+misses), or 0 before any lookups.
func (c *Cache[V]) HitRate() float64 {
	h, m := c.Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
