// Package qcache is a concurrency-safe result cache. The paper's
// workload characterization shows web query streams are Zipf-popular —
// the same queries recur constantly — which is exactly the property that
// makes a small front-end result cache absorb a large share of traffic.
// The serve-cluster workload of bench/ measures it as qcache.hit_rate.
//
// Eviction is W-TinyLFU (Einziger, Friedman, Manes: "TinyLFU: A Highly
// Efficient Cache Admission Policy"). A new entry lands in a small LRU
// window; when the window overflows, its least recently used entry may
// join the main LRU only by displacing the main LRU's own victim, and
// only if a count-min sketch of recent lookups says it is asked for more
// often. On a Zipf stream plain LRU spends most of its slots on queries
// asked once; the sketch keeps them out, so the same capacity holds more
// of the popular head.
//
// Internally the cache is striped into up to maxShards independent
// mutex-guarded shards keyed by a hash of the query string, so
// concurrent front-end lookups do not serialize on one global lock.
// Each shard has its own window, main LRU and sketch.
package qcache

import (
	"sync"
)

const (
	// maxShards caps the stripe count; it is a power of two so the shard
	// index is a mask of the key hash.
	maxShards = 16
	// minShardCapacity is the smallest per-shard capacity worth striping
	// for: below it, eviction behavior degrades measurably versus a global
	// policy, and caches that small are not contention-bound anyway.
	minShardCapacity = 32
	// windowPercent is the window's share of a shard's capacity (at least
	// one entry), the W-TinyLFU paper's default: on a frequency-driven
	// stream the window only has to hold a newcomer until the sketch has
	// seen it again.
	windowPercent = 1
)

// Cache is a fixed-capacity map from string keys to values of type V.
// The zero value is unusable; construct with New. All methods are safe
// for concurrent use.
type Cache[V any] struct {
	shards []*shard[V]
	mask   uint64
}

// Stats are a cache's lifetime counters, summed across shards.
type Stats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Rejected counts entries the admission filter turned away: each left
	// the window for the main LRU and lost to the main LRU's victim.
	Rejected uint64 `json:"rejected"`
	Len      int    `json:"entries"`
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookups.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// ckey is a map key: the generation an entry was computed at and the
// caller's key. Plain Get/Put use generation 0.
type ckey struct {
	gen uint64
	key string
}

// shard is one independently locked stripe.
type shard[V any] struct {
	mu        sync.Mutex
	capacity  int // window plus main
	windowCap int
	items     map[ckey]*entry[V]
	window    lru[V] // newcomers
	main      lru[V] // entries admitted past the filter
	sketch    sketch
	stats     Stats
}

type entry[V any] struct {
	k          ckey
	hash       uint64 // of k.key: the sketch counts queries, not generations
	value      V
	main       bool // in s.main rather than s.window
	prev, next *entry[V]
}

// lru is an intrusive doubly linked list, most recently used first.
type lru[V any] struct {
	head, tail *entry[V]
	n          int
}

func (l *lru[V]) remove(e *entry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
	l.n--
}

func (l *lru[V]) pushFront(e *entry[V]) {
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
	l.n++
}

func (l *lru[V]) touch(e *entry[V]) {
	if l.head != e {
		l.remove(e)
		l.pushFront(e)
	}
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
		mask:   uint64(shards - 1),
	}
	base, extra := capacity/shards, capacity%shards
	for i := range c.shards {
		sz := base
		if i < extra {
			sz++
		}
		c.shards[i] = &shard[V]{
			capacity:  sz,
			windowCap: max(1, sz*windowPercent/100),
			items:     make(map[ckey]*entry[V], sz),
			sketch:    newSketch(sz),
		}
	}
	return c
}

// hashKey is FNV-1a with a final avalanche (MurmurHash3's fmix64), so
// that every bit range of the result is usable on its own: bits 48 and
// up pick the shard, bits 0–47 the sketch counters.
func hashKey(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func (c *Cache[V]) shardFor(h uint64) *shard[V] {
	return c.shards[(h>>48)&c.mask]
}

// Get returns the cached value for key, marking it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) { return c.get(0, key) }

// Put inserts or updates key.
func (c *Cache[V]) Put(key string, value V) { c.put(0, key, value) }

// get looks (gen, key) up. Every lookup, hit or miss, counts one request
// for key in the shard's sketch: the frequency the admission filter
// compares is how often a query is asked, whatever generation answers it.
func (c *Cache[V]) get(gen uint64, key string) (V, bool) {
	h := hashKey(key)
	s := c.shardFor(h)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sketch.add(h)
	e, ok := s.items[ckey{gen, key}]
	if !ok {
		s.stats.Misses++
		var zero V
		return zero, false
	}
	s.stats.Hits++
	s.list(e).touch(e)
	return e.value, true
}

// put inserts or updates (gen, key). A new entry always enters the
// window; the window's overflow goes through the admission filter.
func (c *Cache[V]) put(gen uint64, key string, value V) {
	h := hashKey(key)
	s := c.shardFor(h)
	s.mu.Lock()
	defer s.mu.Unlock()
	k := ckey{gen, key}
	if e, ok := s.items[k]; ok {
		e.value = value
		s.list(e).touch(e)
		return
	}
	e := &entry[V]{k: k, hash: h, value: value}
	s.items[k] = e
	s.window.pushFront(e)
	if s.window.n > s.windowCap {
		cand := s.window.tail
		s.window.remove(cand)
		s.admit(cand)
	}
}

func (s *shard[V]) list(e *entry[V]) *lru[V] {
	if e.main {
		return &s.main
	}
	return &s.window
}

// admit moves the window's victim cand into the main LRU, or drops it.
// With the main LRU full, cand and the main LRU's victim compete and
// one of them leaves the cache: the one of an older generation (a result
// superseded by a newer index state is worth nothing), otherwise the one
// the sketch has seen asked for less often — ties keep the incumbent.
func (s *shard[V]) admit(cand *entry[V]) {
	if s.main.n < s.capacity-s.windowCap {
		cand.main = true
		s.main.pushFront(cand)
		return
	}
	victim := s.main.tail
	if victim == nil { // a one-entry shard is all window
		delete(s.items, cand.k)
		return
	}
	var wins bool
	if cand.k.gen != victim.k.gen {
		wins = cand.k.gen > victim.k.gen
	} else {
		wins = s.sketch.estimate(cand.hash) > s.sketch.estimate(victim.hash)
	}
	if !wins {
		s.stats.Rejected++
		delete(s.items, cand.k)
		return
	}
	s.main.remove(victim)
	delete(s.items, victim.k)
	cand.main = true
	s.main.pushFront(cand)
}

// Len returns the current number of entries.
func (c *Cache[V]) Len() int { return c.Stats().Len }

// Stats returns the lifetime counters summed across shards.
func (c *Cache[V]) Stats() Stats {
	var st Stats
	for _, s := range c.shards {
		s.mu.Lock()
		st.Hits += s.stats.Hits
		st.Misses += s.stats.Misses
		st.Rejected += s.stats.Rejected
		st.Len += len(s.items)
		s.mu.Unlock()
	}
	return st
}

// HitRate returns hits/(hits+misses), or 0 before any lookups.
func (c *Cache[V]) HitRate() float64 { return c.Stats().HitRate() }
