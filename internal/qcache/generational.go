package qcache

import (
	"sync/atomic"
)

// Generational is a result cache whose entries are stamped with an index
// generation: every lookup and insert carries the generation the result
// was (or would be) computed against, and an entry answers only lookups
// at its own generation. A mutation that publishes a new index
// generation therefore makes every previously cached result unreachable
// — without scanning or flushing the cache — and a dead entry loses every
// admission contest against a newer generation's, so dead entries leave
// under normal traffic. This is how the engine's result cache stays
// correct in front of the live (mutable) index: a result cached before a
// delete can never be served after it, because the delete bumped the
// generation.
//
// Callers with an external generation source (the live index's snapshot
// generation) use GetAt/PutAt; callers without one can use the built-in
// counter via Get/Put and bump it with Invalidate.
type Generational[V any] struct {
	c   *Cache[V]
	gen atomic.Uint64
}

// NewGenerational returns a generational cache holding at most capacity
// entries across all generations.
func NewGenerational[V any](capacity int) *Generational[V] {
	return &Generational[V]{c: New[V](capacity)}
}

// GetAt returns the value cached for key at generation gen.
func (g *Generational[V]) GetAt(gen uint64, key string) (V, bool) {
	return g.c.get(gen, key)
}

// PutAt caches value for key at generation gen.
func (g *Generational[V]) PutAt(gen uint64, key string, value V) {
	g.c.put(gen, key, value)
}

// Get looks key up at the built-in current generation.
func (g *Generational[V]) Get(key string) (V, bool) {
	return g.GetAt(g.gen.Load(), key)
}

// Put caches value at the built-in current generation.
func (g *Generational[V]) Put(key string, value V) {
	g.PutAt(g.gen.Load(), key, value)
}

// Invalidate advances the built-in generation, making every entry cached
// through Get/Put unreachable. It returns the new generation.
func (g *Generational[V]) Invalidate() uint64 {
	return g.gen.Add(1)
}

// Generation returns the built-in current generation.
func (g *Generational[V]) Generation() uint64 { return g.gen.Load() }

// Len returns the number of entries currently held, reachable or not.
func (g *Generational[V]) Len() int { return g.c.Len() }

// Stats returns the underlying cache's lifetime counters.
func (g *Generational[V]) Stats() Stats { return g.c.Stats() }

// HitRate returns the underlying cache's lifetime hit rate.
func (g *Generational[V]) HitRate() float64 { return g.c.HitRate() }
