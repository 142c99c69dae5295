package qcache

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestShardsFor(t *testing.T) {
	tests := []struct {
		capacity, want int
	}{
		{1, 1}, {16, 1}, {32, 1}, {63, 1},
		{64, 2}, {127, 2}, {128, 4}, {256, 8},
		{512, 16}, {1024, 16}, {1 << 20, 16},
	}
	for _, tt := range tests {
		if got := shardsFor(tt.capacity); got != tt.want {
			t.Errorf("shardsFor(%d) = %d, want %d", tt.capacity, got, tt.want)
		}
	}
}

// TestShardedCapacityExact checks the capacity invariant under striping:
// shard capacities sum exactly to the requested total, Len never exceeds
// it, and a workload with far more distinct keys than slots fills every
// shard completely.
func TestShardedCapacityExact(t *testing.T) {
	for _, capacity := range []int{64, 100, 500, 1024} {
		c := New[int](capacity)
		total := 0
		for _, s := range c.shards {
			total += s.capacity
		}
		if total != capacity {
			t.Fatalf("capacity %d: shard capacities sum to %d", capacity, total)
		}
		for i := 0; i < capacity*20; i++ {
			c.Put(fmt.Sprintf("key-%d", i), i)
			if c.Len() > capacity {
				t.Fatalf("capacity %d: Len %d exceeds capacity", capacity, c.Len())
			}
		}
		if c.Len() != capacity {
			t.Errorf("capacity %d: Len %d after saturation, want full", capacity, c.Len())
		}
	}
}

// TestShardedStatsAggregate: Stats and HitRate sum across shards.
func TestShardedStatsAggregate(t *testing.T) {
	c := New[int](256)
	if len(c.shards) < 2 {
		t.Fatalf("capacity 256 built %d shards, want several", len(c.shards))
	}
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	for i := 0; i < 200; i++ {
		c.Get(fmt.Sprintf("k%d", i)) // first 100 hit, rest miss
	}
	if st := c.Stats(); st.Hits != 100 || st.Misses != 100 {
		t.Errorf("Stats = (%d, %d), want (100, 100)", st.Hits, st.Misses)
	}
	if r := c.HitRate(); r != 0.5 {
		t.Errorf("HitRate = %v, want 0.5", r)
	}
}

// TestShardedEquivalentHitRate: on a Zipf-popular key stream, the
// sharded cache's hit rate stays within a few points of a single-shard
// cache of the same capacity — striping trades one global window, main
// LRU and sketch for lock spread, not for hit rate.
func TestShardedEquivalentHitRate(t *testing.T) {
	run := func(c *Cache[int]) float64 {
		rng := rand.New(rand.NewSource(1))
		z := rand.NewZipf(rng, 1.2, 1, 9999)
		for i := 0; i < 50000; i++ {
			k := fmt.Sprintf("q%d", z.Uint64())
			if _, ok := c.Get(k); !ok {
				c.Put(k, i)
			}
		}
		return c.HitRate()
	}
	global := run(newSharded[int](1024, 1))
	sharded := run(New[int](1024))
	if sharded < global-0.03 {
		t.Errorf("sharded hit rate %.3f more than 3 points below global %.3f", sharded, global)
	}
}

// cacheBenchWorkload drives a mixed get/put Zipf workload through c from
// p parallel goroutines via b.RunParallel.
func cacheBenchWorkload(b *testing.B, c *Cache[int]) {
	b.Helper()
	// Pre-generate a key set so the benchmark times cache operations,
	// not fmt or the Zipf sampler.
	rng := rand.New(rand.NewSource(1))
	z := rand.NewZipf(rng, 1.2, 1, 99999)
	keys := make([]string, 1<<16)
	for i := range keys {
		keys[i] = fmt.Sprintf("query-%d", z.Uint64())
	}
	for i := 0; i < len(keys); i += 7 {
		c.Put(keys[i], i)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := rand.Int()
		for pb.Next() {
			k := keys[i&(len(keys)-1)]
			if _, ok := c.Get(k); !ok {
				c.Put(k, i)
			}
			i++
		}
	})
}

// BenchmarkCacheParallel is the contention benchmark behind the sharding
// change: the same parallel workload against the sharded cache and
// against a single-stripe cache of identical capacity (the old global-
// mutex design). Compare ns/op between the two sub-benchmarks.
func BenchmarkCacheParallel(b *testing.B) {
	b.Run("sharded", func(b *testing.B) {
		cacheBenchWorkload(b, New[int](4096))
	})
	b.Run("single-mutex", func(b *testing.B) {
		cacheBenchWorkload(b, newSharded[int](4096, 1))
	})
}

// BenchmarkCacheGetHitParallel isolates the read path: all-hit parallel
// Gets, where the old design serialized entirely on one lock.
func BenchmarkCacheGetHitParallel(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		shards int
	}{{"sharded", maxShards}, {"single-mutex", 1}} {
		b.Run(cfg.name, func(b *testing.B) {
			c := newSharded[int](4096, cfg.shards)
			keys := make([]string, 1024)
			for i := range keys {
				keys[i] = fmt.Sprintf("hot-%d", i)
				c.Put(keys[i], i)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					c.Get(keys[i&1023])
					i++
				}
			})
		})
	}
}
