package qcache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestBasicGetPut(t *testing.T) {
	c := New[int](2)
	if _, ok := c.Get("a"); ok {
		t.Error("empty cache returned a value")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("Get(a) = %v, %v", v, ok)
	}
	if v, ok := c.Get("b"); !ok || v != 2 {
		t.Errorf("Get(b) = %v, %v", v, ok)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a")    // a is now most recent
	c.Put("c", 3) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should survive (recently used)")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c should be present")
	}
}

func TestPutUpdates(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("a", 9)
	if v, _ := c.Get("a"); v != 9 {
		t.Errorf("updated value = %v", v)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d after update", c.Len())
	}
	// Updating must also refresh recency.
	c.Put("b", 2)
	c.Put("a", 10) // refresh a
	c.Put("c", 3)  // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b should be evicted, a was refreshed by Put")
	}
}

func TestCapacityOne(t *testing.T) {
	c := New[string](1)
	c.Put("a", "x")
	c.Put("b", "y")
	if _, ok := c.Get("a"); ok {
		t.Error("a should be evicted in capacity-1 cache")
	}
	if v, ok := c.Get("b"); !ok || v != "y" {
		t.Errorf("Get(b) = %v, %v", v, ok)
	}
	// Degenerate capacity is clamped to 1.
	d := New[int](0)
	d.Put("k", 1)
	if v, ok := d.Get("k"); !ok || v != 1 {
		t.Error("clamped capacity broken")
	}
}

func TestStatsAndHitRate(t *testing.T) {
	c := New[int](4)
	c.Put("a", 1)
	c.Get("a")
	c.Get("a")
	c.Get("zz")
	if st := c.Stats(); st.Hits != 2 || st.Misses != 1 {
		t.Errorf("Stats = %d/%d, want 2/1", st.Hits, st.Misses)
	}
	if got := c.HitRate(); got < 0.66 || got > 0.67 {
		t.Errorf("HitRate = %v", got)
	}
	if New[int](1).HitRate() != 0 {
		t.Error("fresh cache hit rate should be 0")
	}
}

// Property: the cache never exceeds capacity and always returns what was
// last Put for a present key.
func TestPropertyCapacityAndConsistency(t *testing.T) {
	f := func(seed int64, capRaw uint8, opsRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		ops := int(opsRaw) + 10
		rng := rand.New(rand.NewSource(seed))
		c := New[int](capacity)
		latest := make(map[string]int)
		for i := 0; i < ops; i++ {
			k := fmt.Sprintf("k%d", rng.Intn(24))
			if rng.Intn(2) == 0 {
				v := rng.Int()
				c.Put(k, v)
				latest[k] = v
			} else if v, ok := c.Get(k); ok && v != latest[k] {
				return false // stale value
			}
			if c.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The cache must be safe under concurrent mixed access.
func TestConcurrentAccess(t *testing.T) {
	c := New[int](64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("k%d", rng.Intn(100))
				if rng.Intn(3) == 0 {
					c.Put(k, i)
				} else {
					c.Get(k)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Errorf("Len = %d exceeds capacity", c.Len())
	}
}

// Zipf-popular keys should achieve a high hit rate even with a small
// cache — the phenomenon the benchmark's qcache.hit_rate measures end
// to end.
func TestZipfWorkloadHitRate(t *testing.T) {
	c := New[int](32)
	rng := rand.New(rand.NewSource(1))
	z := rand.NewZipf(rng, 1.2, 1, 999) // 1000 distinct keys
	for i := 0; i < 20000; i++ {
		k := fmt.Sprintf("q%d", z.Uint64())
		if _, ok := c.Get(k); !ok {
			c.Put(k, i)
		}
	}
	if hr := c.HitRate(); hr < 0.5 {
		t.Errorf("Zipf hit rate = %v with 32/1000 capacity, want > 0.5", hr)
	}
}

func BenchmarkCacheGetHit(b *testing.B) {
	c := New[int](1024)
	for i := 0; i < 1024; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get("k512")
	}
}
