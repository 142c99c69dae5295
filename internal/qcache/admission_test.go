package qcache

import (
	"container/list"
	"fmt"
	"math/rand"
	"testing"

	"websearchbench/internal/corpus"
)

// refLRU is a textbook single-list LRU, the policy the cache used before
// admission: the reference the hit-rate tests measure against.
type refLRU struct {
	capacity     int
	ll           *list.List
	items        map[string]*list.Element
	hits, misses int
}

func newRefLRU(capacity int) *refLRU {
	return &refLRU{capacity: capacity, ll: list.New(), items: map[string]*list.Element{}}
}

func (l *refLRU) access(key string) {
	if e, ok := l.items[key]; ok {
		l.hits++
		l.ll.MoveToFront(e)
		return
	}
	l.misses++
	if l.ll.Len() >= l.capacity {
		delete(l.items, l.ll.Remove(l.ll.Back()).(string))
	}
	l.items[key] = l.ll.PushFront(key)
}

func (l *refLRU) hitRate() float64 { return float64(l.hits) / float64(l.hits+l.misses) }

// benchStream is serve-cluster's request stream at its committed sizing:
// 6666 distinct queries, a pre-drawn Zipf(0.85) stream of 2^17 requests,
// cycled, in front of a 666-entry cache.
func benchStream(seed int64) (keys []string, stream []int) {
	const unique, streamLen = 20000 / 3, 1 << 17
	keys = make([]string, unique)
	for i := range keys {
		keys[i] = fmt.Sprintf("query-%d", i)
	}
	z := corpus.NewZipf(rand.New(rand.NewSource(seed)), unique, 0.85)
	stream = make([]int, streamLen)
	for i := range stream {
		stream[i] = z.Sample()
	}
	return keys, stream
}

// TestAdmissionRaisesZipfHitRate is the claim behind the admission
// filter, replayed without a cluster: on serve-cluster's stream and cache
// size, LRU holds about half the requests and W-TinyLFU holds more than
// 0.55 — at least five points more, on every seed.
func TestAdmissionRaisesZipfHitRate(t *testing.T) {
	const capacity, requests = 2000 / 3, 150000
	for seed := int64(1); seed <= 3; seed++ {
		keys, stream := benchStream(seed)
		ref := newRefLRU(capacity)
		c := New[int](capacity)
		for i := 0; i < requests; i++ {
			k := keys[stream[i%len(stream)]]
			ref.access(k)
			if _, ok := c.Get(k); !ok {
				c.Put(k, i)
			}
		}
		lru, tiny := ref.hitRate(), c.HitRate()
		t.Logf("seed %d: LRU %.4f, W-TinyLFU %.4f (%d rejected)", seed, lru, tiny, c.Stats().Rejected)
		if lru < 0.45 || lru > 0.55 {
			t.Errorf("seed %d: reference LRU hit rate %.4f, want about 0.50 (the stream changed?)", seed, lru)
		}
		if tiny < 0.55 || tiny < lru+0.05 {
			t.Errorf("seed %d: W-TinyLFU hit rate %.4f against LRU %.4f, want > 0.55 and 5 points more", seed, tiny, lru)
		}
	}
}

// TestScanDoesNotFlushHotSet: a burst of queries asked once each — a
// crawler, a batch job — twice the cache's size evicts an LRU's whole
// working set; behind the admission filter the burst passes through the
// window and the popular queries stay.
func TestScanDoesNotFlushHotSet(t *testing.T) {
	const capacity, scan = 200, 400
	c := New[int](capacity)
	hot := make([]string, capacity/2)
	for i := range hot {
		hot[i] = fmt.Sprintf("hot-%d", i)
	}
	for round := 0; round < 5; round++ {
		for _, k := range hot {
			if _, ok := c.Get(k); !ok {
				c.Put(k, round)
			}
		}
	}
	for i := 0; i < scan; i++ {
		k := fmt.Sprintf("scan-%d", i)
		if _, ok := c.Get(k); !ok {
			c.Put(k, i)
		}
	}
	kept := 0
	for _, k := range hot {
		if _, ok := c.Get(k); ok {
			kept++
		}
	}
	if kept < len(hot)*9/10 {
		t.Errorf("%d of %d hot queries survived a one-hit scan of %d, want at least 90 %%", kept, len(hot), scan)
	}
	if st := c.Stats(); st.Len > capacity || st.Rejected == 0 {
		t.Errorf("Len %d (capacity %d), Rejected %d: want within capacity and the scan rejected", st.Len, capacity, st.Rejected)
	}
}

// A result of a newer generation displaces an older generation's entry
// however often the older one was asked: a superseded result is dead.
func TestNewerGenerationWinsAdmission(t *testing.T) {
	g := NewGenerational[int](2) // one window slot, one main slot
	g.PutAt(1, "popular", 1)
	g.PutAt(1, "other", 2) // "popular" moves to the main LRU
	for i := 0; i < 10; i++ {
		g.GetAt(1, "popular")
	}
	g.PutAt(2, "fresh", 3) // "other"@1 leaves the window, loses to "popular"@1
	g.PutAt(2, "next", 4)  // "fresh"@2 leaves the window, beats "popular"@1
	if _, ok := g.GetAt(1, "popular"); ok {
		t.Error("generation-1 entry kept over a generation-2 candidate")
	}
	if v, ok := g.GetAt(2, "fresh"); !ok || v != 3 {
		t.Errorf("GetAt(2, fresh) = %d, %v; want the admitted entry", v, ok)
	}
	if st := g.Stats(); st.Rejected != 1 || st.Len != 2 {
		t.Errorf("Stats = %+v, want 1 rejection and 2 entries", st)
	}
}

// Probing the cache allocates nothing: the (generation, key) pair is the
// map key, no stamped string is built per lookup.
func TestGetAllocationFree(t *testing.T) {
	g := NewGenerational[int](64)
	g.PutAt(7, "q", 1)
	if n := testing.AllocsPerRun(100, func() {
		g.GetAt(7, "q")
		g.GetAt(8, "q")
	}); n != 0 {
		t.Errorf("GetAt allocates %.1f times per hit+miss pair, want 0", n)
	}
}

// The sketch never under-counts below saturation before a reset, and a
// reset halves every estimate.
func TestSketchEstimates(t *testing.T) {
	s := newSketch(64)
	rng := rand.New(rand.NewSource(1))
	truth := map[uint64]int{}
	hashes := make([]uint64, 50)
	for i := range hashes {
		hashes[i] = hashKey(fmt.Sprintf("k%d", i))
	}
	for n := 0; n < s.resetAt-40; n++ {
		h := hashes[rng.Intn(len(hashes))]
		s.add(h)
		truth[h]++
	}
	for h, n := range truth {
		if got := int(s.estimate(h)); got < min(n, counterMax) {
			t.Fatalf("estimate %d below the true count %d", got, n)
		}
	}
	before := map[uint64]uint8{}
	for _, h := range hashes {
		before[h] = s.estimate(h)
	}
	for n := 0; n < 40; n++ { // completes the sample: one reset
		s.add(hashKey("filler"))
	}
	for _, h := range hashes {
		if got, want := s.estimate(h), before[h]/2; got != want && got != want+1 {
			t.Fatalf("estimate %d after a reset, want about half of %d", got, before[h])
		}
	}
}
