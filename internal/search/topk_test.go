package search

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTopKBasics(t *testing.T) {
	h := GetTopK(3)
	for _, hit := range []Hit{{1, 0.5}, {2, 0.9}, {3, 0.1}, {4, 0.7}, {5, 0.3}} {
		h.Offer(hit)
	}
	got := h.AppendSorted(nil)
	want := []Hit{{2, 0.9}, {4, 0.7}, {1, 0.5}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("hit %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestTopKFewerThanK(t *testing.T) {
	h := GetTopK(10)
	h.Offer(Hit{7, 1.0})
	h.Offer(Hit{3, 2.0})
	got := h.AppendSorted(nil)
	if len(got) != 2 || got[0].Doc != 3 || got[1].Doc != 7 {
		t.Errorf("got %v", got)
	}
}

func TestTopKTieBreakByDoc(t *testing.T) {
	h := GetTopK(2)
	h.Offer(Hit{5, 1.0})
	h.Offer(Hit{2, 1.0})
	h.Offer(Hit{9, 1.0})
	got := h.AppendSorted(nil)
	// Equal scores: lower docID ranks higher; doc 9 is evicted.
	if got[0].Doc != 2 || got[1].Doc != 5 {
		t.Errorf("got %v, want docs [2 5]", got)
	}
}

func TestTopKThreshold(t *testing.T) {
	h := GetTopK(2)
	if h.threshold() != -1 {
		t.Errorf("threshold of non-full heap = %v, want -1", h.threshold())
	}
	h.Offer(Hit{1, 0.4})
	h.Offer(Hit{2, 0.8})
	if h.threshold() != 0.4 {
		t.Errorf("threshold = %v, want 0.4", h.threshold())
	}
	if h.Offer(Hit{3, 0.3}) {
		t.Error("hit below threshold accepted")
	}
	if !h.Offer(Hit{3, 0.5}) {
		t.Error("hit above threshold rejected")
	}
	if h.threshold() != 0.5 {
		t.Errorf("threshold after eviction = %v, want 0.5", h.threshold())
	}
}

// Property: TopK returns exactly the k best hits of the offered stream,
// in descending order with docID tie-breaking, matching a full sort.
func TestTopKPropertyMatchesSort(t *testing.T) {
	f := func(seed int64, kRaw, nRaw uint8) bool {
		k := int(kRaw%20) + 1
		n := int(nRaw % 200)
		rng := rand.New(rand.NewSource(seed))
		hits := make([]Hit, n)
		for i := range hits {
			// Coarse scores to force plenty of ties.
			hits[i] = Hit{Doc: int32(i), Score: float64(rng.Intn(10)) / 10}
		}
		h := GetTopK(k)
		for _, hit := range hits {
			h.Offer(hit)
		}
		got := h.AppendSorted(nil)
		ref := append([]Hit(nil), hits...)
		sort.Slice(ref, func(i, j int) bool { return weaker(ref[j], ref[i]) })
		if len(ref) > k {
			ref = ref[:k]
		}
		if len(got) != len(ref) {
			return false
		}
		for i := range ref {
			if got[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMergeTopK(t *testing.T) {
	a := []Hit{{1, 0.9}, {2, 0.5}, {3, 0.1}}
	b := []Hit{{4, 0.8}, {5, 0.4}}
	c := []Hit{{6, 0.7}}
	got := MergeTopK([][]Hit{a, b, c}, 3)
	want := []Hit{{1, 0.9}, {4, 0.8}, {6, 0.7}}
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("merged %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestMergeTopKEmpty(t *testing.T) {
	if got := MergeTopK(nil, 5); len(got) != 0 {
		t.Errorf("merge of nothing = %v", got)
	}
	if got := MergeTopK([][]Hit{nil, {}}, 5); len(got) != 0 {
		t.Errorf("merge of empties = %v", got)
	}
}

// Property: merging partitioned hit lists equals the top-k of the union.
func TestMergeTopKPropertyEqualsUnion(t *testing.T) {
	f := func(seed int64, partsRaw, kRaw uint8) bool {
		parts := int(partsRaw%6) + 1
		k := int(kRaw%15) + 1
		rng := rand.New(rand.NewSource(seed))
		var union []Hit
		lists := make([][]Hit, parts)
		doc := int32(0)
		for p := 0; p < parts; p++ {
			n := rng.Intn(30)
			list := make([]Hit, n)
			for i := range list {
				list[i] = Hit{Doc: doc, Score: float64(rng.Intn(8))}
				doc++
			}
			sort.Slice(list, func(i, j int) bool { return weaker(list[j], list[i]) })
			lists[p] = list
			union = append(union, list...)
		}
		got := MergeTopK(lists, k)
		sort.Slice(union, func(i, j int) bool { return weaker(union[j], union[i]) })
		if len(union) > k {
			union = union[:k]
		}
		if len(got) != len(union) {
			return false
		}
		for i := range union {
			if got[i] != union[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
