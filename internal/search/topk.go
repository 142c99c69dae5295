package search

import "sync"

// TopK is a bounded min-heap of hits: the root is the weakest hit kept.
// Ties are broken so the hit with the larger docID is weaker, giving
// deterministic results. Every view of a fan-out ranks with it: the
// segment searchers here and the live index's memtable views.
type TopK struct {
	k     int
	items []Hit
}

// topkPool recycles heaps (struct plus item backing array) across
// queries: the top-k heap is part of the allocation-free hot path.
var topkPool = sync.Pool{New: func() any { return new(TopK) }}

// GetTopK returns a pooled heap reset for k results. Release it with
// PutTopK after extracting results.
func GetTopK(k int) *TopK {
	h := topkPool.Get().(*TopK)
	h.k = k
	h.items = h.items[:0]
	return h
}

// PutTopK returns a heap to the pool.
func PutTopK(h *TopK) {
	h.items = h.items[:0]
	topkPool.Put(h)
}

// weaker reports whether a ranks strictly below b.
func weaker(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Doc > b.Doc
}

// threshold returns the score a new hit must exceed to enter a full heap,
// or -1 if the heap still has room (all non-negative scores qualify).
func (h *TopK) threshold() float64 {
	if len(h.items) < h.k {
		return -1
	}
	return h.items[0].Score
}

// Offer inserts hit if it ranks above the current weakest (or the heap has
// room). It returns true if the hit was kept.
func (h *TopK) Offer(hit Hit) bool {
	if len(h.items) < h.k {
		h.items = append(h.items, hit)
		h.up(len(h.items) - 1)
		return true
	}
	if !weaker(h.items[0], hit) {
		return false
	}
	h.items[0] = hit
	h.down(0)
	return true
}

func (h *TopK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !weaker(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *TopK) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && weaker(h.items[l], h.items[min]) {
			min = l
		}
		if r < n && weaker(h.items[r], h.items[min]) {
			min = r
		}
		if min == i {
			return
		}
		h.items[i], h.items[min] = h.items[min], h.items[i]
		i = min
	}
}

// AppendSorted appends the heap's hits to dst in descending rank order
// and returns dst. It pops the heap empty — the root is always the
// weakest hit left, so the pops fill dst's new tail from the back — and
// allocates nothing once dst has the capacity.
func (h *TopK) AppendSorted(dst []Hit) []Hit {
	n := len(dst)
	dst = append(dst, h.items...)
	for i := len(dst) - 1; i >= n; i-- {
		last := len(h.items) - 1
		dst[i] = h.items[0]
		h.items[0] = h.items[last]
		h.items = h.items[:last]
		h.down(0)
	}
	return dst
}

// MergeTopK merges several descending-sorted hit lists into a single
// descending top-k list, the final step of partitioned and distributed
// search. Input lists must individually be sorted as produced by Search.
func MergeTopK(lists [][]Hit, k int) []Hit {
	return MergeTopKInto(nil, lists, k)
}

// MergeTopKInto is MergeTopK writing into dst's backing array (grown as
// needed), so steady-state callers can merge without allocating.
func MergeTopKInto(dst []Hit, lists [][]Hit, k int) []Hit {
	h := GetTopK(k)
	for _, list := range lists {
		for _, hit := range list {
			// Lists are descending, so once a hit fails the threshold
			// no later hit from the same list can succeed.
			if !h.Offer(hit) && len(h.items) >= h.k {
				break
			}
		}
	}
	dst = h.AppendSorted(dst[:0])
	PutTopK(h)
	return dst
}
