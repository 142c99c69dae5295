package live

import (
	"sort"
	"sync"

	"websearchbench/internal/index"
	"websearchbench/internal/search"
)

// memTermFreq is one analyzed (term, frequency) pair of a buffered
// document, kept so the flush path can replay the document into a
// segment builder without re-tokenizing the text.
type memTermFreq struct {
	term string
	freq int32
}

// memPostings is one term's in-memory posting list. Documents are
// appended in docID order, so the slices are sorted and a prefix of them
// is a consistent point-in-time view.
type memPostings struct {
	docs  []int32
	freqs []int32
}

// memtable buffers recently ingested documents in searchable form. All
// mutation happens under the owning Index's lock (writers additionally
// take mu.Lock so readers see consistent slice headers); searchers take
// mu.RLock only long enough to capture a posting list's slice headers.
// Because postings are append-only and published views bound themselves
// by the document count captured at publish time, a view stays coherent
// while writers keep appending to the same memtable.
type memtable struct {
	mu        sync.RWMutex
	terms     map[string]*memPostings
	docLens   []int32
	prefixLen []int64 // prefixLen[i] = sum of docLens[:i+1]
	docs      []index.StoredDoc
	keys      []string
	docTerms  [][]memTermFreq
}

func newMemtable() *memtable {
	return &memtable{terms: make(map[string]*memPostings)}
}

// add appends one analyzed document and returns its memtable-local docID.
// terms must be sorted by term. Called with the Index lock held.
func (m *memtable) add(stored index.StoredDoc, key string, terms []memTermFreq) int32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := int32(len(m.docs))
	var docLen int32
	for _, tf := range terms {
		p := m.terms[tf.term]
		if p == nil {
			p = &memPostings{}
			m.terms[tf.term] = p
		}
		p.docs = append(p.docs, id)
		p.freqs = append(p.freqs, tf.freq)
		docLen += tf.freq
	}
	total := int64(docLen)
	if id > 0 {
		total += m.prefixLen[id-1]
	}
	m.docLens = append(m.docLens, docLen)
	m.prefixLen = append(m.prefixLen, total)
	m.docs = append(m.docs, stored)
	m.keys = append(m.keys, key)
	m.docTerms = append(m.docTerms, terms)
	return id
}

// postings captures a term's current posting-list headers. The returned
// slices are append-only; callers must bound reads by their view's
// visible document count.
func (m *memtable) postings(term string) (docs []int32, freqs []int32) {
	m.mu.RLock()
	if p := m.terms[term]; p != nil {
		docs, freqs = p.docs, p.freqs
	}
	m.mu.RUnlock()
	return docs, freqs
}

// memView is a point-in-time view of a memtable published with a
// snapshot: only documents below upTo are visible, and documents flagged
// in dead (an immutable tombstone clone) are hidden. A snapshot holds
// one memView per memtable still buffered in memory — the active one
// plus any frozen memtables awaiting their background flush — each with
// its own base offset in the snapshot's global docID space.
type memView struct {
	mem      *memtable
	upTo     int32
	totalLen int64
	docLens  []int32
	docs     []index.StoredDoc
	keys     []string
	dead     *Tombstones
	base     int32
}

// memAcc is a memView query's scoring state: per-document score and
// count of matched terms, indexed by memtable-local docID, and the docs
// touched, which are the entries to zero when the query is done.
// Pooled, so a warm view allocates nothing per query.
type memAcc struct {
	scores  []float64
	terms   []int32
	touched []int32
}

var memAccPool = sync.Pool{New: func() any { return new(memAcc) }}

// SearchIntoShared evaluates q against the view into res: the local
// top-k in the segment searchers' order (descending score, ascending
// docID), with Matches counting the documents scored. The view is the
// memtable member of a snapshot's partition.View set. Its lists are
// summed term by term into dense per-document accumulators and the
// documents touched are ranked through a bounded heap; it does not
// prune, so it neither consults nor publishes the shared threshold. The
// memtable holds no positions, so phrase queries match nothing here —
// mirroring segment behavior on non-positional indexes.
func (v *memView) SearchIntoShared(q search.Query, res *search.Result, k int, _ *search.ThresholdShare) {
	res.Reset()
	if v.upTo == 0 || len(q.Phrases) > 0 {
		return
	}
	bm := index.DefaultBM25()
	avg := float64(v.totalLen) / float64(v.upTo)
	acc := memAccPool.Get().(*memAcc)
	defer memAccPool.Put(acc)
	if len(acc.scores) < int(v.upTo) {
		acc.scores = make([]float64, v.upTo)
		acc.terms = make([]int32, v.upTo)
	}
	nTerms := int32(0)
	for _, term := range q.Terms {
		docs, freqs := v.mem.postings(term)
		n := sort.Search(len(docs), func(i int) bool { return docs[i] >= v.upTo })
		if n == 0 {
			if q.Mode == search.ModeAnd {
				nTerms = -1 // a missing term empties the conjunction
				break
			}
			continue
		}
		nTerms++
		res.PostingsScanned += int64(n)
		idf := index.IDF(int64(v.upTo), int64(n))
		for i, d := range docs[:n] {
			if v.dead.Has(d) {
				continue
			}
			if acc.terms[d] == 0 {
				acc.touched = append(acc.touched, d)
			}
			acc.scores[d] += bm.Score(idf, freqs[i], v.docLens[d], avg)
			acc.terms[d]++
		}
	}
	heap := search.GetTopK(k)
	for _, d := range acc.touched {
		if q.Mode != search.ModeAnd || acc.terms[d] == nTerms {
			res.Matches++
			heap.Offer(search.Hit{Doc: d, Score: acc.scores[d]})
		}
		acc.scores[d], acc.terms[d] = 0, 0
	}
	acc.touched = acc.touched[:0]
	res.Hits = heap.AppendSorted(res.Hits[:0])
	search.PutTopK(heap)
}
