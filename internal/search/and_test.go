package search

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"websearchbench/internal/corpus"
	"websearchbench/internal/index"
	"websearchbench/internal/textproc"
)

// benchShapedCorpus builds a segment of numDocs documents under the
// repository benchmark's corpus configuration (30 000-word vocabulary,
// 250 body terms a document), so term densities match one of its
// partitions.
func benchShapedCorpus(t testing.TB, numDocs int) (*index.Segment, *corpus.Vocabulary) {
	t.Helper()
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = numDocs
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := index.NewBuilder()
	gen.GenerateFunc(func(d corpus.Document) { b.AddCorpusDoc(d) })
	return b.Finalize(), gen.Vocabulary()
}

// andPool is a family of conjunctive queries: terms words each drawn
// uniformly from vocabulary ranks [lo, hi], and, for a rare lead, the
// first drawn from [rareLo, rareHi] instead.
type andPool struct {
	name           string
	terms, lo, hi  int
	rareLo, rareHi int
}

// andPools are the three shapes conjunctions take: every list dense,
// the benchmark's engine-and pool, and one rare term ANDed with two
// dense ones. The first runs on the window kernel, the last on the
// leapfrog, the middle on both.
var andPools = []andPool{
	{name: "dense", terms: 3, lo: 0, hi: 30},
	{name: "bench", terms: 3, lo: 20, hi: 400},
	{name: "rare-lead", terms: 3, lo: 0, hi: 30, rareLo: 2000, rareHi: 10000},
}

// queries draws n queries of the pool's shape.
func (p andPool) queries(vocab *corpus.Vocabulary, n int, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	a := textproc.NewAnalyzer()
	qs := make([]Query, n)
	for i := range qs {
		words := make([]string, p.terms)
		for j := range words {
			lo, hi := p.lo, p.hi
			if j == 0 && p.rareHi > 0 {
				lo, hi = p.rareLo, p.rareHi
			}
			words[j] = vocab.Word(lo + rng.Intn(hi-lo+1))
		}
		qs[i] = ParseQuery(a, strings.Join(words, " "), ModeAnd)
	}
	return qs
}

// andReference evaluates q as a conjunction the plainest way: each list
// is walked with Next alone into a doc → frequency map, the maps are
// intersected, and each common doc is scored with BM25Params.Score, the
// lists in descending idf order (query order among equal idfs). Hits
// are every surviving match, best first.
func andReference(seg *index.Segment, q Query, deleted func(int32) bool) (hits []Hit, matches int) {
	type list struct {
		idf   float64
		freqs map[int32]int32
	}
	var lists []list
	for _, term := range q.Terms {
		ti, ok := seg.Term(term)
		if !ok {
			return nil, 0
		}
		l := list{idf: index.IDF(int64(seg.NumDocs()), int64(ti.DocFreq)), freqs: map[int32]int32{}}
		for it := seg.PostingsByID(ti.ID); it.Next(); {
			l.freqs[it.Doc()] = it.Freq()
		}
		lists = append(lists, l)
	}
	if len(lists) == 0 {
		return nil, 0
	}
	slices.SortStableFunc(lists, func(a, b list) int {
		switch {
		case a.idf > b.idf:
			return -1
		case a.idf < b.idf:
			return 1
		}
		return 0
	})
	bm := seg.BM25()
candidates:
	for doc := range lists[0].freqs {
		for _, l := range lists[1:] {
			if _, ok := l.freqs[doc]; !ok {
				continue candidates
			}
		}
		if deleted != nil && deleted(doc) {
			continue
		}
		score := 0.0
		for _, l := range lists {
			score += bm.Score(l.idf, l.freqs[doc], seg.DocLen(doc), seg.AvgDocLen())
		}
		hits = append(hits, Hit{Doc: doc, Score: score})
	}
	slices.SortFunc(hits, func(a, b Hit) int {
		if weaker(b, a) {
			return -1
		}
		return 1
	})
	return hits, len(hits)
}

// TestAndMatchesReference: conjunctive evaluation, whichever kernel the
// query's densities select, returns exactly what andReference does —
// the same docs in the same order, Matches, and every score to the bit
// — on a resident and a lazy segment, with and without a tombstone
// filter, over the three pool shapes with k = every match.
func TestAndMatchesReference(t *testing.T) {
	seg, vocab := benchShapedCorpus(t, 4000)
	lazy := lazySegment(t, seg)
	deleted := func(d int32) bool { return d%7 == 3 }
	for pi, p := range andPools {
		for qi, q := range p.queries(vocab, 40, int64(pi)) {
			for _, del := range []func(int32) bool{nil, deleted} {
				want, matches := andReference(seg, q, del)
				for _, sg := range []*index.Segment{seg, lazy} {
					s := NewSearcher(sg, Options{TopK: 10, Deleted: del})
					var res Result
					s.SearchIntoShared(q, &res, seg.NumDocs()+1, nil)
					name := fmt.Sprintf("%s query %d %v lazy=%v tombstones=%v", p.name, qi, q.Terms, sg.IsLazy(), del != nil)
					if res.Matches != matches || len(res.Hits) != len(want) {
						t.Fatalf("%s: %d matches, %d hits; want %d, %d", name, res.Matches, len(res.Hits), matches, len(want))
					}
					for i, h := range res.Hits {
						if h.Doc != want[i].Doc || math.Float64bits(h.Score) != math.Float64bits(want[i].Score) {
							t.Fatalf("%s: hit %d = %+v, want %+v", name, i, h, want[i])
						}
					}
				}
			}
		}
	}
}
