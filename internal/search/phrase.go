package search

import (
	"time"

	"websearchbench/internal/index"
)

// Phrase evaluation. A query with quoted phrases requires every phrase to
// occur (terms at consecutive positions); remaining loose terms
// contribute optional score. A phrase is scored like a pseudo-term, as in
// Lucene's PhraseQuery: tf is the number of phrase occurrences in the
// document and idf is the sum of the member terms' IDFs.

// phraseScorer tracks one phrase's member iterators.
type phraseScorer struct {
	its []index.PositionsIterator
	idf float64
}

// freqAt counts phrase occurrences assuming all member iterators are
// positioned at the same document. For a single-term "phrase" it is the
// term frequency.
func (p *phraseScorer) freqAt() int32 {
	if len(p.its) == 1 {
		return p.its[0].Freq()
	}
	// Intersect positions: a match starts at position pos when member i
	// occurs at pos+i for every i.
	first := p.its[0].Positions()
	rest := make([][]int32, len(p.its)-1)
	for i := 1; i < len(p.its); i++ {
		// Positions() reuses its scratch slice per iterator, so each
		// member's slice is distinct and stable here.
		rest[i-1] = p.its[i].Positions()
	}
	var freq int32
	for _, pos := range first {
		ok := true
		for i, ps := range rest {
			if !containsPosition(ps, pos+int32(i)+1) {
				ok = false
				break
			}
		}
		if ok {
			freq++
		}
	}
	return freq
}

// containsPosition reports whether sorted ps contains v.
func containsPosition(ps []int32, v int32) bool {
	lo, hi := 0, len(ps)
	for lo < hi {
		mid := (lo + hi) / 2
		if ps[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ps) && ps[lo] == v
}

// searchPhrases evaluates a query containing phrases into res: all
// phrases are required; loose terms add optional score to matching
// documents.
func (s *Searcher) searchPhrases(q Query, res *Result) {
	lookupStart := time.Now()
	if !s.seg.HasPositions() {
		// The segment was built without positions; phrase queries
		// cannot be evaluated, so they match nothing (mirrors engines
		// that reject phrase syntax on non-positional fields).
		res.Phases.Lookup = time.Since(lookupStart)
		return
	}
	var lz *index.LazyQuery
	if s.seg.IsLazy() {
		lz = s.seg.NewLazyQuery()
		defer lz.Release()
	}
	phrases := make([]phraseScorer, 0, len(q.Phrases))
	for _, terms := range q.Phrases {
		p := phraseScorer{}
		for _, term := range terms {
			it, ok := s.positions(term, lz)
			if !ok {
				res.Phases.Lookup = time.Since(lookupStart)
				return // a missing member empties the conjunction
			}
			p.its = append(p.its, it)
			p.idf += s.termIDF(term)
		}
		phrases = append(phrases, p)
	}
	// Loose terms are optional scorers probed per candidate.
	loose := make([]termScorer, 0, len(q.Terms))
	its := make([]index.PostingsIterator, len(q.Terms))
	for _, term := range q.Terms {
		ti, ok := s.seg.Term(term)
		if !ok {
			continue
		}
		it := &its[len(loose)]
		s.postingsInto(it, ti.ID, lz)
		loose = append(loose, termScorer{it: it, idf: s.termIDF(term)})
	}
	if lz != nil {
		// Phrase members are walked posting by posting: like an
		// exhaustive OR, read every list the query touches, positions
		// streams included, in one round.
		lz.Prefetch(true)
	}
	res.Phases.Lookup = time.Since(lookupStart)

	scoreStart := time.Now()
	heap := GetTopK(s.opts.TopK)
	avg := s.avgDocLen()
	bm := s.seg.BM25()

	// Leapfrog all phrase members to common documents.
	advanceAll := func(target int32) (int32, bool) {
		for {
			max := target
			for pi := range phrases {
				for ii := range phrases[pi].its {
					it := &phrases[pi].its[ii]
					if !it.SkipTo(max) {
						return 0, false
					}
					if it.Doc() > max {
						max = it.Doc()
					}
				}
			}
			// Check alignment.
			aligned := true
			for pi := range phrases {
				for ii := range phrases[pi].its {
					if phrases[pi].its[ii].Doc() != max {
						aligned = false
					}
				}
			}
			if aligned {
				return max, true
			}
			target = max
		}
	}

	doc := int32(0)
	for {
		d, ok := advanceAll(doc)
		if !ok {
			break
		}
		if !s.alive(d) {
			doc = d + 1
			continue
		}
		dl := s.seg.DocLen(d)
		score := 0.0
		matched := true
		for pi := range phrases {
			f := phrases[pi].freqAt()
			if f == 0 {
				matched = false
				break
			}
			score += bm.Score(phrases[pi].idf, f, dl, avg)
		}
		if matched {
			for li := range loose {
				it := loose[li].it
				if it.Doc() < d && !it.SkipTo(d) {
					continue
				}
				if it.Doc() == d {
					score += bm.Score(loose[li].idf, it.Freq(), dl, avg)
				}
			}
			res.Matches++
			heap.Offer(Hit{Doc: d, Score: s.docScore(d, score)})
		}
		doc = d + 1
	}
	res.Phases.Score = time.Since(scoreStart)

	mergeStart := time.Now()
	res.Hits = heap.AppendSorted(res.Hits[:0])
	PutTopK(heap)
	res.Phases.Merge = time.Since(mergeStart)
	if lz != nil {
		res.Incomplete = lz.Incomplete()
	}
}

// positions returns the term's positional iterator; lz is the query's
// fetch state on a lazy segment, else nil.
func (s *Searcher) positions(term string, lz *index.LazyQuery) (index.PositionsIterator, bool) {
	if lz == nil {
		return s.seg.PositionsOf(term)
	}
	ti, ok := s.seg.Term(term)
	if !ok {
		return index.PositionsIterator{}, false
	}
	return lz.Positions(ti.ID), true
}

// termIDF returns the scoring IDF for a term, honoring global stats.
func (s *Searcher) termIDF(term string) float64 {
	if s.opts.Stats != nil {
		return index.IDF(s.opts.Stats.NumDocs, s.opts.Stats.DocFreqs[term])
	}
	return s.seg.IDF(term)
}
