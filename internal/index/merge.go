package index

import (
	"fmt"
	"sort"
)

// MergeSegments combines segments into one, concatenating their document
// spaces in order (segment 0's docs keep their IDs, segment 1's are
// offset by segment 0's count, and so on) and merging posting lists per
// term. All segments must share positional setting and BM25 parameters;
// inputs are decoded through iterators and re-encoded, positions
// included. Merging is how a multi-segment index is compacted after
// incremental building, exactly as in the Lucene stack the benchmark
// serves with.
func MergeSegments(segs []*Segment) (*Segment, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("index: nothing to merge")
	}
	if len(segs) == 1 {
		return segs[0], nil
	}
	out, _, err := MergeSegmentsFiltered(segs, nil)
	return out, err
}

// MergeSegmentsFiltered is MergeSegments with per-segment document drop
// filters, the compaction primitive of the live index: drop[i], when
// non-nil, marks segment i's tombstoned local docIDs, which are omitted
// from the merged output (posting lists, doc store and statistics are all
// rebuilt without them — dead-doc reclamation). Surviving documents are
// renumbered densely in segment order; the returned remap has one slice
// per input segment mapping old local docIDs to merged docIDs, with -1
// for dropped documents. drop may be nil (no filtering), as may any
// individual entry. Unlike MergeSegments, a single input segment is still
// rewritten when its filter is non-nil, which is how a segment whose dead
// fraction crossed the reclamation threshold is compacted in place.
func MergeSegmentsFiltered(segs []*Segment, drop []func(int32) bool) (*Segment, [][]int32, error) {
	if len(segs) == 0 {
		return nil, nil, fmt.Errorf("index: nothing to merge")
	}
	if drop != nil && len(drop) != len(segs) {
		return nil, nil, fmt.Errorf("index: %d drop filters for %d segments", len(drop), len(segs))
	}
	first := segs[0]
	for _, s := range segs[1:] {
		if s.positions != first.positions {
			return nil, nil, fmt.Errorf("index: cannot merge positional with non-positional segments")
		}
		if s.bm25 != first.bm25 {
			return nil, nil, fmt.Errorf("index: cannot merge segments with different BM25 parameters")
		}
	}
	dropped := func(si int, doc int32) bool {
		return drop != nil && drop[si] != nil && drop[si](doc)
	}

	out := &Segment{
		positions: first.positions,
		bm25:      first.bm25,
	}

	// Renumber surviving documents densely, concatenating document spaces
	// in segment order.
	remap := make([][]int32, len(segs))
	var next int32
	for si, s := range segs {
		remap[si] = make([]int32, s.NumDocs())
		for d := int32(0); d < int32(s.NumDocs()); d++ {
			if dropped(si, d) {
				remap[si][d] = -1
				continue
			}
			remap[si][d] = next
			next++
			out.docLens = append(out.docLens, s.docLens[d])
			out.docs = append(out.docs, s.docs[d])
			out.totalLen += int64(s.docLens[d])
		}
	}

	// Union of terms, sorted for a deterministic dictionary.
	termSet := make(map[string]struct{})
	for _, s := range segs {
		for _, t := range s.termList {
			termSet[t] = struct{}{}
		}
	}
	termList := make([]string, 0, len(termSet))
	for t := range termSet {
		termList = append(termList, t)
	}
	sort.Strings(termList)

	// Merge posting lists per term, skipping dropped documents. A term
	// whose postings all belonged to dropped documents vanishes from the
	// merged dictionary.
	type mergedTerm struct {
		term     string
		buf, pos []byte
		docFreq  int32
		collFreq int64
	}
	kept := make([]mergedTerm, 0, len(termList))
	for _, term := range termList {
		var enc postingsEncoder
		var coll int64
		for si, s := range segs {
			ti, ok := s.Term(term)
			if !ok {
				continue
			}
			if out.positions {
				it, _ := s.PositionsOf(term)
				for it.Next() {
					if nd := remap[si][it.Doc()]; nd >= 0 {
						// Positions() reuses a scratch slice but
						// addWithPositions consumes it immediately.
						enc.addWithPositions(nd, it.Positions())
						coll += int64(it.Freq())
					}
				}
			} else {
				it := s.PostingsByID(ti.ID)
				for it.Next() {
					if nd := remap[si][it.Doc()]; nd >= 0 {
						enc.add(nd, it.Freq())
						coll += int64(it.Freq())
					}
				}
			}
		}
		enc.finish()
		if enc.count == 0 {
			continue
		}
		kept = append(kept, mergedTerm{term: term, buf: enc.buf, pos: enc.pos, docFreq: enc.count, collFreq: coll})
	}

	out.terms = make(map[string]int32, len(kept))
	out.termList = make([]string, len(kept))
	out.postings = make([][]byte, len(kept))
	out.docFreqs = make([]int32, len(kept))
	out.collFreqs = make([]int64, len(kept))
	out.maxScores = make([]float32, len(kept))
	for id, mt := range kept {
		out.terms[mt.term] = int32(id)
		out.termList[id] = mt.term
		out.postings[id] = mt.buf
		if out.positions {
			out.posStreams = append(out.posStreams, mt.pos)
		}
		out.docFreqs[id] = mt.docFreq
		out.collFreqs[id] = mt.collFreq
	}
	out.buildLengthNorms()
	out.computeMaxScores()
	out.buildSkips()
	// Block maxima are recomputed from the merged postings rather than
	// stitched from the inputs: merged blocks straddle input-segment
	// boundaries.
	out.computeBlockMaxes()
	return out, remap, nil
}
