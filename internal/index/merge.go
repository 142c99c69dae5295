package index

import (
	"bytes"
	"fmt"
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

	out := segmentParts{positions: first.positions, bm25: first.bm25}

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
			out.stored.storedDoc(s.Doc(d))
		}
	}

	// Walk the inputs' sorted dictionaries together: each step takes the
	// least term under any cursor and merges its lists from every input
	// holding it, skipping dropped documents. A term whose postings all
	// belonged to dropped documents vanishes from the merged dictionary.
	cur := make([]int32, len(segs))
	for {
		var least []byte
		for si, s := range segs {
			if int(cur[si]) < s.NumTerms() {
				if t := s.termAt(cur[si]); least == nil || bytes.Compare(t, least) < 0 {
					least = t
				}
			}
		}
		if least == nil {
			break
		}
		var enc postingsEncoder
		var coll int64
		for si, s := range segs {
			id := cur[si]
			if int(id) >= s.NumTerms() || !bytes.Equal(s.termAt(id), least) {
				continue
			}
			cur[si]++
			// A positional walk decodes the positions stream beside the
			// postings; Positions() reuses a scratch slice, which
			// addWithPositions consumes at once.
			it := s.positionsByID(id)
			for (out.positions && it.Next()) || (!out.positions && it.it.Next()) {
				if nd := remap[si][it.Doc()]; nd >= 0 {
					if out.positions {
						enc.addWithPositions(nd, it.Positions())
					} else {
						enc.add(nd, it.Freq())
					}
					coll += int64(it.Freq())
				}
			}
		}
		if l := enc.finish(); l.df > 0 {
			l.term, l.collFreq = string(least), coll
			out.lists = append(out.lists, l)
		}
	}
	// Bounds and block maxima are computed from the merged postings when
	// they are written, not stitched from the inputs: merged blocks
	// straddle input-segment boundaries.
	// An error means the merged documents exceed what the format
	// addresses (2^28 documents or terms, 4 GiB sections).
	merged, err := openFile(out.write())
	if err != nil {
		return nil, nil, err
	}
	return merged, remap, nil
}
