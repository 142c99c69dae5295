package index

import "math"

// Skip lists: long posting lists carry a sparse table of (docID, byte
// offset, postings consumed) checkpoints so SkipTo can jump over runs of
// postings instead of decoding them one by one — the structure that makes
// conjunctive (leapfrog) evaluation sublinear, exactly as in the Lucene
// index the benchmark serves with. Tables are built when a segment is
// finalized and serialized with it; their byte positions double as the
// block boundaries remote readers use for range fetches (see v05.go), so
// a whole-stream load rebuilds them and checks the two agree.
//
// Block-max metadata rides on the same block structure: each run of
// skipInterval postings between checkpoints is a "block", and the segment
// records the block's maximum BM25 contribution (quantized, rounded up so
// it stays a true upper bound). Block-Max pruning consults these bounds
// via NextShallow/BlockMax to rule out whole blocks without decoding a
// single posting. Block maxima are serialized too — they are exactly the
// per-block impact scores Lucene stores next to its skip data.
//
// Posting lists reuse this block structure directly: packedBlockLen ==
// skipInterval, so every bit-packed block is one skip block and one
// block-max block.

const (
	// skipInterval is the number of postings between checkpoints. It is
	// also the block length for block-max metadata.
	skipInterval = 64
	// skipMinDocFreq is the list length below which a table is not worth
	// building.
	skipMinDocFreq = 128
)

// skipEntry is the iterator state immediately after decoding a posting.
type skipEntry struct {
	doc  int32 // docID of the checkpoint posting
	pos  int32 // byte offset just past the checkpoint posting
	used int32 // postings consumed through the checkpoint (1-based)
}

// buildSkips constructs skip tables for all qualifying posting lists.
// skipInterval equals packedBlockLen, so every checkpoint lands exactly
// on a packed block boundary (the iterator's byte position just after
// posting k·skipInterval is the start of block k+1).
func (s *Segment) buildSkips() {
	s.skips = make([][]skipEntry, len(s.postings))
	for id, buf := range s.postings {
		if s.docFreqs[id] >= skipMinDocFreq {
			s.skips[id] = skipTable(newPostingsIterator(buf, s.docFreqs[id]))
		}
	}
}

// skipTable walks a posting list and checkpoints every
// skipInterval-th posting.
func skipTable(it PostingsIterator) []skipEntry {
	var table []skipEntry
	for i := int32(1); it.Next(); i++ {
		if i%skipInterval == 0 {
			table = append(table, skipEntry{doc: it.Doc(), pos: int32(it.pos), used: i})
		}
	}
	return table
}

// seekSkip jumps the iterator to the last checkpoint strictly before
// target, if one lies ahead of the current position. Entry k checkpoints
// posting (k+1)·skipInterval, so entries of consumed blocks sit at or
// below the current doc: the search starts at the current block's entry
// and gallops forward, O(log distance) where a conjunction's next target
// is usually a block or two ahead. Packed callers must have drained the
// decoded block, since the jump lands on a block boundary.
func (it *PostingsIterator) seekSkip(target int32) {
	skips := it.skips
	lo := int((it.initCount - it.count) / skipInterval)
	if lo >= len(skips) || skips[lo].doc >= target {
		return
	}
	// Invariant: skips[lo].doc < target, and hi is len(skips) or an
	// entry at or above target.
	hi, step := lo+1, 1
	for hi < len(skips) && skips[hi].doc < target {
		lo, step = hi, 2*step
		hi = min(lo+step, len(skips))
	}
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if skips[mid].doc < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	e := skips[lo]
	it.doc = e.doc
	it.pos = int(e.pos)
	it.count = it.initCount - e.used
}

// numBlocksFor returns the number of block-max blocks a posting list of
// the given length carries. Lists long enough for a skip table get one
// block per checkpoint plus a final (possibly partial) block; shorter
// lists are a single block bounded by the term-level MaxScore.
func numBlocksFor(df int32) int {
	if df < skipMinDocFreq {
		return 1
	}
	return int(df/skipInterval) + 1
}

// quantizeUp converts an exact bound to float32 without ever rounding
// below it: a bound that rounds down stops being a bound.
func quantizeUp(x float64) float32 {
	f := float32(x)
	if float64(f) < x {
		f = math.Nextafter32(f, math.MaxFloat32)
	}
	return f
}

// computeBlockMaxes records, for every posting list, the maximum BM25
// contribution within each skipInterval-long block. Must run after
// computeMaxScores.
func (s *Segment) computeBlockMaxes() {
	n := int64(len(s.docLens))
	s.blockMaxes = make([][]float32, len(s.postings))
	for id := range s.postings {
		df := s.docFreqs[id]
		if df < skipMinDocFreq {
			// One block covering the whole list: the exact term-level
			// bound already stored in the dictionary.
			s.blockMaxes[id] = []float32{s.maxScores[id]}
			continue
		}
		idf := IDF(n, int64(df))
		blocks := make([]float32, numBlocksFor(df))
		it := newPostingsIterator(s.postings[id], df)
		var blockMax float64
		for i := int32(1); it.Next(); i++ {
			sc := s.bm25.ScoreNorm(idf, it.Freq(), s.lengthNorms[it.Doc()])
			if sc > blockMax {
				blockMax = sc
			}
			if i%skipInterval == 0 {
				blocks[i/skipInterval-1] = quantizeUp(blockMax)
				blockMax = 0
			}
		}
		blocks[len(blocks)-1] = quantizeUp(blockMax)
		s.blockMaxes[id] = blocks
	}
}

// NextShallow advances the shallow block cursor — without decoding any
// posting — to the first block that can contain a docID >= target. It
// returns false when the iterator carries no block metadata. Targets
// must be non-decreasing across calls (the cursor only moves forward),
// which document-at-a-time evaluation guarantees; successive calls are
// therefore amortized O(1).
func (it *PostingsIterator) NextShallow(target int32) bool {
	if len(it.blockMaxes) == 0 {
		return false
	}
	// Block j ends at skips[j].doc; the final block runs to the end of
	// the list (its boundary is unbounded, so the cursor stops there).
	for it.shallow < len(it.skips) && it.skips[it.shallow].doc < target {
		it.shallow++
	}
	return true
}

// BlockMax returns an upper bound on the term's BM25 contribution over
// the current shallow block (the block NextShallow last positioned on).
// With no block metadata (an iterator without skips) it returns +Inf, so
// it never prunes incorrectly.
func (it *PostingsIterator) BlockMax() float64 {
	if it.shallow < len(it.blockMaxes) {
		return float64(it.blockMaxes[it.shallow])
	}
	return math.Inf(1)
}
