package index

import "math"

// Skip lists: long posting lists carry a sparse table of (docID, byte
// offset, postings consumed) checkpoints so SkipTo can jump over runs of
// postings instead of decoding them one by one — the structure that makes
// conjunctive (leapfrog) evaluation sublinear, exactly as in the Lucene
// index the benchmark serves with. The encoder records a checkpoint as
// it flushes each block, and the table is serialized with the list; its
// byte positions double as the block boundaries remote readers use for
// range fetches (see v05.go), so a whole-file load re-derives them while
// it decodes the list and checks the two agree.
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

// skipEntry is the iterator state immediately after decoding posting
// (k+1)·skipInterval, for entry k of a table: the file also records that
// count, which is the entry's position and so not held in memory.
type skipEntry struct {
	doc int32 // docID of the checkpoint posting
	pos int32 // byte offset just past the checkpoint posting
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
	it.count = it.initCount - int32(lo+1)*skipInterval
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

// blockBounds walks one posting list and returns its exact term-level
// bound, the one MaxScore pruning uses, and its block maxima appended to
// blocks: one per skipInterval postings plus the final (possibly empty)
// block on a list long enough for a skip table, else the term-level
// bound alone. Every bound is quantized upward, so the float32 never
// dips below the true maximum.
func (p BM25Params) blockBounds(list []byte, df int32, idf float64, norms []float64, blocks []float32) (float32, []float32) {
	it := newPostingsIterator(list, df)
	var top, blockMax float64
	for i := int32(1); it.Next(); i++ {
		sc := p.ScoreNorm(idf, it.Freq(), norms[it.Doc()])
		if sc > blockMax {
			blockMax = sc
		}
		if sc > top {
			top = sc
		}
		if df >= skipMinDocFreq && i%skipInterval == 0 {
			blocks = append(blocks, quantizeUp(blockMax))
			blockMax = 0
		}
	}
	if df < skipMinDocFreq {
		return quantizeUp(top), append(blocks, quantizeUp(top))
	}
	return quantizeUp(top), append(blocks, quantizeUp(blockMax))
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
	for int(it.shallow) < len(it.skips) && it.skips[it.shallow].doc < target {
		it.shallow++
	}
	return true
}

// BlockMax returns an upper bound on the term's BM25 contribution over
// the current shallow block (the block NextShallow last positioned on).
// With no block metadata (an iterator without skips) it returns +Inf, so
// it never prunes incorrectly.
func (it *PostingsIterator) BlockMax() float64 {
	if int(it.shallow) < len(it.blockMaxes) {
		return float64(it.blockMaxes[it.shallow])
	}
	return math.Inf(1)
}

// BlockLast returns the last docID of the current shallow block — the
// block NextShallow last positioned on — or the exhausted sentinel for
// the list's final block, which runs to the end. NextShallow(BlockLast()+1)
// moves the cursor to the following block.
func (it *PostingsIterator) BlockLast() int32 {
	if int(it.shallow) < len(it.skips) {
		return it.skips[it.shallow].doc
	}
	return exhaustedDoc
}
