package index

// postingsEncoder incrementally encodes a posting list in the packed
// format (packed.go) and, for positional lists, the positions stream
// beside it (positions.go).
type postingsEncoder struct {
	buf     []byte
	pos     []byte // positions stream; positional lists only
	lastDoc int32
	count   int32
	// skips checkpoints every flushed block; finish drops the table of a
	// list too short to carry one.
	skips []skipEntry
	// Postings are buffered a block at a time and flushed bit-packed;
	// finish() writes the final partial block as a varint tail.
	pend      int32
	pendDocs  [packedBlockLen]int32
	pendFreqs [packedBlockLen]int32
}

// add appends a posting. Documents must be added in strictly increasing
// docID order.
func (e *postingsEncoder) add(docID int32, freq int32) {
	e.pendDocs[e.pend] = docID
	e.pendFreqs[e.pend] = freq
	e.pend++
	e.count++
	if e.pend == packedBlockLen {
		e.flushPackedBlock()
		e.skips = append(e.skips, skipEntry{doc: docID, pos: int32(len(e.buf))})
	}
}

// PostingsIterator walks one term's posting list in increasing docID order.
// The zero value is an exhausted iterator.
type PostingsIterator struct {
	pos        int
	doc        int32
	freq       int32
	count      int32 // postings remaining
	initCount  int32 // total list length, for skip arithmetic
	skips      []skipEntry
	blockMaxes []float32 // per-block score bounds, aligned with skips
	shallow    int       // current block of the shallow (non-decoding) cursor

	// The list's bytes are read through a sliding window: win holds the
	// bytes of one block, winBase is win[0]'s offset within the posting
	// list, and lazy pulls the block containing a byte offset on demand
	// (blob-served lists). Fully resident iterators set win to the
	// whole list, winBase = 0 and lazy = nil.
	win     []byte
	winBase int
	lazy    *lazyList

	// The current block decoded into inline scratch arrays. Inline (not
	// pointers) so iterators stay allocation-free; bIdx/bLen delimit the
	// undelivered postings.
	bIdx   int32
	bLen   int32
	bDocs  [packedBlockLen]int32
	bFreqs [packedBlockLen]int32
}

// newPostingsIterator returns an iterator over an encoded posting list
// holding count postings.
func newPostingsIterator(buf []byte, count int32) PostingsIterator {
	return PostingsIterator{win: buf, count: count, initCount: count, doc: -1}
}

// window returns the byte window containing it.pos and the window's
// offset within the posting list. Fully resident iterators return
// (buf, 0); lazy iterators pull the enclosing block through their list when
// the cursor has left the current window. A failed fetch yields an
// empty window based at it.pos, which every decode path treats as a
// truncated (exhausted) list rather than a crash.
func (it *PostingsIterator) window() ([]byte, int) {
	if it.lazy == nil || (it.pos >= it.winBase && it.pos < it.winBase+len(it.win)) {
		return it.win, it.winBase
	}
	it.win, it.winBase = it.lazy.window(it.pos)
	if it.pos < it.winBase || it.pos > it.winBase+len(it.win) {
		// A window that does not cover the cursor would make the relative
		// position negative or past the end; normalize to empty-at-cursor.
		it.win, it.winBase = nil, it.pos
	}
	return it.win, it.winBase
}

// Next advances to the next posting. It returns false when the list is
// exhausted. It refills the scratch block when drained, then serves
// postings as plain array reads.
func (it *PostingsIterator) Next() bool {
	if it.count <= 0 || (it.bIdx >= it.bLen && !it.decodeBlock()) {
		it.count = 0
		it.doc = exhaustedDoc
		return false
	}
	it.doc = it.bDocs[it.bIdx]
	it.freq = it.bFreqs[it.bIdx]
	it.bIdx++
	it.count--
	return true
}

// Run returns the current posting and the postings after it in the
// decoded block whose docIDs are below upTo, docIDs and frequencies
// aligned, and leaves the iterator on the last posting returned: the next
// Next continues after the run. The run is empty when the iterator is not
// on a posting below upTo (not yet advanced, exhausted, or at or past
// upTo). The slices alias the iterator and are valid until it next moves.
func (it *PostingsIterator) Run(upTo int32) (docs, freqs []int32) {
	if it.doc < 0 || it.doc >= upTo {
		return nil, nil
	}
	start, end := it.bIdx-1, it.bLen
	if it.bDocs[end-1] >= upTo {
		end = it.bIdx
		for it.bDocs[end] < upTo {
			end++
		}
	}
	it.count -= end - it.bIdx
	it.bIdx = end
	it.doc, it.freq = it.bDocs[end-1], it.bFreqs[end-1]
	return it.bDocs[start:end], it.bFreqs[start:end]
}

// exhaustedDoc sorts after every valid docID so exhausted iterators fall
// out of merge frontiers naturally.
const exhaustedDoc = int32(1<<31 - 1)

// SkipTo advances the iterator to the first posting with docID >= target.
// It returns false if no such posting exists. The iterator must have been
// advanced at least once by Next before calling SkipTo, or target must be
// >= 0 (both are satisfied by normal conjunction loops).
//
// It moves a block at a time, as in Lucene's block postings advance: a
// target at or below the decoded block's last doc is found by scanning
// the block, touching neither the skip table nor the decoder; a decoded
// block wholly below the target is dropped in one step, its last doc
// kept as the base of the next block's delta chain; only then does the
// skip table pick the landing block, which alone is decoded. A block is
// therefore decoded only if it holds a posting the call may return, so
// lazy lists fetch no block they jump over.
func (it *PostingsIterator) SkipTo(target int32) bool {
	if it.doc >= target {
		return true
	}
	for {
		if it.bIdx < it.bLen {
			docs := it.bDocs[it.bIdx:it.bLen]
			if docs[len(docs)-1] >= target {
				i := 0
				for docs[i] < target {
					i++
				}
				it.doc, it.freq = docs[i], it.bFreqs[int(it.bIdx)+i]
				it.bIdx += int32(i) + 1
				it.count -= int32(i) + 1
				return true
			}
			it.count -= int32(len(docs))
			it.doc = docs[len(docs)-1]
			it.bIdx = it.bLen
		}
		it.seekSkip(target)
		if !it.decodeBlock() {
			it.count = 0
			it.doc = exhaustedDoc
			return false
		}
	}
}

// Doc returns the current docID. Valid only after Next returned true.
func (it *PostingsIterator) Doc() int32 { return it.doc }

// Freq returns the current within-document term frequency.
func (it *PostingsIterator) Freq() int32 { return it.freq }

// Exhausted reports whether the iterator has run out of postings.
func (it *PostingsIterator) Exhausted() bool { return it.doc == exhaustedDoc }
