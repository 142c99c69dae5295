package index

import (
	"encoding/binary"
	"fmt"
)

// Compression selects the posting-list encoding.
type Compression uint8

const (
	// CompressionVarint stores (docID delta, freq) pairs as unsigned
	// varints — the encoding positional segments require.
	CompressionVarint Compression = iota
	// CompressionRaw stores fixed 4-byte little-endian docIDs and freqs,
	// kept for the compression ablation study.
	CompressionRaw
	// CompressionPacked stores postings in skipInterval-long blocks,
	// frame-of-reference bit-packed at each block's minimal bit-width,
	// with a varint tail for the final partial block (see packed.go).
	// The default encoding.
	CompressionPacked
)

func (c Compression) String() string {
	switch c {
	case CompressionVarint:
		return "varint"
	case CompressionRaw:
		return "raw"
	case CompressionPacked:
		return "packed"
	default:
		return fmt.Sprintf("Compression(%d)", uint8(c))
	}
}

// postingsEncoder incrementally encodes a posting list.
type postingsEncoder struct {
	comp    Compression
	buf     []byte
	lastDoc int32
	count   int32
	// Packed encoding buffers a block of postings before flushing it
	// bit-packed; finish() writes the final partial block as a varint
	// tail.
	pend      int32
	pendDocs  [packedBlockLen]int32
	pendFreqs [packedBlockLen]int32
}

// add appends a posting. Documents must be added in strictly increasing
// docID order. Packed encoders buffer postings until a block fills (or
// finish is called); the other encodings stream.
func (e *postingsEncoder) add(docID int32, freq int32) {
	switch e.comp {
	case CompressionVarint:
		e.buf = appendUvarint(e.buf, uint64(docID-e.lastDoc))
		e.buf = appendUvarint(e.buf, uint64(freq))
		e.lastDoc = docID
	case CompressionRaw:
		e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(docID))
		e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(freq))
	case CompressionPacked:
		e.pendDocs[e.pend] = docID
		e.pendFreqs[e.pend] = freq
		e.pend++
		if e.pend == packedBlockLen {
			e.flushPackedBlock()
		}
	}
	e.count++
}

// PostingsIterator walks one term's posting list in increasing docID order.
// The zero value is an exhausted iterator.
type PostingsIterator struct {
	comp Compression
	// positional marks lists that interleave encoded positions after
	// each (docDelta, freq) pair; the plain iterator skips them.
	positional bool
	buf        []byte
	pos        int
	doc        int32
	freq       int32
	count      int32 // postings remaining
	initCount  int32 // total list length, for skip arithmetic
	skips      []skipEntry
	blockMaxes []float32 // per-block score bounds, aligned with skips
	shallow    int       // current block of the shallow (non-decoding) cursor

	// Lazy (blob-served) lists decode through a sliding window instead of
	// a fully resident buf: win holds the bytes of one block, winBase is
	// win[0]'s offset within the posting list, and fetch pulls the block
	// containing a byte offset on demand. Fully resident iterators set
	// win = buf, winBase = 0, fetch = nil, making the window a no-op
	// aliasing of the usual buffer.
	win     []byte
	winBase int
	fetch   func(pos int) ([]byte, int)

	// Packed-encoding batch state: the current block decoded into inline
	// scratch arrays. Inline (not pointers) so iterators stay
	// allocation-free; bIdx/bLen delimit the undelivered postings.
	bIdx   int32
	bLen   int32
	bDocs  [packedBlockLen]int32
	bFreqs [packedBlockLen]int32
}

// newPostingsIterator returns an iterator over an encoded posting list
// holding count postings.
func newPostingsIterator(comp Compression, buf []byte, count int32) PostingsIterator {
	return PostingsIterator{comp: comp, buf: buf, win: buf, count: count, initCount: count, doc: -1}
}

// window returns the byte window containing it.pos and the window's
// offset within the posting list. Fully resident iterators return
// (buf, 0); lazy iterators pull the enclosing block through fetch when
// the cursor has left the current window. A failed fetch yields an
// empty window based at it.pos, which every decode path treats as a
// truncated (exhausted) list rather than a crash.
func (it *PostingsIterator) window() ([]byte, int) {
	if it.fetch == nil || (it.pos >= it.winBase && it.pos < it.winBase+len(it.win)) {
		return it.win, it.winBase
	}
	it.win, it.winBase = it.fetch(it.pos)
	if it.pos < it.winBase || it.pos > it.winBase+len(it.win) {
		// A window that does not cover the cursor would make the relative
		// position negative or past the end; normalize to empty-at-cursor.
		it.win, it.winBase = nil, it.pos
	}
	return it.win, it.winBase
}

// Next advances to the next posting. It returns false when the list is
// exhausted.
func (it *PostingsIterator) Next() bool {
	if it.count <= 0 {
		it.doc = exhaustedDoc
		return false
	}
	if it.comp == CompressionPacked {
		// Batch path: refill the scratch block when drained, then serve
		// postings as plain array reads.
		if it.bIdx >= it.bLen && !it.decodePackedBlock() {
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
	it.count--
	switch it.comp {
	case CompressionVarint:
		// One encoded posting (and its interleaved positions) never
		// crosses a block boundary, so a single window covers the whole
		// decode step.
		buf, base := it.window()
		pos := it.pos - base
		delta, n := uvarint(buf[pos:])
		pos += n
		f, n2 := uvarint(buf[pos:])
		pos += n2
		if n == 0 || n2 == 0 {
			// Truncated list: treat as exhausted rather than spinning.
			it.count = 0
			it.doc = exhaustedDoc
			return false
		}
		if it.doc < 0 {
			it.doc = int32(delta)
		} else {
			it.doc += int32(delta)
		}
		it.freq = int32(f)
		if it.positional {
			// Skip the interleaved position deltas.
			for i := int32(0); i < it.freq; i++ {
				_, n := uvarint(buf[pos:])
				if n == 0 {
					it.count = 0
					it.doc = exhaustedDoc
					return false
				}
				pos += n
			}
		}
		it.pos = base + pos
	case CompressionRaw:
		it.doc = int32(binary.LittleEndian.Uint32(it.buf[it.pos:]))
		it.freq = int32(binary.LittleEndian.Uint32(it.buf[it.pos+4:]))
		it.pos += 8
	}
	return true
}

// Run returns the current posting and the postings after it in the
// decoded block whose docIDs are below upTo, docIDs and frequencies
// aligned, and leaves the iterator on the last posting returned: the next
// Next continues after the run. Packed lists return up to a block's worth;
// varint and raw lists, which decode one posting at a time, return the
// current posting alone. The run is empty when the iterator is not on a
// posting below upTo (not yet advanced, exhausted, or at or past upTo).
// The slices alias the iterator and are valid until it next moves.
func (it *PostingsIterator) Run(upTo int32) (docs, freqs []int32) {
	if it.doc < 0 || it.doc >= upTo {
		return nil, nil
	}
	if it.comp != CompressionPacked {
		it.bDocs[0], it.bFreqs[0] = it.doc, it.freq
		return it.bDocs[:1], it.bFreqs[:1]
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
// >= 0 (both are satisfied by normal conjunction loops). Packed lists move
// a block at a time (see skipToPacked); long varint lists jump via their
// skip table and step from the checkpoint; raw lists binary-search their
// fixed-width records.
func (it *PostingsIterator) SkipTo(target int32) bool {
	if it.doc >= target {
		return true
	}
	switch it.comp {
	case CompressionPacked:
		return it.skipToPacked(target)
	case CompressionVarint:
		it.seekSkip(target)
	case CompressionRaw:
		it.seekRaw(target)
	}
	for it.doc < target {
		if !it.Next() {
			return false
		}
	}
	return true
}

// seekRaw binary-searches the fixed 8-byte records for the last docID
// strictly below target and repositions just past it.
func (it *PostingsIterator) seekRaw(target int32) {
	first := it.pos / 8 // next undecoded record index
	lo, hi := first, int(it.initCount)
	for lo < hi {
		mid := (lo + hi) / 2
		d := int32(binary.LittleEndian.Uint32(it.buf[mid*8:]))
		if d < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// lo is the first record with doc >= target; resume just before it
	// so the caller's Next lands on it. Only move forward.
	if lo > first {
		resume := lo - 1
		it.doc = int32(binary.LittleEndian.Uint32(it.buf[resume*8:]))
		it.freq = int32(binary.LittleEndian.Uint32(it.buf[resume*8+4:]))
		it.pos = (resume + 1) * 8
		it.count = it.initCount - int32(resume) - 1
	}
}

// Doc returns the current docID. Valid only after Next returned true.
func (it *PostingsIterator) Doc() int32 { return it.doc }

// Freq returns the current within-document term frequency.
func (it *PostingsIterator) Freq() int32 { return it.freq }

// Exhausted reports whether the iterator has run out of postings.
func (it *PostingsIterator) Exhausted() bool { return it.doc == exhaustedDoc }
