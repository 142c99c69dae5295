package index

import "math/bits"

// Posting lists: postings are grouped into blocks of packedBlockLen
// entries, aligned with the skip/block-max interval, and each full block
// is frame-of-reference bit-packed at the block's minimal fixed
// bit-width. The final partial block (count % packedBlockLen postings)
// is a plain varint tail continuing the same delta chain.
//
// Full-block layout:
//
//	[docBits u8][freqBits u8]
//	[uvarint firstGap]            // first docID − previous posting's docID
//	[uvarint freqRef]             // minimum freq in the block
//	[63 × (gap−1)  @ docBits]     // remaining docID gaps, bias −1
//	[64 × (freq−freqRef) @ freqBits]
//
// Each packed section is byte-aligned (ceil(n·width/8) bytes). Gaps are
// stored biased by −1 — docIDs are strictly increasing, so every gap
// after the first is ≥ 1 — which makes dense runs pack at width 0 (zero
// payload bytes). freqRef is a true frame of reference: uniform-frequency
// blocks also pack at width 0.
//
// Decoding is batched: the iterator decodes a whole block into inline
// scratch arrays with branch-light unpack loops, so Next() on the hot
// path is an array read rather than a per-posting varint decode.

// packedBlockLen is the number of postings per packed block. It must
// equal skipInterval: skip-table checkpoints and block-max blocks land
// exactly on packed block boundaries, so SkipTo can jump to a checkpoint
// and decode a single block.
const packedBlockLen = skipInterval

// maxPackedWidth bounds the per-block bit-widths. Doc gaps and freq
// offsets are positive int32 quantities, so a stored width above 31
// means corruption.
const maxPackedWidth = 31

// appendPacked appends len(vals) width-bit values to buf, little-endian
// bit order, byte-aligned at the end. Width 0 appends nothing.
func appendPacked(buf []byte, vals []int32, width uint8) []byte {
	if width == 0 {
		return buf
	}
	var acc uint64
	var nbits uint
	for _, v := range vals {
		acc |= uint64(uint32(v)) << nbits
		nbits += uint(width)
		for nbits >= 8 {
			buf = append(buf, byte(acc))
			acc >>= 8
			nbits -= 8
		}
	}
	if nbits > 0 {
		buf = append(buf, byte(acc))
	}
	return buf
}

// unpackInto decodes len(dst) width-bit values from src into dst and
// returns the number of bytes consumed, or -1 if src is too short or the
// width is implausible. The inner loop is branch-light: one accumulator,
// no per-value function calls.
func unpackInto(dst []int32, src []byte, width uint8) int {
	if width == 0 {
		clear(dst)
		return 0
	}
	if width > maxPackedWidth {
		return -1
	}
	need := (len(dst)*int(width) + 7) / 8
	if len(src) < need {
		return -1
	}
	mask := uint64(1)<<width - 1
	w := uint(width)
	var acc uint64
	var nbits uint
	off := 0
	for i := range dst {
		for nbits < w {
			acc |= uint64(src[off]) << nbits
			off++
			nbits += 8
		}
		dst[i] = int32(acc & mask)
		acc >>= w
		nbits -= w
	}
	return need
}

// packedWidth returns the minimal bit-width holding v (0 for v == 0).
func packedWidth(v int32) uint8 {
	return uint8(bits.Len32(uint32(v)))
}

// flushPackedBlock encodes the encoder's pending full block and resets
// the pending counter. Callers guarantee e.pend == packedBlockLen.
func (e *postingsEncoder) flushPackedBlock() {
	docs := e.pendDocs[:packedBlockLen]
	freqs := e.pendFreqs[:packedBlockLen]

	var gaps [packedBlockLen - 1]int32
	var maxGap int32
	for i := 1; i < packedBlockLen; i++ {
		g := docs[i] - docs[i-1] - 1
		gaps[i-1] = g
		if g > maxGap {
			maxGap = g
		}
	}
	minF, maxF := freqs[0], freqs[0]
	for _, f := range freqs[1:] {
		if f < minF {
			minF = f
		}
		if f > maxF {
			maxF = f
		}
	}
	docBits := packedWidth(maxGap)
	freqBits := packedWidth(maxF - minF)

	e.buf = append(e.buf, docBits, freqBits)
	e.buf = appendUvarint(e.buf, uint64(docs[0]-e.lastDoc))
	e.buf = appendUvarint(e.buf, uint64(minF))
	e.buf = appendPacked(e.buf, gaps[:], docBits)
	var offs [packedBlockLen]int32
	for i, f := range freqs {
		offs[i] = f - minF
	}
	e.buf = appendPacked(e.buf, offs[:], freqBits)

	e.lastDoc = docs[packedBlockLen-1]
	e.pend = 0
}

// finish writes the final partial block as a varint tail. Must be
// called once, after the last add.
func (e *postingsEncoder) finish() {
	for i := int32(0); i < e.pend; i++ {
		e.buf = appendUvarint(e.buf, uint64(e.pendDocs[i]-e.lastDoc))
		e.buf = appendUvarint(e.buf, uint64(e.pendFreqs[i]))
		e.lastDoc = e.pendDocs[i]
	}
	e.pend = 0
}

// decodeBlock decodes the next block — a full bit-packed block or the
// varint tail — into the iterator's scratch arrays. It returns false when
// nothing remains or the buffer is corrupt; callers treat both as
// exhaustion.
func (it *PostingsIterator) decodeBlock() bool {
	remaining := int(it.count)
	if remaining <= 0 {
		return false
	}
	prev := it.doc
	if prev < 0 {
		prev = 0
	}
	if remaining >= packedBlockLen {
		return it.decodeFullBlock(prev)
	}
	return it.decodePackedTail(prev, remaining)
}

// decodeFullBlock decodes one full bit-packed block starting at it.pos.
// The block's bytes are read through the iterator's window, so lazy
// (blob-served) lists pull exactly one block on demand.
func (it *PostingsIterator) decodeFullBlock(prev int32) bool {
	buf, base := it.window()
	pos := it.pos - base
	if pos+2 > len(buf) {
		return false
	}
	docBits, freqBits := buf[pos], buf[pos+1]
	pos += 2
	firstGap, n := uvarint(buf[pos:])
	if n == 0 || firstGap > uint64(exhaustedDoc) {
		return false
	}
	pos += n
	freqRef, n := uvarint(buf[pos:])
	if n == 0 || freqRef > uint64(exhaustedDoc) {
		return false
	}
	pos += n

	used := unpackInto(it.bDocs[1:], buf[pos:], docBits)
	if used < 0 {
		return false
	}
	pos += used
	d := prev + int32(firstGap)
	it.bDocs[0] = d
	for i := 1; i < packedBlockLen; i++ {
		d += it.bDocs[i] + 1
		it.bDocs[i] = d
	}

	used = unpackInto(it.bFreqs[:], buf[pos:], freqBits)
	if used < 0 {
		return false
	}
	pos += used
	ref := int32(freqRef)
	for i := range it.bFreqs {
		it.bFreqs[i] += ref
	}

	it.pos = base + pos
	it.bLen = packedBlockLen
	it.bIdx = 0
	return true
}

// decodePackedTail decodes the final partial block (remaining <
// packedBlockLen varint pairs continuing the delta chain).
func (it *PostingsIterator) decodePackedTail(prev int32, remaining int) bool {
	buf, base := it.window()
	pos := it.pos - base
	d := prev
	for i := 0; i < remaining; i++ {
		gap, n := uvarint(buf[pos:])
		if n == 0 {
			return false
		}
		pos += n
		f, n := uvarint(buf[pos:])
		if n == 0 {
			return false
		}
		pos += n
		d += int32(gap)
		it.bDocs[i] = d
		it.bFreqs[i] = int32(f)
	}
	it.pos = base + pos
	it.bLen = int32(remaining)
	it.bIdx = 0
	return true
}
