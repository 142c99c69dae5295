package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// A segment file is in format v05, the only version any code writes or
// reads. It is laid out in independently addressable sections so a
// remote reader can open a segment without streaming the whole file:
//
//	[header]   magic "WSBIDX05", encoding byte (always 2, packed),
//	           flags (bit 0: positional), BM25 params, counts
//	[docs]     document lengths and stored fields
//	[dict]     per-term dictionary entries: term, docFreq, collFreq,
//	           maxScore, posting-list byte length, positions-stream
//	           byte length (positional segments only), block-max
//	           bounds, and the serialized skip table (doc, byte pos, used)
//	[postings] per term in term order, the packed posting list followed
//	           by its positions stream (positional segments only)
//	[footer]   fixed 40 bytes: docOff, dictOff, postOff, fileSize, magic
//
// The footer is the entry point for range readers: fetch the last
// SegmentFooterLen bytes, then the [0, postOff) prefix — everything a
// searcher needs except posting bytes — and demand-load individual
// posting blocks with range reads. Serialized skip tables are what make
// that possible: their byte positions are exactly the packed block
// boundaries, so block k of a term's list is the range between
// consecutive checkpoints and can be fetched without decoding anything
// before it.

// SegmentFooterLen is the size of the fixed v05 trailer.
const SegmentFooterLen = 40

var segmentMagic = [8]byte{'W', 'S', 'B', 'I', 'D', 'X', '0', '5'}

// packedEncoding is the header's encoding byte. Packed is the only
// posting-list format; other values come from retired encodings.
const packedEncoding = 2

// SegmentLayout is the section map carried by a v05 footer. Offsets are
// absolute file offsets; FileSize includes the footer itself.
type SegmentLayout struct {
	DocOff   int64
	DictOff  int64
	PostOff  int64
	FileSize int64
}

// ParseSegmentFooter decodes the trailing SegmentFooterLen bytes of a
// v05 segment file.
func ParseSegmentFooter(tail []byte) (SegmentLayout, error) {
	var l SegmentLayout
	if len(tail) != SegmentFooterLen {
		return l, fmt.Errorf("index: segment footer is %d bytes, want %d", len(tail), SegmentFooterLen)
	}
	if [8]byte(tail[32:]) != segmentMagic {
		return l, fmt.Errorf("%w: bad footer magic %q", ErrBadFormat, tail[32:])
	}
	l.DocOff = int64(binary.LittleEndian.Uint64(tail[0:]))
	l.DictOff = int64(binary.LittleEndian.Uint64(tail[8:]))
	l.PostOff = int64(binary.LittleEndian.Uint64(tail[16:]))
	l.FileSize = int64(binary.LittleEndian.Uint64(tail[24:]))
	if l.DocOff <= 0 || l.DictOff < l.DocOff || l.PostOff < l.DictOff || l.FileSize < l.PostOff+SegmentFooterLen {
		return l, fmt.Errorf("%w: implausible footer offsets %+v", ErrBadFormat, l)
	}
	return l, nil
}

// segmentParts is what a segment file is written from: the documents in
// docID order and the terms in sorted order with their finished lists.
type segmentParts struct {
	positions bool
	bm25      BM25Params
	docLens   []int32
	stored    encoder // every document's stored fields, in docID order
	lists     []termList
}

// termList is one term's finished posting list, positions stream and
// skip table, as the writer takes them.
type termList struct {
	term     string
	buf, pos []byte
	skips    []skipEntry
	df       int32
	collFreq int64
}

// storedDoc appends one document's stored fields.
func (e *encoder) storedDoc(d StoredDoc) {
	e.str(d.URL)
	e.str(d.Title)
	e.f32(d.Quality)
	e.str(d.Snippet)
}

// write serializes the parts in the v05 layout into a buffer of exactly
// the file's size: the one writer, behind Finalize and
// MergeSegmentsFiltered, which open what it wrote. Each term's bounds
// (its MaxScore and block maxima) come from one walk of its list under
// the documents' length norms.
func (p *segmentParts) write() []byte {
	var totalLen int64
	for _, l := range p.docLens {
		totalLen += int64(l)
	}
	norms := p.bm25.lengthNorms(p.docLens, float64(totalLen)/float64(max(1, len(p.docLens))))

	// The dictionary is encoded first, into its own buffer, so the file
	// is then assembled in one buffer of its exact size.
	var dict encoder
	var blocks []float32
	postLen := 0
	for _, l := range p.lists {
		var maxScore float32
		idf := IDF(int64(len(p.docLens)), int64(l.df))
		maxScore, blocks = p.bm25.blockBounds(l.buf, l.df, idf, norms, blocks[:0])
		dict.str(l.term)
		dict.u32(uint32(l.df))
		dict.u64(uint64(l.collFreq))
		dict.f32(maxScore)
		dict.uvarint(uint64(len(l.buf)))
		if p.positions {
			dict.uvarint(uint64(len(l.pos)))
		}
		dict.uvarint(uint64(len(blocks)))
		for _, m := range blocks {
			dict.f32(m)
		}
		dict.uvarint(uint64(len(l.skips)))
		for k, e := range l.skips {
			dict.uvarint(uint64(e.doc))
			dict.uvarint(uint64(e.pos))
			dict.uvarint(uint64(k+1) * skipInterval)
		}
		postLen += len(l.buf) + len(l.pos)
	}
	var lens encoder
	for _, l := range p.docLens {
		lens.uvarint(uint64(l))
	}

	const headerLen = 42 // magic, encoding, flags, BM25 params, counts, total length
	docOff := headerLen
	dictOff := docOff + len(lens) + len(p.stored)
	postOff := dictOff + len(dict)
	fileSize := postOff + postLen + SegmentFooterLen
	img := make(encoder, 0, fileSize)
	img.bytes(segmentMagic[:])
	img.u8(packedEncoding)
	flags := uint8(0)
	if p.positions {
		flags |= 1
	}
	img.u8(flags)
	img.f64(p.bm25.K1)
	img.f64(p.bm25.B)
	img.u32(uint32(len(p.docLens)))
	img.u32(uint32(len(p.lists)))
	img.u64(uint64(totalLen))
	img.bytes(lens)
	img.bytes(p.stored)
	img.bytes(dict)
	for _, l := range p.lists {
		img.bytes(l.buf)
		img.bytes(l.pos)
	}
	img.u64(uint64(docOff))
	img.u64(uint64(dictOff))
	img.u64(uint64(postOff))
	img.u64(uint64(fileSize))
	img.bytes(segmentMagic[:])
	return img
}

// WriteTo writes the segment's file. It implements io.WriterTo. A lazy
// segment, which holds no postings, cannot be written.
func (s *Segment) WriteTo(w io.Writer) (int64, error) {
	if s.src != nil {
		return 0, fmt.Errorf("index: cannot serialize a lazily-loaded segment")
	}
	n, err := w.Write(s.data)
	return int64(n), err
}

// checkMagic rejects an image that does not start like a v05 file.
func checkMagic(d *decoder) error {
	magic := d.next(8)
	if d.err != nil {
		return d.err
	}
	if [8]byte(magic) != segmentMagic {
		if [6]byte(magic) == [6]byte(segmentMagic[:]) {
			return fmt.Errorf("%w: segment format v%s is not supported (only v%s is); rebuild the index with cmd/indexer",
				ErrBadFormat, magic[6:], segmentMagic[6:])
		}
		return ErrBadFormat
	}
	if enc := d.u8(); d.err == nil && enc != packedEncoding {
		return fmt.Errorf("%w: posting encoding %d is not supported (only packed, %d, is); rebuild the index with cmd/indexer",
			ErrBadFormat, enc, packedEncoding)
	}
	return d.err
}

// openFile opens a whole segment file held in memory; its footer is its
// layout. The magic is checked first, so a file of another format or
// version is refused as such rather than as a bad footer.
func openFile(data []byte) (*Segment, error) {
	if err := checkMagic(&decoder{b: data}); err != nil {
		return nil, err
	}
	l, err := ParseSegmentFooter(data[max(0, len(data)-SegmentFooterLen):])
	if err != nil {
		return nil, err
	}
	return openSegment(data, l, nil)
}

// openSegment is the one opener every segment goes through: it decodes
// the header, document and dictionary sections of data into the
// segment's directory, checking every field against the file as layout
// describes it. data is the whole file, or with src the lazy prefix
// [0, PostOff). The dictionary's list lengths must add up to the
// postings section either way, so no read can leave it. Posting bytes
// are not decoded (ReadSegment validates them).
func openSegment(data []byte, l SegmentLayout, src BlockReader) (*Segment, error) {
	d := &decoder{b: data}
	if err := checkMagic(d); err != nil {
		return nil, err
	}
	s := &Segment{data: data, layout: l, src: src}
	flags := d.u8()
	if flags&^uint8(1) != 0 {
		return nil, fmt.Errorf("index: unknown flags %#x", flags)
	}
	s.positions = flags&1 != 0
	s.bm25.K1 = d.f64()
	s.bm25.B = d.f64()
	numDocs, numTerms := d.u32(), d.u32()
	s.totalLen = int64(d.u64())
	if d.err != nil {
		return nil, fmt.Errorf("index: segment header: %w", d.err)
	}
	const maxCount = 1 << 28
	if numDocs > maxCount || numTerms > maxCount {
		return nil, fmt.Errorf("index: implausible counts docs=%d terms=%d", numDocs, numTerms)
	}
	size, post := l.FileSize, l.FileSize-SegmentFooterLen-l.PostOff
	if src != nil {
		size = l.PostOff
	}
	switch {
	case int64(len(data)) != size:
		return nil, fmt.Errorf("index: segment image is %d bytes, its footer says %d", len(data), size)
	case l.DocOff != int64(d.off):
		return nil, fmt.Errorf("index: footer places documents at %d, the header ends at %d", l.DocOff, d.off)
	case l.PostOff > math.MaxUint32 || post > math.MaxUint32:
		return nil, fmt.Errorf("index: segment sections of %d and %d bytes exceed 4 GiB", l.PostOff, post)
	case uint64(numDocs)+uint64(numTerms) > uint64(len(data)-d.off):
		// Every document and term takes at least a byte: the counts are
		// checked against the image before anything is sized by them.
		return nil, fmt.Errorf("index: %d documents and %d terms do not fit %d bytes", numDocs, numTerms, len(data)-d.off)
	}

	s.docLens = make([]int32, numDocs)
	for i := range s.docLens {
		s.docLens[i] = int32(d.uvarint())
	}
	if d.err != nil {
		return nil, fmt.Errorf("index: doc lengths: %w", d.err)
	}
	s.stored = make([]uint32, numDocs)
	for i := range s.stored {
		s.stored[i] = uint32(d.off)
		d.str()
		d.str()
		d.f32()
		d.str()
		if d.err != nil {
			return nil, fmt.Errorf("index: stored doc %d: %w", i, d.err)
		}
	}
	if l.DictOff != int64(d.off) {
		return nil, fmt.Errorf("index: footer places the dictionary at %d, documents end at %d", l.DictOff, d.off)
	}

	s.terms = make([]termEntry, numTerms)
	var prev []byte
	var postAt uint64
	for id := range s.terms {
		s.terms[id] = termEntry{dict: uint32(d.off), post: uint32(postAt), skip: uint32(len(s.skips))}
		t := d.str()
		df := int32(d.u32())
		d.u64() // collection frequency
		d.f32() // MaxScore
		plen := d.uvarint()
		var posLen uint64
		if s.positions {
			posLen = d.uvarint()
		}
		if d.err != nil {
			return nil, fmt.Errorf("index: term %d dictionary entry: %w", id, d.err)
		}
		if id > 0 && string(t) <= string(prev) {
			return nil, fmt.Errorf("index: term %q follows %q out of order", t, prev)
		}
		prev = t
		if df < 0 || uint32(df) > numDocs {
			return nil, fmt.Errorf("index: term %q doc freq %d exceeds %d documents", t, df, numDocs)
		}
		if plen > uint64(post)-postAt || posLen > uint64(post)-postAt-plen {
			return nil, fmt.Errorf("index: term %q lists of %d+%d bytes overrun the %d-byte postings section", t, plen, posLen, post)
		}
		postAt += plen + posLen
		want := numBlocksFor(df)
		if n := d.uvarint(); d.err == nil && n != uint64(want) {
			return nil, fmt.Errorf("index: term %q has %d block maxima, want %d", t, n, want)
		}
		for raw := d.next(4 * uint64(want)); len(raw) > 0; raw = raw[4:] {
			s.blockMaxes = append(s.blockMaxes, math.Float32frombits(binary.LittleEndian.Uint32(raw)))
		}
		if n := d.uvarint(); d.err == nil && n != uint64(want-1) {
			return nil, fmt.Errorf("index: term %q has %d skip entries, want %d", t, n, want-1)
		}
		prevDoc, prevPos := int64(-1), uint64(0)
		for j := 0; j < want-1 && d.err == nil; j++ {
			doc, pos, used := d.uvarint(), d.uvarint(), d.uvarint()
			// Checkpoints must advance through the list: docIDs strictly
			// increasing within range, byte positions non-decreasing and
			// bounded by the list length, used counts exactly one
			// skipInterval apart. A publisher bug or bit flip here would
			// otherwise send block-granular reads to garbage offsets.
			if d.err == nil && (int64(doc) <= prevDoc || doc >= uint64(numDocs) ||
				pos < prevPos || pos > plen || used != uint64(j+1)*skipInterval) {
				return nil, fmt.Errorf("index: term %q skip entry %d (doc=%d pos=%d used=%d) is inconsistent", t, j, doc, pos, used)
			}
			prevDoc, prevPos = int64(doc), pos
			s.skips = append(s.skips, skipEntry{doc: int32(doc), pos: int32(pos)})
		}
		if d.err != nil {
			return nil, fmt.Errorf("index: term %q skip table: %w", t, d.err)
		}
	}
	if l.PostOff != int64(d.off) {
		return nil, fmt.Errorf("index: footer places postings at %d, the dictionary ends at %d", l.PostOff, d.off)
	}
	if postAt != uint64(post) {
		return nil, fmt.Errorf("index: dictionary lists %d posting bytes, the postings section holds %d", postAt, post)
	}
	s.skips = slices.Clone(s.skips)
	s.blockMaxes = slices.Clone(s.blockMaxes)
	s.lengthNorms = s.bm25.lengthNorms(s.docLens, s.AvgDocLen())
	s.indexTerms()
	return s, nil
}

// ReadSegment reads a segment written by WriteTo: the whole file, then
// the one opener, then a decode of every posting list against the
// dictionary (validate). Any other container version is rejected with
// an error wrapping ErrBadFormat.
func ReadSegment(r io.Reader) (*Segment, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	// The segment keeps the buffer, so it gets one of the file's size.
	s, err := openFile(bytes.Clone(data))
	if err != nil {
		return nil, err
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// validate decodes every posting list once and rejects lists that
// deliver the wrong number of postings, documents out of order or range,
// or checkpoints other than the dictionary's skip table: corruption the
// per-read decoders cannot always detect (a bit flip in a varint delta
// still decodes, to a docID that would crash scoring later), and a check
// that the block boundaries remote readers trust are the ones the data
// has. A positions stream must hold, per posting, increasing positions
// inside the document and end exactly with the list.
func (s *Segment) validate() error {
	numDocs := int32(len(s.docLens))
	for id := range s.terms {
		e := s.entry(int32(id))
		skips, _ := s.skipsOf(int32(id), e.DocFreq)
		p := s.positionsByID(int32(id))
		n, last := int32(0), int32(-1)
		for (s.positions && p.Next()) || (!s.positions && p.it.Next()) {
			d := p.Doc()
			if d <= last || d >= numDocs {
				return fmt.Errorf("index: term %q posting %d: docID %d out of order or range (prev %d, docs %d)",
					e.term, n, d, last, numDocs)
			}
			if s.positions {
				prev := int32(-1)
				for _, pos := range p.Positions() {
					if pos <= prev || pos >= s.docLens[d] {
						return fmt.Errorf("index: term %q doc %d: position %d out of order or range", e.term, d, pos)
					}
					prev = pos
				}
			}
			last = d
			n++
			if k := int(n/skipInterval) - 1; n%skipInterval == 0 && k < len(skips) {
				if got := (skipEntry{doc: d, pos: int32(p.it.pos)}); skips[k] != got {
					return fmt.Errorf("index: term %q skip entry %d mismatch: serialized %+v, derived %+v", e.term, k, skips[k], got)
				}
			}
		}
		if n != e.DocFreq {
			return fmt.Errorf("index: term %q posting list decoded %d postings, want %d", e.term, n, e.DocFreq)
		}
		if p.end != len(p.stream) {
			return fmt.Errorf("index: term %q positions stream has %d trailing bytes", e.term, len(p.stream)-p.end)
		}
	}
	return nil
}
