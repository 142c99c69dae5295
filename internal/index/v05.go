package index

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
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

// WriteTo serializes the segment in the sectioned v05 layout. It
// implements io.WriterTo.
func (s *Segment) WriteTo(w io.Writer) (int64, error) {
	if s.lazy != nil {
		return 0, fmt.Errorf("index: cannot serialize a lazily-loaded segment")
	}
	cw := &countingWriter{w: bufio.NewWriter(w)}
	cw.write(segmentMagic[:])
	cw.u8(packedEncoding)
	flags := uint8(0)
	if s.positions {
		flags |= 1
	}
	cw.u8(flags)
	cw.f64(s.bm25.K1)
	cw.f64(s.bm25.B)
	cw.u32(uint32(len(s.docLens)))
	cw.u32(uint32(len(s.termList)))
	cw.u64(uint64(s.totalLen))

	docOff := cw.n
	for _, l := range s.docLens {
		cw.uvarint(uint64(l))
	}
	for _, d := range s.docs {
		cw.str(d.URL)
		cw.str(d.Title)
		cw.f32(d.Quality)
		cw.str(d.Snippet)
	}

	dictOff := cw.n
	for id, t := range s.termList {
		cw.str(t)
		cw.u32(uint32(s.docFreqs[id]))
		cw.u64(uint64(s.collFreqs[id]))
		cw.f32(s.maxScores[id])
		cw.uvarint(uint64(len(s.postings[id])))
		if s.positions {
			cw.uvarint(uint64(len(s.posStreams[id])))
		}
		cw.uvarint(uint64(len(s.blockMaxes[id])))
		for _, m := range s.blockMaxes[id] {
			cw.f32(m)
		}
		cw.uvarint(uint64(len(s.skips[id])))
		for _, e := range s.skips[id] {
			cw.uvarint(uint64(e.doc))
			cw.uvarint(uint64(e.pos))
			cw.uvarint(uint64(e.used))
		}
	}

	postOff := cw.n
	for id := range s.termList {
		cw.write(s.postings[id])
		if s.positions {
			cw.write(s.posStreams[id])
		}
	}

	fileSize := cw.n + SegmentFooterLen
	cw.u64(uint64(docOff))
	cw.u64(uint64(dictOff))
	cw.u64(uint64(postOff))
	cw.u64(uint64(fileSize))
	cw.write(segmentMagic[:])
	if cw.err == nil {
		cw.err = cw.w.Flush()
	}
	return cw.n, cw.err
}

// segMeta is the decoded non-postings portion of a v05 segment: the
// segment itself (postings empty), the serialized skip tables, and the
// per-term posting-list and positions-stream byte lengths (posLens nil on
// non-positional segments).
type segMeta struct {
	seg     *Segment
	skips   [][]skipEntry
	plens   []int64
	posLens []int64
}

// readSegMeta decodes the magic, header, doc section and dict section
// from rd.
func readSegMeta(rd *reader) (*segMeta, error) {
	var magic [8]byte
	rd.read(magic[:])
	if rd.err != nil {
		return nil, rd.err
	}
	if magic != segmentMagic {
		if [6]byte(magic[:]) == [6]byte(segmentMagic[:]) {
			return nil, fmt.Errorf("%w: segment format v%s is not supported (only v%s is); rebuild the index with cmd/indexer",
				ErrBadFormat, magic[6:], segmentMagic[6:])
		}
		return nil, ErrBadFormat
	}
	s := &Segment{}
	if enc := rd.u8(); rd.err == nil && enc != packedEncoding {
		return nil, fmt.Errorf("%w: posting encoding %d is not supported (only packed, %d, is); rebuild the index with cmd/indexer",
			ErrBadFormat, enc, packedEncoding)
	}
	flags := rd.u8()
	if flags&^uint8(1) != 0 {
		return nil, fmt.Errorf("index: unknown flags %#x", flags)
	}
	s.positions = flags&1 != 0
	s.bm25.K1 = rd.f64()
	s.bm25.B = rd.f64()
	numDocs := rd.u32()
	numTerms := rd.u32()
	s.totalLen = int64(rd.u64())
	if rd.err != nil {
		return nil, rd.err
	}
	const maxCount = 1 << 28
	if numDocs > maxCount || numTerms > maxCount {
		return nil, fmt.Errorf("index: implausible counts docs=%d terms=%d", numDocs, numTerms)
	}
	// The declared counts are untrusted until that many entries actually
	// decode, so slices grow by appending (with a bounded initial
	// capacity) rather than pre-allocating count elements — a 100-byte
	// file claiming 2^28 documents must fail on its missing bytes, not
	// allocate gigabytes first.
	const maxPrealloc = 1 << 16
	prealloc := min(int(numDocs), maxPrealloc)
	s.docLens = make([]int32, 0, prealloc)
	for i := uint32(0); i < numDocs; i++ {
		s.docLens = append(s.docLens, int32(rd.uvarint()))
		if rd.err != nil {
			return nil, fmt.Errorf("index: doc lengths: %w", rd.err)
		}
	}
	s.buildLengthNorms()
	s.docs = make([]StoredDoc, 0, prealloc)
	for i := uint32(0); i < numDocs; i++ {
		var d StoredDoc
		d.URL = rd.str()
		d.Title = rd.str()
		d.Quality = rd.f32()
		d.Snippet = rd.str()
		if rd.err != nil {
			return nil, fmt.Errorf("index: stored doc %d: %w", i, rd.err)
		}
		s.docs = append(s.docs, d)
	}

	prealloc = min(int(numTerms), maxPrealloc)
	s.terms = make(map[string]int32, prealloc)
	s.termList = make([]string, 0, prealloc)
	s.docFreqs = make([]int32, 0, prealloc)
	s.collFreqs = make([]int64, 0, prealloc)
	s.maxScores = make([]float32, 0, prealloc)
	s.blockMaxes = make([][]float32, 0, prealloc)
	m := &segMeta{seg: s}
	m.skips = make([][]skipEntry, 0, prealloc)
	m.plens = make([]int64, 0, prealloc)
	for id := uint32(0); id < numTerms; id++ {
		t := rd.str()
		df := int32(rd.u32())
		cf := int64(rd.u64())
		maxScore := rd.f32()
		plen := rd.uvarint()
		var posLen uint64
		if s.positions {
			posLen = rd.uvarint()
		}
		if rd.err != nil {
			return nil, fmt.Errorf("index: term %d dictionary entry: %w", id, rd.err)
		}
		if df < 0 || uint32(df) > numDocs {
			return nil, fmt.Errorf("index: term %q doc freq %d exceeds %d documents", t, df, numDocs)
		}
		if plen > maxStringLen*16 || posLen > maxStringLen*16 {
			return nil, fmt.Errorf("index: posting list length %d+%d exceeds limit", plen, posLen)
		}
		nBlocks := rd.uvarint()
		want := numBlocksFor(df)
		if rd.err == nil && int(nBlocks) != want {
			return nil, fmt.Errorf("index: term %q has %d block maxima, want %d", t, nBlocks, want)
		}
		var blocks []float32
		for j := 0; j < want; j++ {
			blocks = append(blocks, rd.f32())
		}
		nSkips := rd.uvarint()
		wantSkips := 0
		if df >= skipMinDocFreq {
			wantSkips = int(df / skipInterval)
		}
		if rd.err == nil && int(nSkips) != wantSkips {
			return nil, fmt.Errorf("index: term %q has %d skip entries, want %d", t, nSkips, wantSkips)
		}
		var table []skipEntry
		prevDoc, prevPos := int64(-1), int64(0)
		for j := 0; j < wantSkips; j++ {
			doc := rd.uvarint()
			pos := rd.uvarint()
			used := rd.uvarint()
			if rd.err != nil {
				break
			}
			// Checkpoints must advance through the list: docIDs strictly
			// increasing within range, byte positions non-decreasing and
			// bounded by the list length, used counts exactly one
			// skipInterval apart. A publisher bug or bit flip here would
			// otherwise send block-granular reads to garbage offsets.
			if int64(doc) <= prevDoc || doc >= uint64(numDocs) ||
				int64(pos) < prevPos || pos > plen ||
				used != uint64(j+1)*skipInterval {
				return nil, fmt.Errorf("index: term %q skip entry %d (doc=%d pos=%d used=%d) is inconsistent", t, j, doc, pos, used)
			}
			prevDoc, prevPos = int64(doc), int64(pos)
			table = append(table, skipEntry{doc: int32(doc), pos: int32(pos), used: int32(used)})
		}
		if rd.err != nil {
			return nil, fmt.Errorf("index: term %q skip table: %w", t, rd.err)
		}
		s.termList = append(s.termList, t)
		s.terms[t] = int32(id)
		s.docFreqs = append(s.docFreqs, df)
		s.collFreqs = append(s.collFreqs, cf)
		s.maxScores = append(s.maxScores, maxScore)
		s.blockMaxes = append(s.blockMaxes, blocks)
		m.skips = append(m.skips, table)
		m.plens = append(m.plens, int64(plen))
		if s.positions {
			m.posLens = append(m.posLens, int64(posLen))
		}
	}
	return m, nil
}

// ReadSegment deserializes a segment written by WriteTo: sections in
// order, then the footer, then a decode of every posting list. The skip
// tables are rebuilt from the decoded postings and must match the
// serialized ones — a cheap end-to-end check that the block boundaries
// remote readers will trust are the ones the data actually has. Any
// other container version is rejected with an error wrapping
// ErrBadFormat.
func ReadSegment(r io.Reader) (*Segment, error) {
	rd := &reader{r: bufio.NewReader(r)}
	m, err := readSegMeta(rd)
	if err != nil {
		return nil, err
	}
	s := m.seg
	s.postings = make([][]byte, 0, len(m.plens))
	for id, plen := range m.plens {
		buf := make([]byte, plen)
		rd.read(buf)
		if s.positions {
			stream := make([]byte, m.posLens[id])
			rd.read(stream)
			s.posStreams = append(s.posStreams, stream)
		}
		if rd.err != nil {
			return nil, fmt.Errorf("index: term %q postings: %w", s.termList[id], rd.err)
		}
		s.postings = append(s.postings, buf)
	}
	var tail [SegmentFooterLen]byte
	rd.read(tail[:])
	if rd.err != nil {
		return nil, fmt.Errorf("index: segment footer: %w", rd.err)
	}
	if _, err := ParseSegmentFooter(tail[:]); err != nil {
		return nil, err
	}
	if err := s.validatePostings(); err != nil {
		return nil, err
	}
	s.buildSkips()
	for id := range s.termList {
		derived := s.skips[id]
		if len(derived) != len(m.skips[id]) {
			return nil, fmt.Errorf("index: term %q serialized skip table has %d entries, derived %d",
				s.termList[id], len(m.skips[id]), len(derived))
		}
		for j, e := range derived {
			if m.skips[id][j] != e {
				return nil, fmt.Errorf("index: term %q skip entry %d mismatch: serialized %+v, derived %+v",
					s.termList[id], j, m.skips[id][j], e)
			}
		}
	}
	return s, nil
}

// BlockReader is how a lazily opened segment reads its posting blocks:
// a block cache in front of ranged reads of the segment's postings
// section. internal/blob implements it over a BlockCache and a Store.
type BlockReader interface {
	// Cached returns the resident bytes of one block of a term's list,
	// or nil. It is a probe, not a lookup a query is charged for.
	Cached(term int32, block int) []byte
	// ReadRuns reads every run with one ranged read, all runs
	// concurrently, stores each block's bytes in the run's Blocks and
	// makes them resident. A run whose read fails gets Err set and
	// leaves Blocks alone.
	ReadRuns(runs []BlockRun)
	// Needed records blocks a query needed, by whether they were
	// resident when it first asked for them (hits) or not (misses).
	Needed(hits, misses int)
}

// BlockRun is a run of consecutive blocks of one term's posting list,
// contiguous in the file and read with one ranged read.
type BlockRun struct {
	Term  int32
	First int   // index of the run's first block within the list
	Off   int64 // start of the run within the postings section
	Sizes []int // byte length of each block of the run
	// Blocks receives the bytes of each block (len(Sizes) entries).
	Blocks [][]byte
	Err    error
}

// Bytes returns the length of the run's byte range.
func (r *BlockRun) Bytes() (n int64) {
	for _, sz := range r.Sizes {
		n += int64(sz)
	}
	return n
}

// lazyPostings is the demand-load state of a remotely opened segment.
type lazyPostings struct {
	src BlockReader
	// offs[i] is term i's posting-list start within the postings
	// section; offs[len] is the section's total length.
	offs []int64
	// posLens[i] is the length of term i's positions stream, which ends
	// its share of the section (nil on non-positional segments).
	posLens []int64
}

// OpenLazySegment opens a v05 segment from its metadata prefix — the
// file bytes [0, layout.PostOff), i.e. header, doc and dict sections —
// without its postings. Posting blocks are read through src: short
// lists are a single block, long lists one block per skip interval, and
// a positions stream is one more block after them, which is what makes
// a searcher over such a segment serve from a byte-budgeted block cache
// instead of resident posting data. The returned segment supports
// everything an in-memory segment does except re-serialization.
func OpenLazySegment(meta []byte, src BlockReader) (*Segment, error) {
	if src == nil {
		return nil, fmt.Errorf("index: OpenLazySegment requires a block reader")
	}
	rd := &reader{r: bufio.NewReader(bytes.NewReader(meta))}
	m, err := readSegMeta(rd)
	if err != nil {
		return nil, err
	}
	s := m.seg
	s.skips = m.skips
	lz := &lazyPostings{src: src, offs: make([]int64, len(m.plens)+1), posLens: m.posLens}
	for i, plen := range m.plens {
		lz.offs[i+1] = lz.offs[i] + plen
		if s.positions {
			lz.offs[i+1] += m.posLens[i]
		}
	}
	s.lazy = lz
	return s, nil
}

// IsLazy reports whether the segment reads posting blocks through a
// BlockReader instead of holding them resident.
func (s *Segment) IsLazy() bool { return s.lazy != nil }

// LazyQuery is the fetch state of one query on one lazy segment. The
// searcher takes every iterator of the query from it, calls Prefetch
// once all terms are resolved, and asks Incomplete when it is done.
// All reads of posting bytes — the per-query plan, a miss during
// evaluation and its read-ahead, a positions stream — are the same
// operation: plan the runs of non-resident blocks in a block range,
// read them in one ReadRuns call. Blocks a query has read stay
// held by it, so evaluation never depends on the cache keeping them.
// A LazyQuery is used by one goroutine.
type LazyQuery struct {
	seg    *Segment
	src    BlockReader
	lists  []*lazyList
	runs   []BlockRun // planned, not yet read
	failed bool
}

// NewLazyQuery returns the fetch state for one query on a lazy segment.
func (s *Segment) NewLazyQuery() *LazyQuery { return &LazyQuery{seg: s, src: s.lazy.src} }

// lazyList is one posting list within a LazyQuery. Block b of the list
// spans [table[b-1].pos, table[b].pos), block 0 starting at 0 and the
// last block running to plen; a list without a skip table is one block.
// On a positional segment the positions stream is one more block, index
// blocks, spanning the posLen bytes after plen.
type lazyList struct {
	q      *LazyQuery
	id     int32
	start  int64 // list start within the postings section
	plen   int64 // length of the doc/freq part
	posLen int64 // length of the positions stream
	table  []skipEntry
	blocks int      // doc/freq blocks
	held   [][]byte // held[b] is block b once this query has read it
	// positions marks a list the query reads the positions stream of.
	positions bool
	// counted is the number of leading blocks already reported through
	// Needed; iterators only move forward, so a block below it is never
	// first asked for again.
	counted int
	// next is the block a sequential reader asks for next and ahead the
	// number of blocks the next miss reads: doubled while misses arrive
	// in sequence, back to one after a jump.
	next, ahead int
}

// list returns the query's state for term id, shared by every iterator
// the query opens on that term.
func (q *LazyQuery) list(id int32) *lazyList {
	for _, l := range q.lists {
		if l.id == id {
			return l
		}
	}
	lz := q.seg.lazy
	l := &lazyList{q: q, id: id, start: lz.offs[id], plen: lz.offs[id+1] - lz.offs[id], table: q.seg.skips[id], ahead: 1}
	if lz.posLens != nil {
		l.posLen = lz.posLens[id]
		l.plen -= l.posLen
	}
	l.blocks = len(l.table) + 1
	if l.plen == 0 || (len(l.table) > 0 && int64(l.table[len(l.table)-1].pos) == l.plen) {
		l.blocks-- // nothing follows the last checkpoint
	}
	l.held = make([][]byte, l.blocks+1) // the last is the positions stream
	q.lists = append(q.lists, l)
	return l
}

// Postings returns an iterator over term id's list whose blocks are
// read through the query. Nothing is read here.
func (q *LazyQuery) Postings(id int32, withSkips bool) PostingsIterator {
	df := q.seg.docFreqs[id]
	it := PostingsIterator{count: df, initCount: df, doc: -1}
	l := q.list(id)
	if withSkips {
		it.skips = l.table
		it.blockMaxes = q.seg.blockMaxes[id]
	}
	it.fetch = l.window
	return it
}

// Positions returns a positional iterator over term id's list. Its
// positions stream is read with the query's Prefetch, else on the
// iterator's first Next. A failed read yields an exhausted iterator and
// an incomplete query.
func (q *LazyQuery) Positions(id int32) PositionsIterator {
	l := q.list(id)
	l.positions = true
	return PositionsIterator{it: q.Postings(id, false), list: l}
}

// lazyIterator serves the segment's own Postings on a lazy segment, each
// call a LazyQuery of its own.
func (s *Segment) lazyIterator(id int32, withSkips bool) PostingsIterator {
	return s.NewLazyQuery().Postings(id, withSkips)
}

// Prefetch reads, in one concurrent round of ranged reads, what the
// query's lists need first: every block when the evaluation strategy
// consumes its lists whole (positions streams included, for the lists
// the query reads positions of), else each list's first block — a
// strategy that may skip fetches the rest as it gets there.
func (q *LazyQuery) Prefetch(whole bool) {
	for _, l := range q.lists {
		to := l.blocks
		if !whole {
			to = min(to, 1)
		} else if l.positions {
			to++ // the positions stream
		}
		hits, misses := l.plan(0, to, to)
		l.count(to, hits, misses)
		l.next = to
	}
	q.read()
}

// Incomplete reports whether a read of this query failed after the
// reader's retries, in which case some list ended early and the result
// must not be presented as exact.
func (q *LazyQuery) Incomplete() bool { return q.failed }

// read issues the planned runs.
func (q *LazyQuery) read() {
	if len(q.runs) == 0 {
		return
	}
	q.src.ReadRuns(q.runs)
	for i := range q.runs {
		if q.runs[i].Err != nil {
			q.failed = true
		}
	}
	q.runs = q.runs[:0]
}

// bounds returns block b's byte range within the list.
func (l *lazyList) bounds(b int) (lo, hi int64) {
	if b == l.blocks { // the positions stream
		return l.plen, l.plen + l.posLen
	}
	if b > 0 {
		lo = int64(l.table[b-1].pos)
	}
	hi = l.plen
	if b < len(l.table) {
		hi = int64(l.table[b].pos)
	}
	return lo, hi
}

// plan appends to the query's runs the reads that bring in blocks
// [from, to): every maximal stretch of blocks neither held nor resident
// is one run. Of the leading blocks, those below hold, the resident
// ones become held; hits and misses count these blocks by where they
// were found. Resident blocks at or past hold only end a run: they are
// read-ahead the query may never reach.
func (l *lazyList) plan(from, to, hold int) (hits, misses int) {
	q := l.q
	open := false // the last run of q.runs ends at block b-1
	for b := from; b < to; b++ {
		if l.held[b] != nil {
			open = false
			continue
		}
		if data := q.src.Cached(l.id, b); data != nil {
			open = false
			if b < hold {
				l.held[b] = data
				hits++
			}
			continue
		}
		if b < hold {
			misses++
		}
		lo, hi := l.bounds(b)
		if !open {
			q.runs = append(q.runs, BlockRun{Term: l.id, First: b, Off: l.start + lo})
			open = true
		}
		run := &q.runs[len(q.runs)-1]
		run.Sizes = append(run.Sizes, int(hi-lo))
		run.Blocks = l.held[run.First : b+1]
	}
	return hits, misses
}

// count reports the blocks below to that have not been reported yet.
func (l *lazyList) count(to, hits, misses int) {
	if to > l.counted {
		l.counted = to
		l.q.src.Needed(hits, misses)
	}
}

// block returns block b's bytes: what the query holds, else the
// resident copy, else a read of b and the read-ahead behind it. nil
// means the read failed.
func (l *lazyList) block(b int) []byte {
	hits, misses := 0, 1 // a block held but not yet counted came in as read-ahead
	data := l.held[b]
	if data == nil {
		if data = l.q.src.Cached(l.id, b); data != nil {
			l.held[b] = data
			hits, misses = 1, 0
		} else {
			if b == l.next {
				l.ahead *= 2
			} else {
				l.ahead = 1
			}
			l.plan(b, min(b+l.ahead, l.blocks), b+1)
			l.q.read()
			data = l.held[b]
		}
	}
	l.count(b+1, hits, misses)
	l.next = b + 1
	return data
}

// positionsStream returns the list's positions stream: what the query
// holds, else the resident copy, else a read of it alone. nil means the
// read failed.
func (l *lazyList) positionsStream() []byte {
	b := l.blocks
	if l.held[b] == nil {
		hits, misses := l.plan(b, b+1, b+1)
		l.q.read()
		l.q.src.Needed(hits, misses)
	}
	return l.held[b]
}

// window is the iterator's fetch hook: the block containing byte
// offset pos of the list and that block's offset. A failed read, or a
// pos outside the list, yields an empty window, which every decode path
// treats as the end of the list.
func (l *lazyList) window(pos int) ([]byte, int) {
	b := blockForPos(l.table, pos)
	if b >= l.blocks {
		return nil, pos
	}
	lo, hi := l.bounds(b)
	if int64(pos) < lo || int64(pos) >= hi {
		return nil, pos
	}
	data := l.block(b)
	if data == nil {
		return nil, pos
	}
	return data, int(lo)
}

// blockForPos returns the index of the block whose byte range contains
// pos: block b spans [table[b-1].pos, table[b].pos), with block 0
// starting at 0 and the final block running to the end of the list.
func blockForPos(table []skipEntry, pos int) int {
	lo, hi := 0, len(table)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(table[mid].pos) <= pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
