// Package index implements the engine's inverted index: a term
// dictionary, bit-packed block posting lists with optional positions
// streams, per-document metadata (lengths, stored fields), an in-memory
// builder, and an immutable segment that is its file's bytes. Its
// anatomy mirrors the Lucene index the characterized benchmark serves,
// so dictionary-lookup and postings-traversal costs are alike.
package index

import (
	"encoding/binary"
	"hash/maphash"
	"math"
)

// StoredDoc is the per-document payload kept in the doc store: what the
// front-end needs to render a result without touching the original corpus.
type StoredDoc struct {
	URL     string
	Title   string
	Quality float32
	// Snippet is a prefix of the body kept for result rendering.
	Snippet string
}

// TermInfo summarizes one dictionary entry.
type TermInfo struct {
	ID       int32
	DocFreq  int32   // number of documents containing the term
	CollFreq int64   // total occurrences across the collection
	MaxScore float32 // exact max BM25 contribution over the posting list
}

// Segment is an immutable searchable index over a set of documents: the
// bytes of its v05 file (v05.go) and a small directory decoded from them
// when it was opened. A resident segment holds the whole file and its
// iterators read their lists where they lie in it; a lazy one
// (OpenLazySegment) holds the file's [0, PostOff) prefix and reads
// posting blocks through a BlockReader. Segments are safe for concurrent
// readers.
type Segment struct {
	// data is the segment's image: the whole file, or the prefix of a
	// lazy segment.
	data   []byte
	layout SegmentLayout
	// src reads the posting blocks of a lazy segment; nil when resident.
	src       BlockReader
	positions bool
	bm25      BM25Params
	totalLen  int64
	docLens   []int32
	// lengthNorms[d] is BM25 LengthNorm of doc d under the segment's own
	// average length, so searchers over it share one table.
	lengthNorms []float64
	// stored[d] is the offset in data of doc d's stored fields.
	stored []uint32
	// terms is the dictionary in term (= ID) order.
	terms []termEntry
	// slots is Term's hash index of the dictionary (indexTerms).
	slots []uint32
	// skips holds every term's skip table and blockMaxes every term's
	// block maxima, term after term.
	skips      []skipEntry
	blockMaxes []float32
}

// termEntry places one term in the image. Its skip table has
// numBlocksFor(df)-1 entries from skips[skip], its block maxima
// numBlocksFor(df) from blockMaxes[skip+ID]: every term has one more
// block than checkpoints.
type termEntry struct {
	dict uint32 // offset in data of the dictionary entry
	post uint32 // offset of the list within the postings section
	skip uint32
}

// entry is a decoded dictionary entry.
type entry struct {
	TermInfo
	term         []byte // aliases the image
	plen, posLen int    // posting list and positions stream byte lengths
}

// entry decodes term id's dictionary entry, checked when the segment
// was opened.
func (s *Segment) entry(id int32) entry {
	b := s.data[s.terms[id].dict:]
	n, k := binary.Uvarint(b)
	b = b[k:]
	e := entry{term: b[:n:n], TermInfo: TermInfo{ID: id,
		DocFreq:  int32(binary.LittleEndian.Uint32(b[n:])),
		CollFreq: int64(binary.LittleEndian.Uint64(b[n+4:])),
		MaxScore: math.Float32frombits(binary.LittleEndian.Uint32(b[n+12:]))}}
	plen, k := binary.Uvarint(b[n+16:])
	e.plen = int(plen)
	if s.positions {
		posLen, _ := binary.Uvarint(b[n+16+uint64(k):])
		e.posLen = int(posLen)
	}
	return e
}

// termAt returns term id's bytes, aliasing the image.
func (s *Segment) termAt(id int32) []byte {
	b := s.data[s.terms[id].dict:]
	n, k := binary.Uvarint(b)
	return b[k : k+int(n)]
}

// termSeed keys the dictionary's in-memory hash index.
var termSeed = maphash.MakeSeed()

// indexTerms builds Term's hash index: open addressing with linear
// probing at a load of 0.8, each slot a term's ID+1, 0 when empty.
func (s *Segment) indexTerms() {
	s.slots = make([]uint32, len(s.terms)+len(s.terms)/4+1)
	for id := range s.terms {
		i := s.slot(maphash.Bytes(termSeed, s.termAt(int32(id))))
		for s.slots[i] != 0 {
			i = (i + 1) % len(s.slots)
		}
		s.slots[i] = uint32(id + 1)
	}
}

// slot returns the first slot of hash h.
func (s *Segment) slot(h uint64) int { return int((h >> 32) * uint64(len(s.slots)) >> 32) }

// skipsOf returns term id's skip table and block maxima.
func (s *Segment) skipsOf(id int32, df int32) ([]skipEntry, []float32) {
	n := uint32(numBlocksFor(df))
	at := s.terms[id].skip
	return s.skips[at : at+n-1], s.blockMaxes[at+uint32(id) : at+uint32(id)+n]
}

// lists returns term id's posting list and positions stream on a
// resident segment, sub-slices of the image.
func (s *Segment) lists(id int32, e entry) (list, stream []byte) {
	at := int(s.layout.PostOff) + int(s.terms[id].post)
	return s.data[at : at+e.plen : at+e.plen], s.data[at+e.plen : at+e.plen+e.posLen]
}

// NumDocs returns the number of documents in the segment.
func (s *Segment) NumDocs() int { return len(s.docLens) }

// NumTerms returns the number of distinct terms.
func (s *Segment) NumTerms() int { return len(s.terms) }

// TotalPostings returns the total number of postings across all terms.
func (s *Segment) TotalPostings() int64 {
	var n int64
	for id := range s.terms {
		n += int64(s.entry(int32(id)).DocFreq)
	}
	return n
}

// AvgDocLen returns the average document length in index terms.
func (s *Segment) AvgDocLen() float64 {
	if len(s.docLens) == 0 {
		return 0
	}
	return float64(s.totalLen) / float64(len(s.docLens))
}

// TotalLen returns the summed length of all documents in index terms.
func (s *Segment) TotalLen() int64 { return s.totalLen }

// DocLen returns the length (term count) of docID.
func (s *Segment) DocLen(docID int32) int32 { return s.docLens[docID] }

// storedFields returns where docID's URL, title and snippet lie in the
// image, each [lo, hi), and its quality.
func (s *Segment) storedFields(docID int32) (f [3][2]int, quality float32) {
	at := int(s.stored[docID])
	for i := range f {
		if i == 2 {
			quality = math.Float32frombits(binary.LittleEndian.Uint32(s.data[at:]))
			at += 4
		}
		n, k := binary.Uvarint(s.data[at:])
		f[i] = [2]int{at + k, at + k + int(n)}
		at = f[i][1]
	}
	return f, quality
}

// Doc returns the stored fields of docID, copied out of the image in
// one allocation: a caller may keep them after the segment is gone.
func (s *Segment) Doc(docID int32) StoredDoc {
	f, q := s.storedFields(docID)
	rec, base := string(s.data[f[0][0]:f[2][1]]), f[0][0]
	return StoredDoc{URL: rec[f[0][0]-base : f[0][1]-base], Title: rec[f[1][0]-base : f[1][1]-base],
		Quality: q, Snippet: rec[f[2][0]-base:]}
}

// Quality returns docID's stored quality score without decoding its
// strings.
func (s *Segment) Quality(docID int32) float32 {
	_, q := s.storedFields(docID)
	return q
}

// BM25 returns the segment's scoring parameters.
func (s *Segment) BM25() BM25Params { return s.bm25 }

// LengthNorms returns every document's BM25 LengthNorm under average
// document length avg, indexed by docID: the table built with the segment
// when avg is the segment's own average, else a new one. Callers must not
// modify it.
func (s *Segment) LengthNorms(avg float64) []float64 {
	if avg == s.AvgDocLen() {
		return s.lengthNorms
	}
	return s.bm25.lengthNorms(s.docLens, avg)
}

// lookup finds term's ID through the dictionary's hash index.
func (s *Segment) lookup(term string) (int32, bool) {
	for i := s.slot(maphash.String(termSeed, term)); s.slots[i] != 0; i = (i + 1) % len(s.slots) {
		if id := int32(s.slots[i]) - 1; string(s.termAt(id)) == term {
			return id, true
		}
	}
	return 0, false
}

// Term reports the dictionary entry for term, if present.
func (s *Segment) Term(term string) (TermInfo, bool) {
	id, ok := s.lookup(term)
	if !ok {
		return TermInfo{}, false
	}
	return s.entry(id).TermInfo, true
}

// Terms returns all dictionary terms in lexicographic order, as a new
// slice of copies.
func (s *Segment) Terms() []string {
	out := make([]string, len(s.terms))
	for id := range out {
		out[id] = string(s.termAt(int32(id)))
	}
	return out
}

// IDF returns the BM25 inverse document frequency of term within this
// segment (0 for absent terms).
func (s *Segment) IDF(term string) float64 {
	ti, ok := s.Term(term)
	if !ok {
		return 0
	}
	return IDF(int64(len(s.docLens)), int64(ti.DocFreq))
}

// Postings returns an iterator over term's posting list. ok is false when
// the term is absent.
func (s *Segment) Postings(term string) (PostingsIterator, bool) { return s.postings(term, true) }

// PostingsWithoutSkips returns an iterator that never uses the skip
// table, for the skip-list ablation.
func (s *Segment) PostingsWithoutSkips(term string) (PostingsIterator, bool) {
	return s.postings(term, false)
}

func (s *Segment) postings(term string, withSkips bool) (PostingsIterator, bool) {
	id, ok := s.lookup(term)
	if !ok {
		return PostingsIterator{doc: exhaustedDoc}, false
	}
	return s.postingsByID(id, withSkips), true
}

// PostingsByID returns an iterator for a dictionary term ID. On a lazy
// segment the iterator is a LazyQuery of its own, which suits tools and
// tests: a failed read ends the list early and shows only in the
// reader's failure count. Query evaluation shares one LazyQuery per
// query and reports Incomplete.
func (s *Segment) PostingsByID(id int32) PostingsIterator {
	return s.postingsByID(id, true)
}

func (s *Segment) postingsByID(id int32, withSkips bool) PostingsIterator {
	if s.src != nil {
		return s.NewLazyQuery().Postings(id, withSkips)
	}
	e := s.entry(id)
	list, _ := s.lists(id, e)
	it := newPostingsIterator(list, e.DocFreq)
	if withSkips {
		it.skips, it.blockMaxes = s.skipsOf(id, e.DocFreq)
	}
	return it
}

// PostingsBytes returns the size of the postings section — the encoded
// posting lists and any positions streams — used by the characterization
// experiment for compression accounting. Lazy segments report the size
// of the remote section; none of it need be resident.
func (s *Segment) PostingsBytes() int64 {
	return s.layout.FileSize - SegmentFooterLen - s.layout.PostOff
}
