package index

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

// Segment is an immutable searchable index over a set of documents.
// Segments are safe for concurrent readers.
type Segment struct {
	positions bool
	bm25      BM25Params
	terms     map[string]int32
	termList  []string // termID -> term, lexicographically sorted
	postings  [][]byte
	docFreqs  []int32
	collFreqs []int64
	maxScores []float32
	docLens   []int32
	totalLen  int64
	docs      []StoredDoc
	skips     [][]skipEntry // per-term skip tables
	// blockMaxes[id][j] is the maximum BM25 contribution within block j
	// of term id's posting list (blocks of skipInterval postings, aligned
	// with the skip table).
	blockMaxes [][]float32
	// posStreams[id] is term id's positions stream on a positional
	// segment (positions.go), else nil.
	posStreams [][]byte
	// lengthNorms[d] is BM25 LengthNorm of doc d under the segment's own
	// average length: built with the segment, so searchers over it share
	// one table.
	lengthNorms []float64
	// lazy is non-nil on segments opened via OpenLazySegment: postings is
	// empty and posting bytes are read through lazy.src.
	lazy *lazyPostings
}

// NumDocs returns the number of documents in the segment.
func (s *Segment) NumDocs() int { return len(s.docLens) }

// NumTerms returns the number of distinct terms.
func (s *Segment) NumTerms() int { return len(s.termList) }

// TotalPostings returns the total number of postings across all terms.
func (s *Segment) TotalPostings() int64 {
	var n int64
	for _, df := range s.docFreqs {
		n += int64(df)
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

// Doc returns the stored fields of docID.
func (s *Segment) Doc(docID int32) StoredDoc { return s.docs[docID] }

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

// buildLengthNorms computes the segment's own length-norm table; every
// constructor calls it once the document lengths are final.
func (s *Segment) buildLengthNorms() {
	s.lengthNorms = s.bm25.lengthNorms(s.docLens, s.AvgDocLen())
}

// Term reports the dictionary entry for term, if present.
func (s *Segment) Term(term string) (TermInfo, bool) {
	id, ok := s.terms[term]
	if !ok {
		return TermInfo{}, false
	}
	return TermInfo{
		ID:       id,
		DocFreq:  s.docFreqs[id],
		CollFreq: s.collFreqs[id],
		MaxScore: s.maxScores[id],
	}, true
}

// Terms returns all dictionary terms in lexicographic order. The caller
// must not modify the returned slice.
func (s *Segment) Terms() []string { return s.termList }

// IDF returns the BM25 inverse document frequency of term within this
// segment (0 for absent terms).
func (s *Segment) IDF(term string) float64 {
	id, ok := s.terms[term]
	if !ok {
		return 0
	}
	return IDF(int64(len(s.docLens)), int64(s.docFreqs[id]))
}

// Postings returns an iterator over term's posting list. ok is false when
// the term is absent.
func (s *Segment) Postings(term string) (PostingsIterator, bool) {
	id, ok := s.terms[term]
	if !ok {
		return PostingsIterator{doc: exhaustedDoc}, false
	}
	return s.PostingsByID(id), true
}

// PostingsByID returns an iterator for a dictionary term ID. On a lazy
// segment the iterator is a LazyQuery of its own, which suits tools and
// tests: a failed read ends the list early and shows only in the
// reader's failure count. Query evaluation shares one LazyQuery per
// query and reports Incomplete.
func (s *Segment) PostingsByID(id int32) PostingsIterator {
	if s.lazy != nil {
		return s.lazyIterator(id, true)
	}
	it := newPostingsIterator(s.postings[id], s.docFreqs[id])
	it.skips = s.skips[id]
	it.blockMaxes = s.blockMaxes[id]
	return it
}

// PostingsWithoutSkips returns an iterator that never uses the skip
// table, for the skip-list ablation.
func (s *Segment) PostingsWithoutSkips(term string) (PostingsIterator, bool) {
	id, ok := s.terms[term]
	if !ok {
		return PostingsIterator{doc: exhaustedDoc}, false
	}
	if s.lazy != nil {
		return s.lazyIterator(id, false), true
	}
	return newPostingsIterator(s.postings[id], s.docFreqs[id]), true
}

// PostingsBytes returns the size of the postings section — the encoded
// posting lists and any positions streams — used by the characterization
// experiment for compression accounting. Lazy segments report the size
// of the remote section; none of it need be resident.
func (s *Segment) PostingsBytes() int64 {
	if s.lazy != nil {
		return s.lazy.offs[len(s.lazy.offs)-1]
	}
	var n int64
	for id, p := range s.postings {
		n += int64(len(p))
		if s.positions {
			n += int64(len(s.posStreams[id]))
		}
	}
	return n
}
