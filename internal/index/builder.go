package index

import (
	"sort"

	"websearchbench/internal/corpus"
	"websearchbench/internal/textproc"
)

// Builder accumulates documents and produces an immutable Segment.
// It is not safe for concurrent use.
type Builder struct {
	positions bool
	analyzer  *textproc.Analyzer
	bm25      BM25Params

	terms    map[string]*termAcc
	docLens  []int32
	docs     []StoredDoc
	totalLen int64

	scratch    map[string]int32   // per-document term frequencies, reused
	scratchPos map[string][]int32 // per-document term positions, reused
	termsBuf   []string           // per-document sorted distinct terms, reused
}

type termAcc struct {
	enc      postingsEncoder
	collFreq int64
}

// BuilderOption customizes a Builder.
type BuilderOption func(*Builder)

// WithAnalyzer replaces the default analyzer.
func WithAnalyzer(a *textproc.Analyzer) BuilderOption {
	return func(b *Builder) { b.analyzer = a }
}

// WithBM25 replaces the default BM25 parameters baked into the segment.
func WithBM25(p BM25Params) BuilderOption {
	return func(b *Builder) { b.bm25 = p }
}

// WithPositions stores per-posting term positions, enabling phrase
// queries.
func WithPositions() BuilderOption {
	return func(b *Builder) { b.positions = true }
}

// NewBuilder returns an empty Builder with the default analyzer and
// standard BM25 parameters.
func NewBuilder(opts ...BuilderOption) *Builder {
	b := &Builder{
		analyzer:   textproc.NewAnalyzer(),
		bm25:       DefaultBM25(),
		terms:      make(map[string]*termAcc),
		scratch:    make(map[string]int32),
		scratchPos: make(map[string][]int32),
	}
	for _, opt := range opts {
		opt(b)
	}
	return b
}

// snippetLen is how much of the body the doc store keeps for rendering.
const snippetLen = 160

// AddDocument indexes one document (title and body pass through the
// analyzer; title terms are indexed alongside body terms) and returns its
// docID within the segment under construction.
func (b *Builder) AddDocument(title, body, url string, quality float64) int32 {
	docID := int32(len(b.docLens))
	clear(b.scratch)
	if b.positions {
		clear(b.scratchPos)
	}
	var docLen int32
	count := func(term string) {
		if b.positions {
			b.scratchPos[term] = append(b.scratchPos[term], docLen)
		}
		b.scratch[term]++
		docLen++
	}
	b.analyzer.AnalyzeFunc(title, count)
	b.analyzer.AnalyzeFunc(body, count)

	// Postings must be appended in deterministic order for reproducible
	// segments; sort this document's distinct terms. The slice is builder
	// scratch, reused across documents.
	terms := b.termsBuf[:0]
	for t := range b.scratch {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	b.termsBuf = terms
	for _, t := range terms {
		acc, ok := b.terms[t]
		if !ok {
			acc = &termAcc{}
			b.terms[t] = acc
		}
		f := b.scratch[t]
		if b.positions {
			acc.enc.addWithPositions(docID, b.scratchPos[t])
		} else {
			acc.enc.add(docID, f)
		}
		acc.collFreq += int64(f)
	}

	snippet := body
	if len(snippet) > snippetLen {
		snippet = snippet[:snippetLen]
	}
	b.docLens = append(b.docLens, docLen)
	b.totalLen += int64(docLen)
	b.docs = append(b.docs, StoredDoc{
		URL:     url,
		Title:   title,
		Quality: float32(quality),
		Snippet: snippet,
	})
	return docID
}

// AddCorpusDoc indexes a synthetic corpus document.
func (b *Builder) AddCorpusDoc(d corpus.Document) int32 {
	return b.AddDocument(d.Title, d.Body, d.URL, d.Quality)
}

// AddPreanalyzed indexes a document from already-analyzed term statistics:
// terms must be sorted lexicographically with freqs aligned, and the
// document length is the sum of the frequencies (every analyzed token
// counts, exactly as AddDocument tallies it). This is the flush path of
// the live index's memtable, which analyzed the document once at ingest
// and replays the frequencies here instead of re-tokenizing the text.
// Positional builders cannot accept pre-analyzed documents (the positions
// were not retained), so the call panics on one — a programmer error, not
// an input error.
func (b *Builder) AddPreanalyzed(stored StoredDoc, terms []string, freqs []int32) int32 {
	if b.positions {
		panic("index: AddPreanalyzed on a positional builder")
	}
	docID := int32(len(b.docLens))
	var docLen int32
	for i, t := range terms {
		f := freqs[i]
		acc, ok := b.terms[t]
		if !ok {
			acc = &termAcc{}
			b.terms[t] = acc
		}
		acc.enc.add(docID, f)
		acc.collFreq += int64(f)
		docLen += f
	}
	b.docLens = append(b.docLens, docLen)
	b.totalLen += int64(docLen)
	b.docs = append(b.docs, stored)
	return docID
}

// NumDocs returns the number of documents added so far.
func (b *Builder) NumDocs() int { return len(b.docLens) }

// Finalize freezes the builder into an immutable Segment. The builder must
// not be used afterwards.
func (b *Builder) Finalize() *Segment {
	termList := make([]string, 0, len(b.terms))
	for t := range b.terms {
		termList = append(termList, t)
	}
	sort.Strings(termList)

	s := &Segment{
		positions: b.positions,
		bm25:      b.bm25,
		terms:     make(map[string]int32, len(termList)),
		termList:  termList,
		postings:  make([][]byte, len(termList)),
		docFreqs:  make([]int32, len(termList)),
		collFreqs: make([]int64, len(termList)),
		maxScores: make([]float32, len(termList)),
		docLens:   b.docLens,
		totalLen:  b.totalLen,
		docs:      b.docs,
	}
	for id, t := range termList {
		acc := b.terms[t]
		acc.enc.finish()
		s.terms[t] = int32(id)
		s.postings[id] = acc.enc.buf
		if b.positions {
			s.posStreams = append(s.posStreams, acc.enc.pos)
		}
		s.docFreqs[id] = acc.enc.count
		s.collFreqs[id] = acc.collFreq
	}
	s.buildLengthNorms()
	s.computeMaxScores()
	s.buildSkips()
	s.computeBlockMaxes()
	b.terms = nil
	b.docLens = nil
	b.docs = nil
	return s
}

// computeMaxScores walks every posting list once and records the exact
// maximum BM25 contribution of each term, the bound MaxScore pruning
// uses (quantized upward so the float32 never dips below the true max).
// Must run after buildLengthNorms.
func (s *Segment) computeMaxScores() {
	n := int64(len(s.docLens))
	for id := range s.termList {
		idf := IDF(n, int64(s.docFreqs[id]))
		it := newPostingsIterator(s.postings[id], s.docFreqs[id])
		var max float64
		for it.Next() {
			sc := s.bm25.ScoreNorm(idf, it.Freq(), s.lengthNorms[it.Doc()])
			if sc > max {
				max = sc
			}
		}
		s.maxScores[id] = quantizeUp(max)
	}
}

// BuildFromCorpus is a convenience that generates the configured corpus and
// indexes all of it into a single segment.
func BuildFromCorpus(cfg corpus.Config, opts ...BuilderOption) (*Segment, error) {
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	b := NewBuilder(opts...)
	gen.GenerateFunc(func(d corpus.Document) { b.AddCorpusDoc(d) })
	return b.Finalize(), nil
}
