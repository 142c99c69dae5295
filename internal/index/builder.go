package index

import (
	"sort"

	"websearchbench/internal/corpus"
	"websearchbench/internal/textproc"
)

// Builder accumulates documents and produces an immutable Segment.
// It is not safe for concurrent use.
type Builder struct {
	segmentParts
	analyzer *textproc.Analyzer
	accs     map[string]*termAcc

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
		segmentParts: segmentParts{bm25: DefaultBM25()},
		analyzer:     textproc.NewAnalyzer(),
		accs:         make(map[string]*termAcc),
		scratch:      make(map[string]int32),
		scratchPos:   make(map[string][]int32),
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
		acc, ok := b.accs[t]
		if !ok {
			acc = &termAcc{}
			b.accs[t] = acc
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
	b.stored.storedDoc(StoredDoc{URL: url, Title: title, Quality: float32(quality), Snippet: snippet})
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
		acc, ok := b.accs[t]
		if !ok {
			acc = &termAcc{}
			b.accs[t] = acc
		}
		acc.enc.add(docID, f)
		acc.collFreq += int64(f)
		docLen += f
	}
	b.docLens = append(b.docLens, docLen)
	b.stored.storedDoc(stored)
	return docID
}

// NumDocs returns the number of documents added so far.
func (b *Builder) NumDocs() int { return len(b.docLens) }

// Finalize freezes the builder into an immutable Segment. The builder must
// not be used afterwards. It panics when the documents exceed what a
// segment file can address (2^28 documents or terms, 4 GiB sections).
func (b *Builder) Finalize() *Segment {
	s, err := openFile(b.finish().write())
	if err != nil {
		panic(err)
	}
	b.segmentParts, b.accs = segmentParts{}, nil
	return s
}

// finish sorts the dictionary and finishes every term's lists.
func (b *Builder) finish() *segmentParts {
	terms := make([]string, 0, len(b.accs))
	for t := range b.accs {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	b.lists = make([]termList, len(terms))
	for id, t := range terms {
		acc := b.accs[t]
		b.lists[id] = acc.enc.finish()
		b.lists[id].term, b.lists[id].collFreq = t, acc.collFreq
	}
	return &b.segmentParts
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
