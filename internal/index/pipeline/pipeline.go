// Package pipeline builds one index segment from a document stream in
// parallel: a single feeder cuts the stream into chunks of SegmentDocs
// documents, Workers goroutines each build whole chunks with a private
// Builder (analysis included, so tokenization parallelizes too), and one
// index.MergeSegments folds the chunk segments together in chunk order
// once every chunk is built.
//
// Determinism contract: a chunk's content, and therefore the segment
// built from it, depends only on its position in the stream, never on
// which worker built it or when, and merging concatenates document
// spaces in chunk order. The output segment is therefore byte-for-byte
// the one a single Builder makes from the same stream, at every worker
// count and chunk size.
package pipeline

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"websearchbench/internal/corpus"
	"websearchbench/internal/index"
)

// DefaultSegmentDocs is the chunk size parallel builds use when none is
// configured: big enough that per-segment fixed costs (dictionary, skip
// tables, block maxima) amortize, small enough that a handful of workers
// all stay busy on modest corpora.
const DefaultSegmentDocs = 2048

// Config tunes a Pipeline. The zero value selects the defaults.
type Config struct {
	// Workers is the number of concurrent build workers (default
	// runtime.NumCPU()).
	Workers int
	// SegmentDocs cuts a chunk every this many documents. 0 means
	// DefaultSegmentDocs when Workers > 1, and one chunk holding the
	// whole stream when Workers == 1: one Builder then consumes the
	// stream as it arrives and nothing is merged.
	SegmentDocs int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.SegmentDocs <= 0 {
		c.SegmentDocs = 0
		if c.Workers > 1 {
			c.SegmentDocs = DefaultSegmentDocs
		}
	}
	return c
}

// Stats is a point-in-time snapshot of a running (or finished) build,
// safe to read concurrently with Run; cmd/indexer's progress ticker
// polls it.
type Stats struct {
	DocsIndexed  int64
	BytesIndexed int64
	// SegmentsCut counts the chunks built so far; more than one are
	// merged once at the end.
	SegmentsCut int64
	// Elapsed runs from the start of Run to now, or to Run's return once
	// it has returned.
	Elapsed time.Duration
}

// Pipeline is one parallel index build. Create with New, execute with
// Run (once), observe concurrently with Stats.
type Pipeline struct {
	cfg Config

	docs        atomic.Int64
	bytes       atomic.Int64
	segmentsCut atomic.Int64
	startNanos  atomic.Int64
	endNanos    atomic.Int64
}

// New returns a Pipeline for cfg.
func New(cfg Config) *Pipeline {
	return &Pipeline{cfg: cfg.withDefaults()}
}

// Stats snapshots the build's progress counters.
func (p *Pipeline) Stats() Stats {
	st := Stats{
		DocsIndexed:  p.docs.Load(),
		BytesIndexed: p.bytes.Load(),
		SegmentsCut:  p.segmentsCut.Load(),
	}
	if s := p.startNanos.Load(); s != 0 {
		end := p.endNanos.Load()
		if end == 0 {
			end = time.Now().UnixNano()
		}
		st.Elapsed = time.Duration(end - s)
	}
	return st
}

// chunk is one contiguous run of the document stream. Its channel holds
// up to SegmentDocs documents, so the feeder never waits for the worker
// building it, only for a free worker to take the next chunk.
type chunk struct {
	docs chan corpus.Document
	seg  *index.Segment // set by the worker that built the chunk
}

// Run builds every document docs yields, in the order it yields them,
// into one segment; corpus.Generator.GenerateFunc has the shape of docs.
// docs runs on the calling goroutine while the workers build, so
// producing documents overlaps building them. An empty stream yields
// one valid empty segment. Run must be called at most once per
// Pipeline.
func (p *Pipeline) Run(docs func(yield func(corpus.Document))) (*index.Segment, error) {
	p.startNanos.Store(time.Now().UnixNano())
	defer func() { p.endNanos.Store(time.Now().UnixNano()) }()

	chunks := make(chan *chunk)
	var wg sync.WaitGroup
	for w := 0; w < p.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range chunks {
				b := index.NewBuilder()
				for d := range c.docs {
					b.AddCorpusDoc(d)
					p.docs.Add(1)
					p.bytes.Add(int64(len(d.Title) + len(d.Body)))
				}
				c.seg = b.Finalize()
				p.segmentsCut.Add(1)
			}
		}()
	}

	buffer := p.cfg.SegmentDocs
	if buffer == 0 {
		// One chunk, streamed into one Builder: the buffer only smooths
		// the hand-off, so a default chunk's worth is plenty.
		buffer = DefaultSegmentDocs
	}
	var all []*chunk
	var cur *chunk
	var n int
	docs(func(d corpus.Document) {
		if cur == nil {
			cur = &chunk{docs: make(chan corpus.Document, buffer)}
			all = append(all, cur)
			chunks <- cur
		}
		cur.docs <- d
		if n++; n == p.cfg.SegmentDocs {
			close(cur.docs)
			cur, n = nil, 0
		}
	})
	if cur != nil {
		close(cur.docs)
	}
	close(chunks)
	wg.Wait()

	switch len(all) {
	case 0:
		return index.NewBuilder().Finalize(), nil
	case 1:
		return all[0].seg, nil
	}
	segs := make([]*index.Segment, len(all))
	for i, c := range all {
		segs[i] = c.seg
	}
	return index.MergeSegments(segs)
}
