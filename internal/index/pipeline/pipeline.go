package pipeline

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"websearchbench/internal/index"
)

// DefaultSegmentDocs is the per-segment document budget parallel builds
// use when none is configured: big enough that per-segment fixed costs
// (dictionary, skip tables, block maxima) amortize, small enough that a
// handful of workers all stay busy on modest corpora.
const DefaultSegmentDocs = 2048

// Config tunes a Pipeline. The zero value selects the defaults.
type Config struct {
	// Workers is the number of concurrent analyze/build workers (default
	// runtime.NumCPU()). Workers == 1 selects the serial path: one
	// Builder consumes the stream directly, and with no segment budget
	// configured the output is byte-identical to a single-shot
	// Builder/Finalize build.
	Workers int
	// SegmentDocs cuts a segment every this many documents. 0 means
	// DefaultSegmentDocs for parallel builds; for Workers == 1 (and no
	// SegmentBytes) it means the whole stream becomes one segment.
	SegmentDocs int
	// SegmentBytes additionally cuts a segment once its accumulated
	// title+body bytes reach this budget (0 = no byte budget). Both
	// budgets are evaluated by the single feeder, so chunk boundaries
	// are deterministic.
	SegmentBytes int64
	// MergeFanIn is how many adjacent same-tier segments the background
	// merge tier folds together at once (default 8, minimum 2).
	MergeFanIn int
	// Compact merges everything down to a single segment before Run
	// returns — the offline cmd/indexer mode. Without it, Run returns
	// the tiered segment set in document order.
	Compact bool
	// ChunkBuffer bounds how many pending chunks the feeder may run
	// ahead of the workers (default 2×Workers) — the backpressure depth.
	ChunkBuffer int
	// BuilderOptions configure every worker's private Builder (positions,
	// analyzer, BM25 parameters). All workers must build identically or
	// the merge tier would refuse to combine their output.
	BuilderOptions []index.BuilderOption
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
	if c.MergeFanIn < 2 {
		c.MergeFanIn = 8
	}
	if c.ChunkBuffer <= 0 {
		c.ChunkBuffer = 2 * c.Workers
	}
	return c
}

// Stats is a point-in-time snapshot of a running (or finished) build,
// safe to read concurrently with Run — this is what cmd/indexer's
// progress ticker and the node-level observability counters poll.
type Stats struct {
	DocsIndexed  int64
	BytesIndexed int64
	SegmentsCut  int64
	Merges       int64
	// MergeBacklog is the number of built segments the merge tier is
	// still holding (waiting for neighbors, queued, or mid-merge).
	MergeBacklog int
	Elapsed      time.Duration
	// TimeToFirstSegment is how long after Run started the first segment
	// became searchable (zero until one has).
	TimeToFirstSegment time.Duration
}

// Result is a completed build: the output segments in document order
// (exactly one when Compact is set), plus the totals.
type Result struct {
	Segments           []*index.Segment
	Docs               int64
	Bytes              int64
	Elapsed            time.Duration
	TimeToFirstSegment time.Duration
}

// Pipeline is one parallel index build. Create with New, execute with
// Run (once), observe concurrently with Stats.
type Pipeline struct {
	cfg Config

	docs        atomic.Int64
	bytes       atomic.Int64
	segmentsCut atomic.Int64
	merges      atomic.Int64
	backlog     atomic.Int64
	startNanos  atomic.Int64
	firstSeg    atomic.Int64 // nanos from start to first finalized segment
}

// New returns a Pipeline for cfg.
func New(cfg Config) *Pipeline {
	return &Pipeline{cfg: cfg.withDefaults()}
}

// Config returns the pipeline's effective (defaulted) configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// Stats snapshots the build's progress counters.
func (p *Pipeline) Stats() Stats {
	st := Stats{
		DocsIndexed:  p.docs.Load(),
		BytesIndexed: p.bytes.Load(),
		SegmentsCut:  p.segmentsCut.Load(),
		Merges:       p.merges.Load(),
		MergeBacklog: int(p.backlog.Load()),
	}
	if s := p.startNanos.Load(); s != 0 {
		st.Elapsed = time.Duration(time.Now().UnixNano() - s)
	}
	if f := p.firstSeg.Load(); f != 0 {
		st.TimeToFirstSegment = time.Duration(f)
	}
	return st
}

// noteSegment counts one finalized segment and stamps time-to-first.
func (p *Pipeline) noteSegment() {
	p.segmentsCut.Add(1)
	if p.firstSeg.Load() == 0 {
		p.firstSeg.CompareAndSwap(0, time.Now().UnixNano()-p.startNanos.Load())
	}
}

// budgetReached reports whether a chunk at docs/bytes should be cut.
func (p *Pipeline) budgetReached(docs int, bytes int64) bool {
	if p.cfg.SegmentDocs > 0 && docs >= p.cfg.SegmentDocs {
		return true
	}
	return p.cfg.SegmentBytes > 0 && bytes >= p.cfg.SegmentBytes
}

// Run consumes the source to exhaustion and returns the built segments.
// It must be called at most once per Pipeline.
func (p *Pipeline) Run(src Source) (*Result, error) {
	start := time.Now()
	p.startNanos.Store(start.UnixNano())
	var segs []*index.Segment
	var err error
	if p.cfg.Workers == 1 {
		segs, err = p.runSerial(src)
	} else {
		segs, err = p.runParallel(src)
	}
	if err != nil {
		return nil, err
	}
	if p.cfg.Compact && len(segs) > 1 {
		merged, err := index.MergeSegments(segs)
		if err != nil {
			return nil, err
		}
		p.merges.Add(1)
		segs = []*index.Segment{merged}
	}
	if len(segs) == 0 {
		// An empty stream still yields one valid (empty) segment, so
		// callers can serialize or serve the result unconditionally.
		segs = []*index.Segment{index.NewBuilder(p.cfg.BuilderOptions...).Finalize()}
	}
	p.backlog.Store(0)
	res := &Result{
		Segments: segs,
		Docs:     p.docs.Load(),
		Bytes:    p.bytes.Load(),
		Elapsed:  time.Since(start),
	}
	if f := p.firstSeg.Load(); f != 0 {
		res.TimeToFirstSegment = time.Duration(f)
	}
	return res, nil
}

// runSerial is the Workers == 1 path: one Builder consumes the stream in
// order, cutting segments at the configured budget. With no budget at
// all, this is exactly a single-shot Builder build — byte-identical
// output to the pre-pipeline cmd/indexer.
func (p *Pipeline) runSerial(src Source) ([]*index.Segment, error) {
	var segs []*index.Segment
	b := index.NewBuilder(p.cfg.BuilderOptions...)
	var chunkDocs int
	var chunkBytes int64
	cut := func() {
		if chunkDocs == 0 {
			return
		}
		segs = append(segs, b.Finalize())
		p.noteSegment()
		b = index.NewBuilder(p.cfg.BuilderOptions...)
		chunkDocs, chunkBytes = 0, 0
	}
	for {
		d, ok := src.Next()
		if !ok {
			break
		}
		b.AddDocument(d.Title, d.Body, d.URL, d.Quality)
		n := int64(len(d.Title) + len(d.Body))
		p.docs.Add(1)
		p.bytes.Add(n)
		chunkDocs++
		chunkBytes += n
		if p.budgetReached(chunkDocs, chunkBytes) {
			cut()
		}
	}
	cut()
	return segs, nil
}

// chunk is one contiguous slice of the document stream, identified by
// its position; chunk idx covers documents [idx*budget, ...) so a
// segment's content is a pure function of the stream, not of scheduling.
type chunk struct {
	idx  int
	docs []Doc
}

// runParallel is the N-worker path: a single feeder cuts the stream into
// deterministic chunks, workers race to build them into segments with
// private Builders, and the merge tier folds finished segments in the
// background while building continues.
func (p *Pipeline) runParallel(src Source) ([]*index.Segment, error) {
	tier := newMergeTier(p)
	chunks := make(chan chunk, p.cfg.ChunkBuffer)

	go func() {
		defer close(chunks)
		idx := 0
		var cur []Doc
		var curBytes int64
		for {
			d, ok := src.Next()
			if !ok {
				break
			}
			cur = append(cur, d)
			curBytes += int64(len(d.Title) + len(d.Body))
			if p.budgetReached(len(cur), curBytes) {
				chunks <- chunk{idx: idx, docs: cur}
				idx++
				cur, curBytes = nil, 0
			}
		}
		if len(cur) > 0 {
			chunks <- chunk{idx: idx, docs: cur}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < p.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range chunks {
				b := index.NewBuilder(p.cfg.BuilderOptions...)
				var n int64
				for _, d := range c.docs {
					b.AddDocument(d.Title, d.Body, d.URL, d.Quality)
					n += int64(len(d.Title) + len(d.Body))
				}
				seg := b.Finalize()
				p.docs.Add(int64(len(c.docs)))
				p.bytes.Add(n)
				p.noteSegment()
				tier.add(0, c.idx, seg)
			}
		}()
	}
	wg.Wait()
	return tier.drain()
}
