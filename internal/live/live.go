package live

import (
	"sort"
	"sync"
	"sync/atomic"

	"websearchbench/internal/index"
	"websearchbench/internal/partition"
	"websearchbench/internal/search"
	"websearchbench/internal/search/exec"
	"websearchbench/internal/textproc"
)

// Config tunes the live index. The zero value selects the defaults.
type Config struct {
	// MemtableMaxDocs flushes the memtable into an immutable segment once
	// it buffers this many documents (default 1024).
	MemtableMaxDocs int
	// MaxSegments is the segment-count budget: when a flush pushes the
	// index past it, the background scheduler merges the smallest
	// segments back under budget (default 8).
	MaxSegments int
	// ReclaimFrac triggers a single-segment rewrite when at least this
	// fraction of a segment's documents are tombstoned (default 0.25).
	ReclaimFrac float64
	// MaxPendingFlushes bounds how many frozen memtables may queue for
	// the background flusher before writers stall (default 4). The bound
	// is the async-flush pipeline's backpressure: without it a writer
	// outrunning the flusher would accumulate unbounded frozen memtables.
	// Ignored for durable indexes, which flush synchronously.
	MaxPendingFlushes int
	// RefreshEvery publishes a new snapshot every N mutations (default 1,
	// i.e. every write is immediately searchable). Larger values batch
	// publication work at the cost of staleness, the refresh-interval
	// axis of the live-ingest experiment.
	RefreshEvery int
	// Analyzer used for documents and queries; defaults to the standard
	// pipeline.
	Analyzer *textproc.Analyzer
	// Durable, when set, receives every mutation before it is applied and
	// every flush/merge commit; see the Sink docs. Nil means in-memory
	// only (the default, and the pre-durability behavior).
	Durable Sink
	// Parallel runs each query's segment and memtable searches as tasks
	// on the bounded search executor instead of a sequential loop. The
	// default (false) preserves the original single-goroutine search
	// path.
	Parallel bool
	// Executor overrides the worker pool Parallel searches run on; nil
	// selects the process-wide exec.Default pool. Ignored unless
	// Parallel is set.
	Executor *exec.Executor
}

func (c Config) withDefaults() Config {
	if c.MemtableMaxDocs <= 0 {
		c.MemtableMaxDocs = 1024
	}
	if c.MaxSegments <= 0 {
		c.MaxSegments = 8
	}
	if c.ReclaimFrac <= 0 {
		c.ReclaimFrac = 0.25
	}
	if c.MaxPendingFlushes <= 0 {
		c.MaxPendingFlushes = 4
	}
	if c.RefreshEvery <= 0 {
		c.RefreshEvery = 1
	}
	if c.Analyzer == nil {
		c.Analyzer = textproc.NewAnalyzer()
	}
	if c.Parallel && c.Executor == nil {
		c.Executor = exec.Default()
	}
	return c
}

// docRef locates a key's current document: segID 0 is the memtable,
// anything else an immutable segment's ID.
type docRef struct {
	segID uint64
	local int32
}

// liveSeg is one immutable segment plus its mutable delete state.
type liveSeg struct {
	id   uint64
	seg  *index.Segment
	keys []string
	// tomb is the mutable tombstone set, guarded by the Index lock.
	// published is the immutable copy-on-write clone the current snapshot
	// reads; dirty records that tomb has advanced past it.
	tomb      *Tombstones
	published *Tombstones
	dirty     bool
}

// Stats is a point-in-time summary of the live index's shape.
type Stats struct {
	Generation   uint64 `json:"generation"`
	Segments     int    `json:"segments"`
	MemtableDocs int    `json:"memtable_docs"`
	LiveDocs     int64  `json:"live_docs"`
	Tombstones   int    `json:"tombstones"`
	Flushes      int64  `json:"flushes"`
	Merges       int64  `json:"merges"`
	// DocsIndexed counts every document ever ingested through Add.
	DocsIndexed int64 `json:"docs_indexed"`
	// IngestRate is the recent ingest throughput in documents per second,
	// averaged over the last five full one-second buckets.
	IngestRate float64 `json:"ingest_rate"`
	// SegmentsCut counts segments produced by memtable flushes (a flush
	// whose documents were all already tombstoned cuts none).
	SegmentsCut int64 `json:"segments_cut"`
	// PendingFlushes is the number of frozen memtables queued for the
	// background flusher — depth of the async-flush pipeline.
	PendingFlushes int `json:"pending_flushes"`
	// MergeBacklog is how many segments the index currently holds beyond
	// its MaxSegments budget — the debt the background merger is working
	// off.
	MergeBacklog int `json:"merge_backlog"`
	// Durable carries the sink's telemetry when the sink implements
	// StatsSink; nil for in-memory indexes.
	Durable *SinkStats `json:"durable,omitempty"`
}

// Index is a near-real-time mutable index: Add, Update and Delete are
// immediately (or, with RefreshEvery > 1, promptly) visible to Search,
// while the heavy lifting — segment construction, merging, dead-document
// reclamation — happens on a background goroutine against immutable
// structures. All methods are safe for full concurrency.
type Index struct {
	cfg Config

	mu           sync.Mutex // serializes all mutation and publication
	mem          *memtable
	memDead      *Tombstones
	memPublished *Tombstones
	memDirty     bool
	segs         []*liveSeg
	flushing     []*pendingFlush // frozen memtables awaiting build, oldest first
	keyRefs      map[string]docRef
	nextSegID    uint64
	gen          uint64
	pending      int
	merging      bool
	flushes      int64
	merges       int64
	docsIndexed  int64
	segmentsCut  int64
	rate         rateMeter
	closed       bool

	mergeCond *sync.Cond // signaled when a merge finishes
	flushCond *sync.Cond // signaled when a pending flush splices in

	cur atomic.Pointer[Snapshot]

	mergeCh chan struct{}
	flushCh chan struct{}
	closeCh chan struct{}
	wg      sync.WaitGroup
}

// NewIndex returns an empty live index and starts its background merge
// scheduler. Close must be called to stop it.
func NewIndex(cfg Config) *Index {
	li := &Index{
		cfg:       cfg.withDefaults(),
		mem:       newMemtable(),
		memDead:   NewTombstones(),
		keyRefs:   make(map[string]docRef),
		nextSegID: 1,
		mergeCh:   make(chan struct{}, 1),
		flushCh:   make(chan struct{}, 1),
		closeCh:   make(chan struct{}),
	}
	li.mergeCond = sync.NewCond(&li.mu)
	li.flushCond = sync.NewCond(&li.mu)
	li.publishLocked() // an empty but valid snapshot, so Acquire never nils
	li.wg.Add(2)
	go li.mergeLoop()
	go li.flushLoop()
	return li
}

// NewRecoveredIndex rebuilds a live index from durably recovered
// segments (ascending-ID order) — the manifest half of crash recovery;
// the caller then replays the write-ahead log through ordinary Add and
// Delete calls. Key references are reconstructed from stored documents
// (a document's key is its stored URL), walking segments in ascending ID
// order so a key deleted-and-readded across flushes resolves to its
// newest copy, which always lives in the higher-ID segment.
func NewRecoveredIndex(cfg Config, segs []RecoveredSegment, nextSegID uint64) *Index {
	li := &Index{
		cfg:       cfg.withDefaults(),
		mem:       newMemtable(),
		memDead:   NewTombstones(),
		keyRefs:   make(map[string]docRef),
		nextSegID: 1,
		mergeCh:   make(chan struct{}, 1),
		flushCh:   make(chan struct{}, 1),
		closeCh:   make(chan struct{}),
	}
	for _, rs := range segs {
		n := rs.Seg.NumDocs()
		tomb := rs.Tomb
		if tomb == nil {
			tomb = NewTombstones()
		}
		keys := make([]string, n)
		for i := 0; i < n; i++ {
			keys[i] = rs.Seg.Doc(int32(i)).URL
			if !tomb.Has(int32(i)) {
				li.keyRefs[keys[i]] = docRef{segID: rs.ID, local: int32(i)}
			}
		}
		li.segs = append(li.segs, &liveSeg{id: rs.ID, seg: rs.Seg, keys: keys, tomb: tomb})
		if rs.ID >= li.nextSegID {
			li.nextSegID = rs.ID + 1
		}
	}
	if nextSegID > li.nextSegID {
		li.nextSegID = nextSegID
	}
	li.mergeCond = sync.NewCond(&li.mu)
	li.flushCond = sync.NewCond(&li.mu)
	li.publishLocked()
	li.wg.Add(2)
	go li.mergeLoop()
	go li.flushLoop()
	return li
}

// Close stops the background scheduler. The index remains searchable
// (snapshots stay valid) but must not be mutated afterwards.
func (li *Index) Close() {
	li.mu.Lock()
	if li.closed {
		li.mu.Unlock()
		return
	}
	li.closed = true
	li.mu.Unlock()
	close(li.closeCh)
	li.wg.Wait()
}

// Generation returns the generation of the currently published
// snapshot, without taking the index lock.
func (li *Index) Generation() uint64 { return li.cur.Load().gen }

// Acquire returns the current published snapshot with a reference taken.
// The caller must Release it.
func (li *Index) Acquire() *Snapshot {
	for {
		s := li.cur.Load()
		if s.tryRef() {
			return s
		}
		// The publisher replaced and released s between our load and ref;
		// reload and retry.
	}
}

// Add ingests a document under key, superseding any previous document
// with the same key (the previous version is tombstoned and reclaimed at
// the next merge touching its segment). The key doubles as the
// document's URL in stored fields. With a durable sink configured, the
// mutation is journaled before it is applied; a journaling error leaves
// the index unchanged. An error from the flush commit a full memtable
// triggers is NOT returned: at that point the document is journaled,
// applied, and WAL-covered, so the sink latches the error (surfaced via
// stats and Err) instead of failing a write that actually succeeded.
func (li *Index) Add(key, title, body string, quality float64) error {
	terms := analyze(li.cfg.Analyzer, title, body)
	snippet := body
	if len(snippet) > storedSnippetLen {
		snippet = snippet[:storedSnippetLen]
	}
	stored := index.StoredDoc{URL: key, Title: title, Quality: float32(quality), Snippet: snippet}

	li.mu.Lock()
	defer li.mu.Unlock()
	if li.cfg.Durable != nil {
		if err := li.cfg.Durable.LogAdd(key, title, body, quality); err != nil {
			return err
		}
	}
	if old, ok := li.keyRefs[key]; ok {
		li.tombstoneLocked(old)
	}
	local := li.mem.add(stored, key, terms)
	li.keyRefs[key] = docRef{segID: 0, local: local}
	li.docsIndexed++
	li.rate.tick(timeNowUnix())
	if len(li.mem.docs) >= li.cfg.MemtableMaxDocs {
		if li.cfg.Durable != nil {
			// Durable indexes flush synchronously: the flush commit rotates
			// the write-ahead log, which is only sound when every journaled
			// mutation is captured by the persisted segments at commit time
			// — an async splice would rotate away coverage of writes that
			// landed after the freeze. A commit failure here is post-apply:
			// the document was journaled before it was applied and the
			// un-rotated WAL still covers it, so it is durable and visible.
			// Like the merge path, latching the error in the sink (it
			// resurfaces via stats and the next commit retries the persist)
			// beats reporting failure for a write that succeeded.
			_ = li.flushLocked()
		} else {
			// In-memory indexes hand the full memtable to the background
			// flusher and keep ingesting: the expensive segment build runs
			// off-lock while writes land in a fresh memtable.
			li.freezeMemtableLocked()
		}
	}
	li.afterMutationLocked()
	return nil
}

// Update replaces the document stored under key; it is Add's
// read-your-writes alias, kept for call-site clarity.
func (li *Index) Update(key, title, body string, quality float64) error {
	return li.Add(key, title, body, quality)
}

// Delete removes the document stored under key, reporting whether it
// existed. The document stops matching searches at the next refresh; its
// index data is reclaimed when a merge rewrites its segment. Like Add,
// the delete is journaled before it is applied; deletes of absent keys
// are not journaled.
func (li *Index) Delete(key string) (bool, error) {
	li.mu.Lock()
	defer li.mu.Unlock()
	ref, ok := li.keyRefs[key]
	if !ok {
		return false, nil
	}
	if li.cfg.Durable != nil {
		if err := li.cfg.Durable.LogDelete(key); err != nil {
			return false, err
		}
	}
	li.tombstoneLocked(ref)
	delete(li.keyRefs, key)
	li.afterMutationLocked()
	return true, nil
}

// Search parses raw against the index's analyzer and evaluates it on the
// current snapshot.
func (li *Index) Search(raw string, mode search.Mode, k int) []Hit {
	return li.SearchQuery(search.ParseQuery(li.cfg.Analyzer, raw, mode), k)
}

// SearchInto is Search appending into dst; see Snapshot.SearchInto.
func (li *Index) SearchInto(raw string, mode search.Mode, k int, dst []Hit) []Hit {
	return li.SearchQueryInto(search.ParseQuery(li.cfg.Analyzer, raw, mode), k, dst)
}

// SearchQuery evaluates an analyzed query on the current snapshot.
func (li *Index) SearchQuery(q search.Query, k int) []Hit {
	return li.SearchQueryInto(q, k, nil)
}

// SearchQueryInto is SearchQuery appending into dst; see
// Snapshot.SearchInto.
func (li *Index) SearchQueryInto(q search.Query, k int, dst []Hit) []Hit {
	s := li.Acquire()
	defer s.Release()
	return s.SearchInto(q, k, dst)
}

// SetDurableSink replaces the index's durability sink — the hook for
// teeing an extra destination (e.g. a blob-store publisher via
// MultiSink) onto an index opened with a sink already installed.
// Mutations and commits in flight finish against the old sink.
func (li *Index) SetDurableSink(s Sink) {
	li.mu.Lock()
	li.cfg.Durable = s
	li.mu.Unlock()
}

// SetRefreshEvery changes the refresh interval (values <= 0 select the
// default of 1). Bulk loaders raise it while seeding and restore it
// before serving.
func (li *Index) SetRefreshEvery(n int) {
	if n <= 0 {
		n = 1
	}
	li.mu.Lock()
	li.cfg.RefreshEvery = n
	li.mu.Unlock()
}

// Refresh publishes any pending mutations immediately, regardless of
// RefreshEvery, and returns the new generation.
func (li *Index) Refresh() uint64 {
	li.mu.Lock()
	defer li.mu.Unlock()
	li.publishLocked()
	return li.gen
}

// Flush forces the memtable into an immutable segment and publishes.
// With a durable sink, the flush is committed (segments persisted, WAL
// rotated) before Flush returns; without one, Flush freezes the memtable
// onto the background flusher and waits for every pending flush to
// splice in.
func (li *Index) Flush() error {
	li.mu.Lock()
	defer li.mu.Unlock()
	if li.cfg.Durable != nil {
		err := li.flushLocked()
		li.publishLocked()
		return err
	}
	li.freezeMemtableLocked()
	li.waitFlushesLocked()
	li.publishLocked()
	return nil
}

// Stats returns a point-in-time summary.
func (li *Index) Stats() Stats {
	li.mu.Lock()
	defer li.mu.Unlock()
	st := Stats{
		Generation:     li.gen,
		Segments:       len(li.segs),
		MemtableDocs:   len(li.mem.docs),
		Tombstones:     li.memDead.Count(),
		Flushes:        li.flushes,
		Merges:         li.merges,
		DocsIndexed:    li.docsIndexed,
		IngestRate:     li.rate.rate(timeNowUnix()),
		SegmentsCut:    li.segmentsCut,
		PendingFlushes: len(li.flushing),
	}
	st.LiveDocs = int64(len(li.mem.docs) - li.memDead.Count())
	for _, pf := range li.flushing {
		st.Tombstones += pf.tomb.Count()
		st.LiveDocs += int64(len(pf.mem.docs) - pf.tomb.Count())
	}
	for _, ls := range li.segs {
		st.Tombstones += ls.tomb.Count()
		st.LiveDocs += int64(ls.seg.NumDocs() - ls.tomb.Count())
	}
	if over := len(li.segs) - li.cfg.MaxSegments; over > 0 {
		st.MergeBacklog = over
	}
	if ss, ok := li.cfg.Durable.(StatsSink); ok {
		d := ss.SinkStats()
		st.Durable = &d
	}
	return st
}

// storedSnippetLen mirrors the builder's stored-snippet budget.
const storedSnippetLen = 160

// analyze tokenizes a document once into sorted (term, freq) pairs — the
// shape both the memtable and the flush-time builder consume.
func analyze(a *textproc.Analyzer, title, body string) []memTermFreq {
	freqs := make(map[string]int32)
	count := func(t string) { freqs[t]++ }
	a.AnalyzeFunc(title, count)
	a.AnalyzeFunc(body, count)
	out := make([]memTermFreq, 0, len(freqs))
	for t, f := range freqs {
		out = append(out, memTermFreq{term: t, freq: f})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].term < out[j].term })
	return out
}

// tombstoneLocked marks ref's document deleted in its home structure —
// the active memtable (segID 0), a frozen memtable still queued for its
// background flush (the delete lands in the pending flush's tombstones
// and is remapped onto the built segment at splice time), or an
// immutable segment.
func (li *Index) tombstoneLocked(ref docRef) {
	if ref.segID == 0 {
		if li.memDead.Set(ref.local) {
			li.memDirty = true
		}
		return
	}
	for _, pf := range li.flushing {
		if pf.id == ref.segID {
			if pf.tomb.Set(ref.local) {
				pf.dirty = true
			}
			return
		}
	}
	for _, ls := range li.segs {
		if ls.id == ref.segID {
			if ls.tomb.Set(ref.local) {
				ls.dirty = true
			}
			return
		}
	}
}

// afterMutationLocked counts one mutation toward the refresh interval.
func (li *Index) afterMutationLocked() {
	li.pending++
	if li.pending >= li.cfg.RefreshEvery {
		li.publishLocked()
	}
}

// flushLocked freezes the memtable into an immutable segment, skipping
// documents already tombstoned (cheap reclamation: they never reach a
// segment), rewires key references, and starts a fresh memtable. The
// previous memtable object is left untouched for snapshots that still
// view it. With a durable sink the new segment set is committed and the
// write-ahead log rotated; a commit error is returned but the in-memory
// flush stands (the old WAL still covers the unpersisted delta).
func (li *Index) flushLocked() error {
	m := li.mem
	n := len(m.docs)
	if n == 0 {
		return nil
	}
	if alive := n - li.memDead.Count(); alive > 0 {
		b := index.NewBuilder(index.WithAnalyzer(li.cfg.Analyzer))
		keys := make([]string, 0, alive)
		remap := make([]int32, n)
		var terms []string
		var freqs []int32
		for i := 0; i < n; i++ {
			if li.memDead.Has(int32(i)) {
				remap[i] = -1
				continue
			}
			terms, freqs = terms[:0], freqs[:0]
			for _, tf := range m.docTerms[i] {
				terms = append(terms, tf.term)
				freqs = append(freqs, tf.freq)
			}
			remap[i] = b.AddPreanalyzed(m.docs[i], terms, freqs)
			keys = append(keys, m.keys[i])
		}
		id := li.nextSegID
		li.nextSegID++
		li.segs = append(li.segs, &liveSeg{id: id, seg: b.Finalize(), keys: keys, tomb: NewTombstones()})
		li.segmentsCut++
		for i := 0; i < n; i++ {
			if remap[i] < 0 {
				continue
			}
			if r, ok := li.keyRefs[m.keys[i]]; ok && r.segID == 0 && r.local == int32(i) {
				li.keyRefs[m.keys[i]] = docRef{segID: id, local: remap[i]}
			}
		}
	}
	li.mem = newMemtable()
	li.memDead = NewTombstones()
	li.memPublished = nil
	li.memDirty = false
	li.flushes++
	li.wakeMerger()
	return li.commitLocked("flush", true)
}

// commitLocked hands the durable sink the full post-change segment set.
// rotate is true for flush commits (the persisted segments now capture
// everything the WAL held) and false for merges (which reshuffle
// already-persisted documents without touching the log's coverage).
func (li *Index) commitLocked(reason string, rotate bool) error {
	if li.cfg.Durable == nil {
		return nil
	}
	c := Commit{Reason: reason, NextSegID: li.nextSegID, Rotate: rotate}
	c.Segments = make([]CommitSegment, 0, len(li.segs))
	for _, ls := range li.segs {
		cs := CommitSegment{ID: ls.id, Seg: ls.seg}
		if ls.tomb.Count() > 0 {
			cs.Tomb = ls.tomb.Marshal()
		}
		c.Segments = append(c.Segments, cs)
	}
	return li.cfg.Durable.Commit(c)
}

// wakeMerger nudges the background scheduler without blocking.
func (li *Index) wakeMerger() {
	select {
	case li.mergeCh <- struct{}{}:
	default:
	}
}

// publishLocked builds and atomically installs a new snapshot. Segment
// tombstones that advanced since the last publish are cloned
// copy-on-write, so the snapshot's view is immutable; everything else in
// the snapshot is shared immutable or append-only state.
func (li *Index) publishLocked() {
	li.gen++
	nViews := len(li.segs) + len(li.flushing) + 1
	views := make([]partition.View, 0, nViews)
	maps := make([]partition.DocMap, 0, nViews)
	segViews := make([]*segView, 0, len(li.segs))
	var base int32
	var liveDocs int
	var totalLen int64
	for _, ls := range li.segs {
		if ls.published == nil || ls.dirty {
			ls.published = ls.tomb.Clone()
			ls.dirty = false
		}
		sv := &segView{seg: ls.seg, keys: ls.keys, dead: ls.published, base: base}
		// The tombstone filter binds the view's immutable published
		// clone. Queries override TopK per call.
		opts := search.Options{TopK: 10, UseMaxScore: true, Analyzer: li.cfg.Analyzer}
		if ls.published.Count() > 0 {
			opts.Deleted = ls.published.Has
		}
		sv.searcher = search.NewSearcher(ls.seg, opts)
		segViews = append(segViews, sv)
		views = append(views, sv.searcher)
		maps = append(maps, partition.DocMap{Base: base, Stride: 1})
		base += int32(ls.seg.NumDocs())
		liveDocs += ls.seg.NumDocs() - ls.published.Count()
		totalLen += ls.seg.TotalLen()
	}
	memBase := base
	mems := make([]*memView, 0, len(li.flushing)+1)
	addMem := func(mem *memtable, dead *Tombstones) {
		mv := memViewOf(mem, dead, base)
		mems = append(mems, mv)
		views = append(views, mv)
		maps = append(maps, partition.DocMap{Base: base, Stride: 1})
		base += mv.upTo
		liveDocs += int(mv.upTo) - dead.Count()
		totalLen += mv.totalLen
	}
	for _, pf := range li.flushing {
		if pf.published == nil || pf.dirty {
			pf.published = pf.tomb.Clone()
			pf.dirty = false
		}
		addMem(pf.mem, pf.published)
	}
	if li.memPublished == nil || li.memDirty {
		li.memPublished = li.memDead.Clone()
		li.memDirty = false
	}
	addMem(li.mem, li.memPublished)
	snap := &Snapshot{
		gen:     li.gen,
		segs:    segViews,
		mems:    mems,
		memBase: memBase,
		live:    liveDocs,
	}
	if base > 0 {
		snap.avgDocLen = float64(totalLen) / float64(base)
	}
	var pool *exec.Executor
	if li.cfg.Parallel {
		pool = li.cfg.Executor
	}
	snap.core = partition.NewViewSearcher(views, maps, snap, li.cfg.Analyzer, 0, pool)
	snap.refs.Store(1)
	if old := li.cur.Swap(snap); old != nil {
		old.Release()
	}
	li.pending = 0
}
