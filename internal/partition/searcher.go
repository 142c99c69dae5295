package partition

import (
	"fmt"
	"sync"
	"time"

	"websearchbench/internal/index"
	"websearchbench/internal/search"
	"websearchbench/internal/search/exec"
	"websearchbench/internal/textproc"
)

// Result is the outcome of a fanned-out search: merged global-docID hits
// plus the per-view timing the fork-join studies need.
type Result struct {
	Hits []search.Hit // global docIDs, descending score
	// Matches and PostingsScanned are summed over the views.
	Matches         int
	PostingsScanned int64
	// PartTimes[p] is view p's wall-clock service time. Timing
	// collection is opt-in (see SetCollectPartTimes): empty when disabled.
	PartTimes []time.Duration
	// CriticalPath is the longest view time: the fork-join span a
	// parallel server pays before merging. Zero when timing collection
	// is disabled.
	CriticalPath time.Duration
	// TotalWork is the sum of view times: the CPU work a server pays
	// regardless of parallelism. Zero when timing collection is
	// disabled.
	TotalWork time.Duration
	// MergeTime is the cost of combining the per-view top-k lists.
	MergeTime time.Duration
	// Incomplete is set when any view's result is: a blob-served
	// segment lost a block read, so Hits may miss documents.
	Incomplete bool
}

// View is one immutable member of a view set — an index segment behind
// a *search.Searcher, a live memtable prefix — evaluating a query into
// its local top-k. The fan-out always passes a positive k; share is nil
// when the query's views prune independently.
type View interface {
	SearchIntoShared(q search.Query, res *search.Result, k int, share *search.ThresholdShare)
}

// Source owns the data behind a view set: it resolves the set's global
// docIDs to stored documents (URLTitle to the two fields a result line
// shows), describes the set, and is told when a search is done with it.
// A partitioned Index is a Source that ignores Release; a live snapshot
// is one that counts references.
type Source interface {
	Doc(global int32) index.StoredDoc
	URLTitle(global int32) (url, title string)
	NumDocs() int
	AvgDocLen() float64
	Release()
}

// indexSource adapts an Index, which the garbage collector reclaims, to
// Source.
type indexSource struct{ *Index }

func (indexSource) Release() {}

// Searcher fans a query out over an immutable set of views and merges
// their top-k lists — the paper's intra-server fork-join, and the only
// implementation of it: static partitions, blob-served segments and live
// snapshots are all view sets. It is safe for concurrent use.
type Searcher struct {
	Source
	views    []View
	maps     []DocMap
	analyzer *textproc.Analyzer
	k        int
	// pool is the bounded executor the views run on; nil searches them
	// sequentially on the calling goroutine.
	pool *exec.Executor
	// shared enables cross-view threshold sharing: one pooled
	// ThresholdShare per query, every view publishing its heap floor and
	// pruning against the global maximum.
	shared bool
	// collectTimes enables the PartTimes/CriticalPath/TotalWork
	// breakdown, which the serving path would fill only to discard.
	collectTimes bool
}

// NewViewSearcher builds the fan-out over views, view i mapping its
// docIDs through maps[i] into the space src resolves. k is the default
// result count (10 when not positive); pool may be nil for sequential
// evaluation. Threshold sharing is on, timing collection off.
func NewViewSearcher(views []View, maps []DocMap, src Source, a *textproc.Analyzer, k int, pool *exec.Executor) *Searcher {
	if k <= 0 {
		k = 10
	}
	return &Searcher{Source: src, views: views, maps: maps, analyzer: a, k: k, pool: pool, shared: true}
}

// NewSearcher builds per-partition searchers with the given options.
// When parallel is true, partitions are searched as tasks on the shared
// bounded executor (exec.Default) — the intra-server parallelism of the
// paper's study, bounded so concurrent queries multiplex over a fixed
// worker pool; otherwise they are searched sequentially on the calling
// goroutine, which isolates the pure work measurements used to
// calibrate the server simulator. Cross-partition threshold sharing
// defaults on in both modes (results are identical, postings scanned
// strictly drop); per-partition timing defaults on only for sequential
// searchers (the calibration and fork-join measurement paths).
// SetExecutor, SetSharedPruning and SetCollectPartTimes override the
// defaults.
func NewSearcher(idx *Index, opts search.Options, parallel bool) *Searcher {
	if opts.Analyzer == nil {
		opts.Analyzer = textproc.NewAnalyzer()
	}
	views := make([]View, idx.NumPartitions())
	for p := range views {
		views[p] = search.NewSearcher(idx.Segment(p), opts)
	}
	var pool *exec.Executor
	if parallel {
		pool = exec.Default()
	}
	s := NewViewSearcher(views, idx.maps, indexSource{idx}, opts.Analyzer, opts.TopK, pool)
	s.collectTimes = !parallel
	return s
}

// SetPartitionDeleted installs a per-partition tombstone filter: local
// docIDs for which del returns true are excluded from partition p's
// results. Manifest-served live segments carry their deletes this way.
// Must be called before the searcher starts serving queries (it swaps
// the partition's underlying searcher, not a concurrent-safe field).
func (s *Searcher) SetPartitionDeleted(p int, del func(int32) bool) error {
	if p < 0 || p >= len(s.views) {
		return fmt.Errorf("partition: no partition %d (have %d)", p, len(s.views))
	}
	old, ok := s.views[p].(*search.Searcher)
	if !ok {
		return fmt.Errorf("partition: view %d is not a segment", p)
	}
	opts := old.Options()
	opts.Deleted = del
	s.views[p] = search.NewSearcher(old.Segment(), opts)
	return nil
}

// SetExecutor overrides the worker pool the views run on; nil selects
// sequential evaluation.
func (s *Searcher) SetExecutor(e *exec.Executor) { s.pool = e }

// SetSharedPruning toggles cross-view threshold sharing (default on).
// Off, every view prunes against only its local top-k heap — kept for
// bench/'s shared-vs-independent ratio, partition.shared_saving.
func (s *Searcher) SetSharedPruning(on bool) { s.shared = on }

// SetCollectPartTimes toggles the per-view timing breakdown (PartTimes,
// CriticalPath, TotalWork). Defaults on for sequential searchers built
// by NewSearcher, off otherwise.
func (s *Searcher) SetCollectPartTimes(on bool) { s.collectTimes = on }

// NumViews returns the fan-out width: partitions, or a live snapshot's
// segments plus memtables.
func (s *Searcher) NumViews() int { return len(s.views) }

// Analyzer returns the analyzer queries against this searcher are
// parsed with.
func (s *Searcher) Analyzer() *textproc.Analyzer { return s.analyzer }

// ParseAndSearch analyzes raw text and evaluates it across all views.
func (s *Searcher) ParseAndSearch(raw string, mode search.Mode) Result {
	return s.Search(search.ParseQuery(s.analyzer, raw, mode))
}

// Scratch is the reusable working set of one search: one Result per
// view (whose Hits arrays the views refill in place), the merge input,
// and the merged Result, which stays valid until the Scratch is searched
// into again or returned with PutScratch. Steady-state searches through
// a pooled Scratch allocate nothing.
type Scratch struct {
	Result
	partRes []search.Result
	lists   [][]search.Hit
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch returns a pooled Scratch.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns sc, and the Result in it, to the pool.
func PutScratch(sc *Scratch) { scratchPool.Put(sc) }

// Search evaluates an analyzed query with the default result count and
// returns a Result the caller owns.
func (s *Searcher) Search(q search.Query) Result {
	sc := GetScratch()
	s.SearchInto(q, 0, sc)
	res := sc.Result
	res.Hits = append([]search.Hit(nil), res.Hits...)
	res.PartTimes = append([]time.Duration(nil), res.PartTimes...)
	PutScratch(sc)
	return res
}

// SearchInto evaluates an analyzed query across all views and merges
// the per-view top-k lists into the global top-k in sc.Result. k <= 0
// selects the searcher's default result count.
func (s *Searcher) SearchInto(q search.Query, k int, sc *Scratch) {
	if k <= 0 {
		k = s.k
	}
	n := len(s.views)
	for len(sc.partRes) < n {
		sc.partRes = append(sc.partRes, search.Result{})
		sc.lists = append(sc.lists, nil)
	}
	lists := sc.lists[:n]
	res := &sc.Result
	*res = Result{Hits: res.Hits[:0], PartTimes: res.PartTimes[:0]}
	if s.collectTimes {
		for len(res.PartTimes) < n {
			res.PartTimes = append(res.PartTimes, 0)
		}
	}
	times, timed := res.PartTimes, s.collectTimes
	var share *search.ThresholdShare
	if s.shared && n > 1 {
		share = search.GetThresholdShare()
	}

	run := func(i int) {
		if timed {
			start := time.Now()
			s.views[i].SearchIntoShared(q, &sc.partRes[i], k, share)
			times[i] = time.Since(start)
			return
		}
		s.views[i].SearchIntoShared(q, &sc.partRes[i], k, share)
	}
	if s.pool != nil && n > 1 {
		s.pool.Map(n, run)
	} else {
		for i := 0; i < n; i++ {
			run(i)
		}
	}
	if share != nil {
		search.PutThresholdShare(share)
	}

	mergeStart := time.Now()
	for i, m := range s.maps {
		// Rewrite local docIDs to global in place before merging; the
		// per-view hits are scratch, not handed to the caller.
		hits := sc.partRes[i].Hits
		for j := range hits {
			hits[j].Doc = m.Base + hits[j].Doc*m.Stride
		}
		lists[i] = hits
		res.Matches += sc.partRes[i].Matches
		res.PostingsScanned += sc.partRes[i].PostingsScanned
		res.Incomplete = res.Incomplete || sc.partRes[i].Incomplete
	}
	res.Hits = search.MergeTopKInto(res.Hits, lists, k)
	res.MergeTime = time.Since(mergeStart)
	for _, d := range times {
		res.TotalWork += d
		if d > res.CriticalPath {
			res.CriticalPath = d
		}
	}
}
