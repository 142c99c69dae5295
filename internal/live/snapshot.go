package live

import (
	"sort"
	"sync/atomic"

	"websearchbench/internal/index"
	"websearchbench/internal/partition"
	"websearchbench/internal/search"
)

// Hit is one ranked result from the live index, resolved to the
// document's external key and stored fields.
type Hit struct {
	Key   string
	Score float64
	Doc   index.StoredDoc
}

// segView is one immutable segment as seen by a snapshot: the segment,
// the tombstones published for it (an immutable clone — mutations after
// publication go to a fresh clone), the per-document external keys, and
// the segment's offset in the snapshot's synthetic global docID space.
type segView struct {
	seg  *index.Segment
	keys []string
	dead *Tombstones
	base int32
	// searcher is the view's member of the snapshot's fan-out, built once
	// at publication with the tombstone filter bound.
	searcher *search.Searcher
}

// Snapshot is a refcounted point-in-time view of the live index.
// Searches against a snapshot observe exactly the documents that were
// visible when it was published, no matter how many mutations, flushes
// or merges land afterwards. Snapshots are safe for concurrent use.
//
// A snapshot obtained from Acquire must be Released; the index's
// currently published snapshot holds one reference of its own, dropped
// when a newer snapshot replaces it.
type Snapshot struct {
	gen  uint64
	refs atomic.Int32
	segs []*segView
	// mems are the in-memory views: frozen memtables awaiting their
	// background flush (oldest first), then the active memtable. Their
	// bases follow the segments' in the global docID space.
	mems      []*memView
	memBase   int32 // base of mems[0]; docIDs >= memBase resolve in mems
	live      int
	avgDocLen float64
	// core fans queries out over segs then mems, on the index's executor
	// when one is configured; the snapshot is its partition.Source.
	core *partition.Searcher
}

// Generation returns the snapshot's publication generation. Generations
// increase monotonically with every published mutation batch, which is
// what the engine's result cache keys on to invalidate stale entries.
func (s *Snapshot) Generation() uint64 { return s.gen }

// NumDocs returns the number of live (non-tombstoned) documents visible.
func (s *Snapshot) NumDocs() int { return s.live }

// AvgDocLen returns the mean length in terms of the documents in the
// view, tombstoned ones included.
func (s *Snapshot) AvgDocLen() float64 { return s.avgDocLen }

// Searcher returns the fan-out over the snapshot's views, for callers
// that serve static and live indexes through one path. Hits carry
// snapshot-global docIDs, resolved by its Doc; its Release releases the
// snapshot.
func (s *Snapshot) Searcher() *partition.Searcher { return s.core }

// NumSegments returns the number of immutable segments in the view.
func (s *Snapshot) NumSegments() int { return len(s.segs) }

// tryRef takes a reference if the snapshot is still alive.
func (s *Snapshot) tryRef() bool {
	for {
		r := s.refs.Load()
		if r <= 0 {
			return false
		}
		if s.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// Release drops one reference. The snapshot must not be used afterwards.
func (s *Snapshot) Release() { s.refs.Add(-1) }

// Search evaluates an analyzed query against the snapshot and returns
// the global top-k: each segment and the memtable view produce a local
// top-k under their tombstone filters, and the lists are merged exactly
// as the partitioned search path merges shard results. k <= 0 defaults
// to 10. The live segments carry no positions, so phrase queries match
// nothing.
func (s *Snapshot) Search(q search.Query, k int) []Hit {
	return s.SearchInto(q, k, nil)
}

// SearchInto is Search appending the resolved hits to dst (which may be
// nil), so steady-state callers can serve queries without allocating.
// Segment views run on the index's executor when one is configured —
// the live half of the bounded query execution engine — and share a
// pruning threshold, so a segment that fills its heap first lets the
// others skip postings below the global floor; the merged top-k is
// identical to the sequential evaluation either way. The returned slice
// aliases dst's backing array; its hits pin snapshot data (keys, stored
// docs), so pooled buffers should be cleared before reuse.
func (s *Snapshot) SearchInto(q search.Query, k int, dst []Hit) []Hit {
	if s.refs.Load() <= 0 {
		panic("live: Search on a released snapshot")
	}
	sc := partition.GetScratch()
	s.core.SearchInto(q, k, sc)
	for _, h := range sc.Hits {
		dst = append(dst, s.resolve(h))
	}
	partition.PutScratch(sc)
	return dst
}

// SearchText parses raw query text and evaluates it against the snapshot.
func (s *Snapshot) SearchText(raw string, mode search.Mode, k int) []Hit {
	return s.Search(search.ParseQuery(s.core.Analyzer(), raw, mode), k)
}

// Doc returns the stored document behind a snapshot-global docID.
func (s *Snapshot) Doc(global int32) index.StoredDoc {
	return s.resolve(search.Hit{Doc: global}).Doc
}

// URLTitle returns the URL and title behind a snapshot-global docID,
// without the rest of its stored fields.
func (s *Snapshot) URLTitle(global int32) (url, title string) {
	mv, sv, local := s.locate(global)
	if mv != nil {
		return mv.docs[local].URL, mv.docs[local].Title
	}
	return sv.seg.URLTitle(local)
}

// resolve maps a global-docID hit back to its source's key and stored
// document.
func (s *Snapshot) resolve(h search.Hit) Hit {
	mv, sv, local := s.locate(h.Doc)
	if mv != nil {
		return Hit{Key: mv.keys[local], Score: h.Score, Doc: mv.docs[local]}
	}
	return Hit{Key: sv.keys[local], Score: h.Score, Doc: sv.seg.Doc(local)}
}

// locate finds the view holding a global docID, a memtable view or a
// segment view, and the docID local to it.
func (s *Snapshot) locate(global int32) (*memView, *segView, int32) {
	if global >= s.memBase {
		// Walk the (few) memtable views newest-first; each covers docIDs
		// [base, base+upTo).
		for i := len(s.mems) - 1; i >= 0; i-- {
			if mv := s.mems[i]; global >= mv.base {
				return mv, nil, global - mv.base
			}
		}
	}
	i := sort.Search(len(s.segs), func(i int) bool { return s.segs[i].base > global }) - 1
	return nil, s.segs[i], global - s.segs[i].base
}
