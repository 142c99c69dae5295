package index

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

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

// OpenLazySegment opens a v05 segment from its metadata prefix — the
// file bytes [0, layout.PostOff), i.e. header, doc and dict sections —
// without its postings, checking the dictionary against layout as a
// whole file is checked. Posting blocks are read through src: short
// lists are a single block, long lists one block per skip interval, and
// a positions stream is one more block after them, which is what makes
// a searcher over such a segment serve from a byte-budgeted block cache
// instead of resident posting data. The returned segment supports
// everything an in-memory segment does except re-serialization.
func OpenLazySegment(meta []byte, layout SegmentLayout, src BlockReader) (*Segment, error) {
	if src == nil {
		return nil, fmt.Errorf("index: OpenLazySegment requires a block reader")
	}
	return openSegment(meta, layout, src)
}

// IsLazy reports whether the segment reads posting blocks through a
// BlockReader instead of holding them resident.
func (s *Segment) IsLazy() bool { return s.src != nil }

// LazyQuery is the fetch state of one query on one lazy segment. The
// searcher takes every iterator of the query from it, calls Prefetch
// once all terms are resolved, asks Incomplete when it is done and then
// releases it. All reads of posting bytes — the per-query plan, a miss
// during evaluation and its read-ahead, a positions stream — are the
// same operation: plan the runs of non-resident blocks in a block range,
// read them in one ReadRuns call. Blocks a query has read stay held by
// it, so evaluation never depends on the cache keeping them. A
// LazyQuery is used by one goroutine.
type LazyQuery struct {
	seg *Segment
	// lists are the query's lists; the ones past len were a released
	// query's and are reused, with their held arrays.
	lists  []*lazyList
	runs   []BlockRun // planned, not yet read
	failed bool
}

// lazyQueries recycles released queries, so a query whose blocks are
// resident allocates nothing.
var lazyQueries = sync.Pool{New: func() any { return new(LazyQuery) }}

// NewLazyQuery returns the fetch state for one query on a lazy segment.
func (s *Segment) NewLazyQuery() *LazyQuery {
	q := lazyQueries.Get().(*LazyQuery)
	q.seg = s
	return q
}

// Release hands the query's state back for reuse. Neither the query nor
// its iterators may be used afterwards.
func (q *LazyQuery) Release() {
	for _, l := range q.lists {
		clear(l.held) // pin no block, and no segment below
		*l = lazyList{held: l.held}
	}
	q.seg, q.lists, q.runs, q.failed = nil, q.lists[:0], q.runs[:0], false
	lazyQueries.Put(q)
}

// lazyList is one posting list within a LazyQuery. Block b of the list
// spans [table[b-1].pos, table[b].pos), block 0 starting at 0 and the
// last block running to plen; a list without a skip table is one block.
// On a positional segment the positions stream is one more block, index
// blocks, spanning the posLen bytes after plen.
type lazyList struct {
	q      *LazyQuery
	id     int32
	df     int32
	start  int64 // list start within the postings section
	plen   int64 // length of the doc/freq part
	posLen int64 // length of the positions stream
	table  []skipEntry
	maxes  []float32 // block maxima
	blocks int       // doc/freq blocks
	held   [][]byte  // held[b] is block b once this query has read it
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
	var l *lazyList
	if n := len(q.lists); n < cap(q.lists) {
		l = q.lists[:n+1][n]
	}
	if l == nil {
		l = new(lazyList)
	}
	s := q.seg
	e := s.entry(id)
	table, maxes := s.skipsOf(id, e.DocFreq)
	*l = lazyList{q: q, id: id, df: e.DocFreq, start: int64(s.terms[id].post), plen: int64(e.plen), posLen: int64(e.posLen),
		table: table, maxes: maxes, blocks: len(table) + 1, held: l.held, ahead: 1}
	if l.plen == 0 || (len(table) > 0 && int64(table[len(table)-1].pos) == l.plen) {
		l.blocks-- // nothing follows the last checkpoint
	}
	l.held = slices.Grow(l.held[:0], l.blocks+1)[:l.blocks+1] // the last is the positions stream
	q.lists = append(q.lists, l)
	return l
}

// Postings returns an iterator over term id's list whose blocks are
// read through the query. Nothing is read here.
func (q *LazyQuery) Postings(id int32, withSkips bool) PostingsIterator {
	var it PostingsIterator
	q.PostingsInto(&it, id, withSkips)
	return it
}

// PostingsInto is Postings building the iterator in *it, whatever it
// held before.
func (q *LazyQuery) PostingsInto(it *PostingsIterator, id int32, withSkips bool) {
	l := q.list(id)
	if withSkips {
		it.reset(nil, l, l.df, l.table, l.maxes)
	} else {
		it.reset(nil, l, l.df, nil, nil)
	}
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
	q.seg.src.ReadRuns(q.runs)
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
		if data := q.seg.src.Cached(l.id, b); data != nil {
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
		l.q.seg.src.Needed(hits, misses)
	}
}

// block returns block b's bytes: what the query holds, else the
// resident copy, else a read of b and the read-ahead behind it. nil
// means the read failed.
func (l *lazyList) block(b int) []byte {
	hits, misses := 0, 1 // a block held but not yet counted came in as read-ahead
	data := l.held[b]
	if data == nil {
		if data = l.q.seg.src.Cached(l.id, b); data != nil {
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
		l.q.seg.src.Needed(hits, misses)
	}
	return l.held[b]
}

// window is how an iterator reads the list: the block containing byte
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
	return sort.Search(len(table), func(b int) bool { return int(table[b].pos) > pos })
}
