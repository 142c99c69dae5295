package search

import (
	"math/bits"
	"sync"
	"time"

	"websearchbench/internal/index"
	"websearchbench/internal/textproc"
)

// Options configures a Searcher.
type Options struct {
	// TopK is the number of results to return (default 10, the
	// benchmark's results-per-page).
	TopK int
	// UseMaxScore enables MaxScore dynamic pruning for disjunctive
	// queries.
	UseMaxScore bool
	// Analyzer used by ParseAndSearch; defaults to the standard pipeline.
	Analyzer *textproc.Analyzer
	// DisableSkips makes iterators ignore their skip tables, falling
	// back to linear SkipTo — kept for the skip-list ablation.
	DisableSkips bool
	// DisableBlockMax forces plain MaxScore pruning even when the
	// segment carries block-max metadata — kept for the Block-Max
	// ablation. Block-Max is also skipped automatically when the
	// metadata is absent (raw compression) or
	// inapplicable (global statistics replace the local bounds the block
	// maxima were computed under; see Stats).
	DisableBlockMax bool
	// Deleted, when non-nil, reports whether a document is tombstoned:
	// matching documents it flags are silently dropped from candidates
	// before they can enter the top-k, which is how the live index hides
	// deleted and superseded documents that still sit in immutable
	// segments awaiting merge-time reclamation. Skipping a candidate
	// never loosens the MaxScore/Block-Max pruning bounds (thresholds
	// only ever come from surviving hits), so pruning stays exact.
	Deleted func(doc int32) bool
	// Shared, when non-nil, is the cross-searcher threshold share this
	// searcher publishes its top-k heap floor to and prunes against —
	// the second pillar of the query execution engine. Searchers over
	// different partitions or segments evaluating the same query attach
	// the same share; see ThresholdShare for the safety argument. A
	// per-query share passed to SearchIntoShared overrides this field,
	// which suits searchers that are built once and reused across
	// queries.
	Shared *ThresholdShare
	// Stats, when non-nil, replaces the segment's local collection
	// statistics (document count, document frequencies, average length)
	// with global ones — the distributed-IDF refinement that makes
	// partitioned scoring identical to single-index scoring. With global
	// stats the per-segment exact MaxScore bounds no longer apply, so
	// pruning falls back to the universal idf*(k1+1) bound.
	Stats *CollectionStats
}

// CollectionStats carries collection-wide statistics for scoring across
// partitions or cluster nodes.
type CollectionStats struct {
	NumDocs   int64
	AvgDocLen float64
	DocFreqs  map[string]int64
}

// DefaultOptions returns the benchmark's default search configuration.
func DefaultOptions() Options {
	return Options{TopK: 10, UseMaxScore: true}
}

// Searcher evaluates queries against one immutable segment. It is safe for
// concurrent use.
type Searcher struct {
	seg  *index.Segment
	opts Options
	// norms is each document's BM25 length norm under the statistics the
	// searcher scores with, for the pruned evaluator.
	norms []float64
}

// NewSearcher returns a Searcher over seg. Zero or negative TopK falls
// back to 10.
func NewSearcher(seg *index.Segment, opts Options) *Searcher {
	if opts.TopK <= 0 {
		opts.TopK = 10
	}
	if opts.Analyzer == nil {
		opts.Analyzer = textproc.NewAnalyzer()
	}
	s := &Searcher{seg: seg, opts: opts}
	s.norms = seg.LengthNorms(s.avgDocLen())
	return s
}

// Segment returns the underlying segment.
func (s *Searcher) Segment() *index.Segment { return s.seg }

// Options returns the searcher's configuration.
func (s *Searcher) Options() Options { return s.opts }

// ParseAndSearch analyzes raw text and evaluates it, timing the parse
// phase.
func (s *Searcher) ParseAndSearch(raw string, mode Mode) Result {
	start := time.Now()
	q := ParseQuery(s.opts.Analyzer, raw, mode)
	parse := time.Since(start)
	res := s.Search(q)
	res.Phases.Parse += parse
	return res
}

// termScorer couples a postings iterator with its scoring state. The
// iterator (about 600 bytes with its decoded block) lies in the query's
// pooled iterator array, built there in place, so ordering the scorers
// moves only this small header.
type termScorer struct {
	it  *index.PostingsIterator
	idf float64
	ub  float64 // upper bound on this term's contribution
	// prefixUB is the sum of the upper bounds of this scorer and every
	// scorer ordered before it — the MaxScore prefix bound, stored inline
	// so pruning needs no per-query side array.
	prefixUB float64
}

// queryState is a query's scorers and the iterators they point at.
// Pooled: together with the top-k heap pool it makes the steady-state
// query path allocation-free.
type queryState struct {
	scorers []termScorer
	its     []index.PostingsIterator
}

var statePool = sync.Pool{New: func() any { return new(queryState) }}

// Search evaluates an analyzed query and returns the ranked top-k.
func (s *Searcher) Search(q Query) Result {
	var res Result
	s.SearchInto(q, &res)
	return res
}

// SearchInto evaluates q into res, reusing res's backing storage
// (notably the Hits array) so steady-state callers can search without
// allocating. res is Reset first; any Hits slice previously taken from
// it is overwritten, so callers that reuse a Result must be done with
// the old hits before searching again.
func (s *Searcher) SearchInto(q Query, res *Result) {
	s.searchInto(q, res, s.opts.TopK, s.opts.Shared)
}

// SearchIntoShared is SearchInto with per-query overrides: k overrides
// Options.TopK when positive (the live path serves caller-chosen result
// counts from pooled per-segment searchers), and shared overrides
// Options.Shared when non-nil (the partition and live paths attach one
// pooled ThresholdShare per query across their searchers). Phrase
// queries always use Options.TopK; they are evaluated exhaustively, so
// threshold sharing does not apply to them.
func (s *Searcher) SearchIntoShared(q Query, res *Result, k int, shared *ThresholdShare) {
	if k <= 0 {
		k = s.opts.TopK
	}
	if shared == nil {
		shared = s.opts.Shared
	}
	s.searchInto(q, res, k, shared)
}

func (s *Searcher) searchInto(q Query, res *Result, k int, shared *ThresholdShare) {
	res.Reset()
	if len(q.Phrases) > 0 {
		s.searchPhrases(q, res)
		return
	}

	lookupStart := time.Now()
	// A blob-served segment reads its posting blocks through one fetch
	// state per query: iterators come from it, and once every term is
	// resolved it reads what they need first in one concurrent round.
	var lz *index.LazyQuery
	if s.seg.IsLazy() {
		lz = s.seg.NewLazyQuery()
	}
	qs := statePool.Get().(*queryState)
	if cap(qs.its) < len(q.Terms) {
		// Grown before any scorer points into it, never after.
		qs.its = make([]index.PostingsIterator, len(q.Terms))
	}
	scorers := qs.scorers[:0]
	release := func() {
		// Drop iterator references so pooled memory pins nothing.
		clear(qs.its[:len(scorers)])
		clear(scorers)
		qs.scorers = scorers[:0]
		statePool.Put(qs)
		if lz != nil {
			lz.Release()
		}
	}
	for _, term := range q.Terms {
		ti, ok := s.seg.Term(term)
		if !ok {
			if q.Mode == ModeAnd {
				// A missing term empties a conjunction.
				res.Phases.Lookup = time.Since(lookupStart)
				release()
				return
			}
			continue
		}
		idf := index.IDF(int64(s.seg.NumDocs()), int64(ti.DocFreq))
		ub := float64(ti.MaxScore)
		if s.opts.Stats != nil {
			idf = index.IDF(s.opts.Stats.NumDocs, s.opts.Stats.DocFreqs[term])
			ub = s.seg.BM25().MaxScore(idf)
		}
		it := &qs.its[len(scorers)]
		s.postingsInto(it, ti.ID, lz)
		scorers = append(scorers, termScorer{it: it, idf: idf, ub: ub})
	}
	pruned := s.opts.UseMaxScore
	if lz != nil {
		// searchOr consumes every list whole; the strategies that can skip
		// start from first blocks and read on as they get there.
		lz.Prefetch(q.Mode != ModeAnd && !pruned)
	}
	res.Phases.Lookup = time.Since(lookupStart)
	if len(scorers) == 0 {
		release()
		return
	}

	scoreStart := time.Now()
	heap := GetTopK(k)
	pc := pruneCtx{shared: shared}
	switch {
	case q.Mode == ModeAnd:
		s.searchAnd(scorers, heap, res, pc)
	case pruned:
		s.searchPruned(scorers, heap, res, pc)
	default:
		s.searchOr(scorers, heap, res, pc)
	}
	res.Phases.Score = time.Since(scoreStart)

	mergeStart := time.Now()
	res.Hits = heap.AppendSorted(res.Hits[:0])
	PutTopK(heap)
	res.Phases.Merge = time.Since(mergeStart)
	if lz != nil {
		res.Incomplete = lz.Incomplete()
	}
	release()
}

// useBlockMax reports whether Block-Max pruning is applicable: iterators
// must have their skip tables (the shallow cursor shares their block
// structure), and scoring must use the local statistics the bounds were
// computed under.
func (s *Searcher) useBlockMax() bool {
	return !s.opts.DisableBlockMax &&
		s.opts.Stats == nil &&
		!s.opts.DisableSkips
}

// postingsInto builds term id's iterator in *it, honoring the skip-list
// ablation switch. lz is the query's fetch state on a lazy segment, else
// nil.
func (s *Searcher) postingsInto(it *index.PostingsIterator, id int32, lz *index.LazyQuery) {
	if lz != nil {
		lz.PostingsInto(it, id, !s.opts.DisableSkips)
		return
	}
	s.seg.PostingsByIDInto(it, id, !s.opts.DisableSkips)
}

// avgDocLen returns the collection average document length used for
// scoring: global when distributed stats are configured, else the
// segment's own.
func (s *Searcher) avgDocLen() float64 {
	if s.opts.Stats != nil {
		return s.opts.Stats.AvgDocLen
	}
	return s.seg.AvgDocLen()
}

// alive reports whether doc survives the tombstone filter.
func (s *Searcher) alive(doc int32) bool {
	return s.opts.Deleted == nil || !s.opts.Deleted(doc)
}

// searchOr is the exhaustive disjunction, evaluated a window of doc IDs
// at a time like searchPruned with every list essential: each list's
// postings in the window are scored straight from its decoded blocks,
// the lists in query-term order, and the window's docs are then offered
// in ascending order. It never prunes, but it still publishes its heap
// floor through pc so pruning searchers over other partitions of the
// same query can tighten.
func (s *Searcher) searchOr(scorers []termScorer, heap *TopK, res *Result, pc pruneCtx) {
	bm := s.seg.BM25()
	w := windowPool.Get().(*window)
	defer windowPool.Put(w)
	for i := range scorers {
		if scorers[i].it.Next() {
			res.PostingsScanned++
		}
	}
	for {
		lo := exhaustedSentinel
		for i := range scorers {
			lo = min(lo, scorers[i].it.Doc())
		}
		if lo == exhaustedSentinel {
			return
		}
		hi := lo + windowLen
		for i := range scorers {
			w.accumulate(scorers[i].it, scorers[i].idf, lo, hi, false, bm, s.norms, res)
		}
		for wi := range w.hits {
			for set := w.hits[wi]; set != 0; set &= set - 1 {
				o := wi<<6 | bits.TrailingZeros64(set)
				doc := lo + int32(o)
				score := w.scores[o]
				w.scores[o] = 0
				if s.alive(doc) {
					res.Matches++
					pc.offer(heap, Hit{Doc: doc, Score: score})
				}
			}
			w.hits[wi] = 0
		}
	}
}

// searchAnd is a leapfrog conjunction: iterators sorted by selectivity,
// rarest first, skipping via SkipTo. Like searchOr it publishes but
// never prunes.
func (s *Searcher) searchAnd(scorers []termScorer, heap *TopK, res *Result, pc pruneCtx) {
	avg := s.avgDocLen()
	bm := s.seg.BM25()
	// Rarest term (highest IDF, hence shortest posting list) drives the
	// loop; the others are probed with SkipTo. Insertion-sorted for the
	// same allocation-free reason as sortAndPrime.
	for i := 1; i < len(scorers); i++ {
		for j := i; j > 0 && scorers[j].idf > scorers[j-1].idf; j-- {
			scorers[j], scorers[j-1] = scorers[j-1], scorers[j]
		}
	}
	lead := scorers[0].it
	for lead.Next() {
		res.PostingsScanned++
		doc := lead.Doc()
		match := true
		for i := 1; i < len(scorers); i++ {
			it := scorers[i].it
			before := it.Doc()
			if !it.SkipTo(doc) {
				return // some list exhausted: no more conjunctions
			}
			if it.Doc() != before {
				res.PostingsScanned++
			}
			if it.Doc() != doc {
				match = false
				// Fast-forward the lead to the blocker.
				if !lead.SkipTo(it.Doc()) {
					return
				}
				res.PostingsScanned++
				doc = lead.Doc()
				// Restart the inner check for the new candidate.
				i = 0
				match = true
			}
		}
		if match && s.alive(doc) {
			dl := s.seg.DocLen(doc)
			score := 0.0
			for i := range scorers {
				score += bm.Score(scorers[i].idf, scorers[i].it.Freq(), dl, avg)
			}
			res.Matches++
			pc.offer(heap, Hit{Doc: doc, Score: score})
		}
	}
}

// windowLen is the span of doc IDs the pruned evaluator scores at a time.
// Its essential/non-essential split moves only between windows, so a list
// that could turn non-essential mid-window is read to the window's end:
// on 4-term OR queries over a 10k-doc partition of the benchmark corpus
// that costs +3.5 % postings at 256 (against moving the split after every
// hit), +17 % at 1024 and +78 % at 4096, for no gain in time per query.
const windowLen = 256

// window accumulates the essential lists' scores over windowLen doc IDs:
// scores by offset from the window's first doc, and a bitset of the
// offsets some list matched. The evaluator hands it back zeroed.
type window struct {
	scores [windowLen]float64
	hits   [windowLen / 64]uint64
}

// windowPool keeps the accumulator on the allocation-free hot path.
var windowPool = sync.Pool{New: func() any { return new(window) }}

// accumulate adds the score of each posting of it below hi to the
// window starting at lo, reading them a decoded block at a time
// (PostingsIterator.Run) with one division per posting, and leaves it on
// its first doc at or above hi. With blockEnd set it stops instead at the
// end of the block it is in: it stays on the last doc scored, so a block
// the caller jumps next is never decoded.
func (w *window) accumulate(it *index.PostingsIterator, idf float64, lo, hi int32, blockEnd bool, bm index.BM25Params, norms []float64, res *Result) {
	for it.Doc() < hi {
		docs, freqs := it.Run(hi)
		for j, d := range docs {
			o := uint32(d-lo) & (windowLen - 1)
			w.scores[o] += bm.ScoreNorm(idf, freqs[j], norms[d])
			w.hits[o>>6] |= 1 << (o & 63)
		}
		res.PostingsScanned += int64(len(docs) - 1)
		if blockEnd && it.Doc() == it.BlockLast() {
			return
		}
		if it.Next() {
			res.PostingsScanned++
		}
	}
}

// searchPruned is MaxScore pruning (Turtle & Flood) evaluated a window of
// doc IDs at a time, the shape of Lucene's MaxScoreBulkScorer. Scorers are
// ordered by ascending upper bound; a prefix of "non-essential" lists
// whose combined bound cannot beat the threshold never generates
// candidates and is only probed. The threshold is the local heap floor
// raised to the cross-searcher shared floor (pc.theta), so on
// multi-partition queries lists become non-essential as soon as *any*
// partition's heap justifies it.
//
// A window starts at the lowest current doc of the essential lists. Each
// essential list's postings inside it are scored straight from the
// decoded block (PostingsIterator.Run) into the accumulator, one division
// per posting with the length norm read from the searcher's table. The
// window's docs are then visited in ascending order: tombstoned docs are
// dropped, and each survivor probes the non-essential lists from the
// largest bound down, abandoning the doc once its score plus the bound of
// the lists left cannot reach the threshold — refined, on segments with
// block maxima (Block-Max MaxScore), by the bound of the block that would
// hold the doc, read through the shallow cursor before the block is
// decoded. Every bound is an upper bound on the doc's final score, so the
// top-k is exhaustive evaluation's up to the order of floating-point adds.
func (s *Searcher) searchPruned(scorers []termScorer, heap *TopK, res *Result, pc pruneCtx) {
	bm := s.seg.BM25()
	norms := s.norms
	deleted := s.opts.Deleted
	blockMax := s.useBlockMax()
	sortAndPrime(scorers, res)
	w := windowPool.Get().(*window)
	defer windowPool.Put(w)
	// firstEssential is the index of the first list that can, together
	// with the lists before it, still beat the threshold.
	firstEssential := 0
	// scored is the end of the last window: every doc below it is done.
	scored := int32(0)
	for {
		// theta is re-read once per window and after every hit the heap
		// keeps; a shared floor raised meanwhile by another searcher only
		// makes it stale low, which prunes less but never wrongly.
		theta := pc.theta(heap)
		for firstEssential < len(scorers) && scorers[firstEssential].prefixUB <= theta {
			firstEssential++
		}
		nonEssential, essential := scorers[:firstEssential], scorers[firstEssential:]
		// With one essential list, a window is at most the rest of its
		// current block, and the list moves on between windows through
		// skipBlocks, which jumps the blocks that cannot beat theta.
		single := blockMax && len(essential) == 1
		if single && !skipBlocks(essential[0].it, scored, nonEssential, theta, res) {
			return
		}
		lo := exhaustedSentinel
		for i := range essential {
			lo = min(lo, essential[i].it.Doc())
		}
		if lo == exhaustedSentinel {
			return
		}
		hi := lo + windowLen
		if single {
			if last := essential[0].it.BlockLast(); last < hi-1 {
				hi = last + 1
			}
		}
		for i := range essential {
			w.accumulate(essential[i].it, essential[i].idf, lo, hi, single, bm, norms, res)
		}
		scored = hi
		for wi := range w.hits {
		candidates:
			for set := w.hits[wi]; set != 0; set &= set - 1 {
				o := wi<<6 | bits.TrailingZeros64(set)
				doc := lo + int32(o)
				score := w.scores[o]
				w.scores[o] = 0
				if deleted != nil && deleted(doc) {
					continue
				}
				// Probe the non-essential lists from the largest bound down,
				// abandoning the doc once it provably cannot reach theta.
				for i := len(nonEssential) - 1; i >= 0; i-- {
					if score+nonEssential[i].prefixUB <= theta {
						continue candidates
					}
					it := nonEssential[i].it
					if it.Doc() < doc {
						if blockMax {
							// Shallow-advance to the doc's block and test the
							// block-level bound before paying for the decode.
							// Docs arrive in ascending order, so the cursor only
							// moves forward.
							below := 0.0
							if i > 0 {
								below = nonEssential[i-1].prefixUB
							}
							if it.NextShallow(doc) && score+below+it.BlockMax() <= theta {
								continue candidates // even this block's best cannot rescue it
							}
						}
						if !it.SkipTo(doc) {
							continue
						}
						res.PostingsScanned++
					}
					if it.Doc() == doc {
						score += bm.ScoreNorm(nonEssential[i].idf, it.Freq(), norms[doc])
					}
				}
				res.Matches++
				if pc.offer(heap, Hit{Doc: doc, Score: score}) {
					theta = pc.theta(heap)
				}
			}
			w.hits[wi] = 0
		}
	}
}

// skipBlocks moves the one essential list of a pruned evaluation to its
// first doc at or above from that lies in a block which, with the bound
// of every non-essential list added, can beat theta. It walks the
// shallow cursor past the blocks that cannot, so only the block it lands
// in is decoded. It reports false when no block left can: every other
// list's bound is at or below theta, so the query is done.
func skipBlocks(it *index.PostingsIterator, from int32, nonEssential []termScorer, theta float64, res *Result) bool {
	bound := 0.0
	if n := len(nonEssential); n > 0 {
		bound = nonEssential[n-1].prefixUB
	}
	target := max(it.Doc(), from)
	for it.NextShallow(target) && bound+it.BlockMax() <= theta {
		if target = it.BlockLast(); target == exhaustedSentinel {
			return false
		}
		target++
	}
	if target > it.Doc() {
		if !it.SkipTo(target) {
			return false
		}
		res.PostingsScanned++
	}
	return true
}

// sortAndPrime orders scorers by ascending upper bound, fills in the
// prefix bounds and primes every iterator. Insertion sort: query term
// counts are tiny and sort.Slice's closure would put an allocation back
// on the hot path.
func sortAndPrime(scorers []termScorer, res *Result) {
	for i := 1; i < len(scorers); i++ {
		for j := i; j > 0 && scorers[j].ub < scorers[j-1].ub; j-- {
			scorers[j], scorers[j-1] = scorers[j-1], scorers[j]
		}
	}
	sum := 0.0
	for i := range scorers {
		sum += scorers[i].ub
		scorers[i].prefixUB = sum
	}
	for i := range scorers {
		if scorers[i].it.Next() {
			res.PostingsScanned++
		}
	}
}

// exhaustedSentinel mirrors the postings iterator's exhausted docID.
const exhaustedSentinel = int32(1<<31 - 1)
