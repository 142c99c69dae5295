package search

import (
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
	// queries. Pruning is automatically disabled when QualityBoost > 0,
	// because the static prior breaks the per-term score upper bounds
	// pruning relies on.
	UseMaxScore bool
	// QualityBoost adds boost*doc.Quality to every matching document's
	// score, mirroring the crawler-assigned static boosts of the
	// characterized benchmark. 0 disables it.
	QualityBoost float64
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
	return &Searcher{seg: seg, opts: opts}
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

// termScorer couples a postings iterator with its scoring state.
type termScorer struct {
	it  index.PostingsIterator
	idf float64
	ub  float64 // upper bound on this term's contribution
	// prefixUB is the sum of the upper bounds of this scorer and every
	// scorer ordered before it — the MaxScore prefix bound, stored inline
	// so pruning needs no per-query side array.
	prefixUB float64
}

// scorersPool recycles the per-query scorer slice; together with the
// top-k heap pool it makes the steady-state query path allocation-free.
var scorersPool = sync.Pool{New: func() any { return new([]termScorer) }}

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
	sp := scorersPool.Get().(*[]termScorer)
	scorers := (*sp)[:0]
	release := func() {
		clear(scorers) // drop iterator references so pooled memory pins nothing
		*sp = scorers[:0]
		scorersPool.Put(sp)
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
		idf := s.seg.IDF(term)
		ub := float64(ti.MaxScore)
		if s.opts.Stats != nil {
			idf = index.IDF(s.opts.Stats.NumDocs, s.opts.Stats.DocFreqs[term])
			ub = s.seg.BM25().MaxScore(idf)
		}
		scorers = append(scorers, termScorer{
			it:  s.postings(term, ti.ID, lz),
			idf: idf,
			ub:  ub,
		})
	}
	pruned := s.opts.UseMaxScore && s.opts.QualityBoost == 0 && len(scorers) > 1
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
	heap := getTopK(k)
	pc := pruneCtx{shared: shared}
	switch {
	case q.Mode == ModeAnd:
		s.searchAnd(scorers, heap, res, pc)
	case pruned:
		if s.useBlockMax() {
			s.searchBlockMax(scorers, heap, res, pc)
		} else {
			s.searchMaxScore(scorers, heap, res, pc)
		}
	default:
		s.searchOr(scorers, heap, res, pc)
	}
	res.Phases.Score = time.Since(scoreStart)

	mergeStart := time.Now()
	res.Hits = heap.appendSorted(res.Hits[:0])
	putTopK(heap)
	res.Phases.Merge = time.Since(mergeStart)
	if lz != nil {
		res.Incomplete = lz.Incomplete()
	}
	release()
}

// useBlockMax reports whether Block-Max pruning is applicable: the
// segment must carry block metadata (packed or varint compression),
// iterators must have their skip tables (the shallow cursor
// shares their block structure), and scoring must use the local
// statistics the bounds were computed under.
func (s *Searcher) useBlockMax() bool {
	return !s.opts.DisableBlockMax &&
		s.opts.Stats == nil &&
		!s.opts.DisableSkips &&
		s.seg.HasBlockMax()
}

// postings returns the term's iterator, honoring the skip-list ablation
// switch. lz is the query's fetch state on a lazy segment, else nil.
func (s *Searcher) postings(term string, id int32, lz *index.LazyQuery) index.PostingsIterator {
	if lz != nil {
		return lz.Postings(id, !s.opts.DisableSkips)
	}
	if s.opts.DisableSkips {
		it, _ := s.seg.PostingsWithoutSkips(term)
		return it
	}
	return s.seg.PostingsByID(id)
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

// docScore computes the final score for a doc given its summed term score.
func (s *Searcher) docScore(doc int32, termScore float64) float64 {
	if s.opts.QualityBoost != 0 {
		termScore += s.opts.QualityBoost * float64(s.seg.Doc(doc).Quality)
	}
	return termScore
}

// searchOr is the exhaustive document-at-a-time disjunction. It never
// prunes, but it still publishes its heap floor through pc so pruning
// searchers over other partitions of the same query can tighten.
func (s *Searcher) searchOr(scorers []termScorer, heap *topK, res *Result, pc pruneCtx) {
	avg := s.avgDocLen()
	bm := s.seg.BM25()
	// Prime all iterators.
	live := 0
	for i := range scorers {
		if scorers[i].it.Next() {
			res.PostingsScanned++
			live++
		}
	}
	for live > 0 {
		// Find the smallest current docID.
		min := scorers[0].it.Doc()
		for i := 1; i < len(scorers); i++ {
			if d := scorers[i].it.Doc(); d < min {
				min = d
			}
		}
		dl := s.seg.DocLen(min)
		score := 0.0
		for i := range scorers {
			it := &scorers[i].it
			if it.Doc() != min {
				continue
			}
			score += bm.Score(scorers[i].idf, it.Freq(), dl, avg)
			if it.Next() {
				res.PostingsScanned++
			} else {
				live--
			}
		}
		if s.alive(min) {
			res.Matches++
			pc.offer(heap, Hit{Doc: min, Score: s.docScore(min, score)})
		}
	}
}

// searchAnd is a leapfrog conjunction: iterators sorted by selectivity,
// rarest first, skipping via SkipTo. Like searchOr it publishes but
// never prunes.
func (s *Searcher) searchAnd(scorers []termScorer, heap *topK, res *Result, pc pruneCtx) {
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
	lead := &scorers[0].it
	for lead.Next() {
		res.PostingsScanned++
		doc := lead.Doc()
		match := true
		for i := 1; i < len(scorers); i++ {
			it := &scorers[i].it
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
			pc.offer(heap, Hit{Doc: doc, Score: s.docScore(doc, score)})
		}
	}
}

// searchMaxScore is the MaxScore pruning strategy of Turtle & Flood:
// scorers are ordered by ascending upper bound; a growing prefix of
// "non-essential" lists whose combined bound cannot beat the current
// top-k threshold is only probed, never used to generate candidates.
// The threshold is the local heap floor raised to the cross-searcher
// shared floor (pc.theta), so on multi-partition queries lists become
// non-essential as soon as *any* partition's heap justifies it.
func (s *Searcher) searchMaxScore(scorers []termScorer, heap *topK, res *Result, pc pruneCtx) {
	avg := s.avgDocLen()
	bm := s.seg.BM25()
	sortAndPrime(scorers, res)
	// firstEssential is the index of the first list that can, together
	// with the lists before it, still beat the threshold.
	firstEssential := 0
	updateEssential := func() {
		theta := pc.theta(heap)
		for firstEssential < len(scorers) && scorers[firstEssential].prefixUB <= theta {
			firstEssential++
		}
	}
	updateEssential()

	for firstEssential < len(scorers) {
		// Candidate: min doc among essential lists.
		min := exhaustedSentinel
		for i := firstEssential; i < len(scorers); i++ {
			if d := scorers[i].it.Doc(); d < min && !scorers[i].it.Exhausted() {
				min = d
			}
		}
		if min == exhaustedSentinel {
			return
		}
		dl := s.seg.DocLen(min)
		score := 0.0
		for i := firstEssential; i < len(scorers); i++ {
			it := &scorers[i].it
			if it.Doc() != min || it.Exhausted() {
				continue
			}
			score += bm.Score(scorers[i].idf, it.Freq(), dl, avg)
			if it.Next() {
				res.PostingsScanned++
			}
		}
		// A tombstoned candidate is abandoned before the probe phase: the
		// essential iterators already moved past it.
		if !s.alive(min) {
			continue
		}
		// Probe non-essential lists from the largest bound down, bailing
		// out as soon as the remaining bounds cannot reach the threshold.
		theta := pc.theta(heap)
		for i := firstEssential - 1; i >= 0; i-- {
			if score+scorers[i].prefixUB <= theta {
				score = -1 // provably not a top-k hit
				break
			}
			it := &scorers[i].it
			if it.Exhausted() {
				continue
			}
			if it.Doc() < min {
				if !it.SkipTo(min) {
					continue
				}
				res.PostingsScanned++
			}
			if it.Doc() == min {
				score += bm.Score(scorers[i].idf, it.Freq(), dl, avg)
			}
		}
		if score >= 0 {
			res.Matches++
			if pc.offer(heap, Hit{Doc: min, Score: score}) {
				updateEssential()
			}
		}
	}
}

// sortAndPrime orders scorers by ascending upper bound, fills in the
// prefix bounds and primes every iterator — the shared setup of the
// MaxScore-family strategies. Insertion sort: query term counts are
// tiny and sort.Slice's closure would put an allocation back on the
// hot path.
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

// searchBlockMax refines MaxScore with per-block score bounds
// (Block-Max MaxScore): before a non-essential list is decoded to probe
// the current candidate, a shallow cursor positions on the block that
// would contain it; if the candidate's accumulated score plus that
// block's bound plus the prefix bound of the cheaper lists cannot reach
// the threshold, the candidate is abandoned without decoding the block.
// The bound is an upper bound on the candidate's final score, so the
// top-k is identical to the exhaustive strategies — only decode work is
// saved.
func (s *Searcher) searchBlockMax(scorers []termScorer, heap *topK, res *Result, pc pruneCtx) {
	avg := s.avgDocLen()
	bm := s.seg.BM25()
	sortAndPrime(scorers, res)
	firstEssential := 0
	updateEssential := func() {
		theta := pc.theta(heap)
		for firstEssential < len(scorers) && scorers[firstEssential].prefixUB <= theta {
			firstEssential++
		}
	}
	updateEssential()

	for firstEssential < len(scorers) {
		min := exhaustedSentinel
		for i := firstEssential; i < len(scorers); i++ {
			if d := scorers[i].it.Doc(); d < min && !scorers[i].it.Exhausted() {
				min = d
			}
		}
		if min == exhaustedSentinel {
			return
		}
		dl := s.seg.DocLen(min)
		score := 0.0
		for i := firstEssential; i < len(scorers); i++ {
			it := &scorers[i].it
			if it.Doc() != min || it.Exhausted() {
				continue
			}
			score += bm.Score(scorers[i].idf, it.Freq(), dl, avg)
			if it.Next() {
				res.PostingsScanned++
			}
		}
		if !s.alive(min) {
			continue
		}
		theta := pc.theta(heap)
		for i := firstEssential - 1; i >= 0; i-- {
			if score+scorers[i].prefixUB <= theta {
				score = -1 // provably not a top-k hit
				break
			}
			it := &scorers[i].it
			if it.Exhausted() {
				continue
			}
			if it.Doc() < min {
				// Shallow-advance to the candidate's block and test the
				// block-level bound before paying for the decode. Candidates
				// are non-decreasing, so the cursor only moves forward.
				below := 0.0
				if i > 0 {
					below = scorers[i-1].prefixUB
				}
				if it.NextShallow(min) && score+below+it.BlockMax() <= theta {
					score = -1 // even this block's best cannot rescue it
					break
				}
				if !it.SkipTo(min) {
					continue
				}
				res.PostingsScanned++
			}
			if it.Doc() == min {
				score += bm.Score(scorers[i].idf, it.Freq(), dl, avg)
			}
		}
		if score >= 0 {
			res.Matches++
			if pc.offer(heap, Hit{Doc: min, Score: score}) {
				updateEssential()
			}
		}
	}
}

// exhaustedSentinel mirrors the postings iterator's exhausted docID.
const exhaustedSentinel = int32(1<<31 - 1)
