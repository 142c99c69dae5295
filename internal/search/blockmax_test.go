package search

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"websearchbench/internal/corpus"
	"websearchbench/internal/index"
	"websearchbench/internal/textproc"
)

// blockMaxCorpus builds one reusable segment + vocabulary pair sized so
// frequent terms carry skip tables and block metadata.
func blockMaxCorpus(t testing.TB, numDocs int, opts ...index.BuilderOption) (*index.Segment, *corpus.Vocabulary) {
	t.Helper()
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = numDocs
	cfg.VocabSize = 2000
	cfg.MeanBodyTerms = 60
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := index.NewBuilder(opts...)
	gen.GenerateFunc(func(d corpus.Document) { b.AddCorpusDoc(d) })
	return b.Finalize(), gen.Vocabulary()
}

// globalStatsFor derives collection statistics from the segment itself,
// exercising the global-stats fallback with values that keep scores
// identical to local-stats evaluation on a single segment.
func globalStatsFor(seg *index.Segment) *CollectionStats {
	st := &CollectionStats{
		NumDocs:   int64(seg.NumDocs()),
		AvgDocLen: seg.AvgDocLen(),
		DocFreqs:  make(map[string]int64, len(seg.Terms())),
	}
	for _, term := range seg.Terms() {
		ti, _ := seg.Term(term)
		st.DocFreqs[term] = int64(ti.DocFreq)
	}
	return st
}

// hitsEquivalent is the comparison for two evaluations that must agree
// exactly: the same documents in the same order, scores within 1e-9.
func hitsEquivalent(a, b []Hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Doc != b[i].Doc || math.Abs(a[i].Score-b[i].Score) > 1e-9 {
			return false
		}
	}
	return true
}

// sameUpToTies compares got, the top-k of a pruned evaluation of q, with
// the exhaustive searcher ex's. A pruned evaluator sums a doc's term
// scores in another order, which can move a score by one ULP and swap two
// tied docs, so scores are compared rank by rank within 1e-9, a run of
// hits tied within 1e-9 as a set, and a run that k cuts short must draw
// its docs from the reference's whole tie run — which is why the
// reference is fetched with k above the document count.
func sameUpToTies(got []Hit, ex *Searcher, q Query, k int) error {
	var wide Result
	ex.SearchIntoShared(q, &wide, ex.Segment().NumDocs()+1, nil)
	want := wide.Hits
	if n := min(k, len(want)); len(got) != n {
		return fmt.Errorf("%d hits, want %d", len(got), n)
	}
	for i := 0; i < len(got); {
		end := i + 1 // want[i:end] is the reference's tie run
		for end < len(want) && math.Abs(want[end].Score-want[i].Score) <= 1e-9 {
			end++
		}
		run, start := want[i:end], i
		for ; i < min(end, len(got)); i++ {
			if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
				return fmt.Errorf("rank %d: %+v, want score %v", i, got[i], want[i].Score)
			}
			inRun := slices.ContainsFunc(run, func(h Hit) bool { return h.Doc == got[i].Doc })
			again := slices.ContainsFunc(got[start:i], func(h Hit) bool { return h.Doc == got[i].Doc })
			if !inRun || again {
				return fmt.Errorf("rank %d: doc %d is not one of the tie run %v", i, got[i].Doc, run)
			}
		}
	}
	return nil
}

// TestBlockMaxEquivalenceQuick is the central safe-pruning property of
// the pruned evaluator, checked with testing/quick over random queries:
// for both boolean modes, local or global statistics, k from 1 to 50, with
// or without a random tombstone filter, on a plain and a positional
// segment with Block-Max and on the plain one with plain MaxScore,
// pruned evaluation returns exhaustive evaluation's top-k: exactly for
// AND, which never prunes, and up to the order of tied scores for OR.
// The first two pinned seeds once swapped two tied docs under an exact
// comparison, on the narrower inputs this property drew before; the
// third draws one frequent term over tombstones, the single essential
// list whose blocks the evaluator skips.
func TestBlockMaxEquivalenceQuick(t *testing.T) {
	const numDocs = 2500
	seg, vocab := blockMaxCorpus(t, numDocs)
	positional, _ := blockMaxCorpus(t, numDocs, index.WithPositions())
	segments := []struct {
		seg        *index.Segment
		noBlockMax bool
	}{{seg, false}, {positional, false}, {seg, true}}
	stats := globalStatsFor(seg)

	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := segments[rng.Intn(len(segments))]
		s := c.seg
		nTerms := 1 + rng.Intn(4)
		terms := make([]string, nTerms)
		for i := range terms {
			// Mix frequent (low rank, long lists) and rare terms.
			if rng.Intn(2) == 0 {
				terms[i] = vocab.Word(rng.Intn(50))
			} else {
				terms[i] = vocab.Word(rng.Intn(vocab.Size()))
			}
		}
		mode := ModeOr
		if rng.Intn(2) == 0 {
			mode = ModeAnd
		}
		var st *CollectionStats
		if rng.Intn(2) == 0 {
			st = stats
		}
		var deleted func(int32) bool
		if rng.Intn(2) == 0 {
			dead := make([]bool, numDocs)
			share := rng.Float64() / 2
			for d := range dead {
				dead[d] = rng.Float64() < share
			}
			deleted = func(d int32) bool { return dead[d] }
		}
		k := 1 + rng.Intn(50)
		ex := NewSearcher(s, Options{TopK: k, UseMaxScore: false, Stats: st, Deleted: deleted})
		bm := NewSearcher(s, Options{TopK: k, UseMaxScore: true, DisableBlockMax: c.noBlockMax, Stats: st, Deleted: deleted})
		q := ParseQuery(ex.Options().Analyzer, strings.Join(terms, " "), mode)
		got := bm.Search(q).Hits
		if mode == ModeAnd {
			return hitsEquivalent(ex.Search(q).Hits, got)
		}
		if err := sameUpToTies(got, ex, q, k); err != nil {
			t.Logf("seed %d, query %v, k=%d: %v", seed, terms, k, err)
			return false
		}
		return true
	}
	for _, seed := range []int64{327927100304251875, 2183916446256731237, 35} {
		t.Run(fmt.Sprint("pinned-", seed), func(t *testing.T) {
			if !property(seed) {
				t.Fatal("pruned top-k differs from exhaustive")
			}
		})
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestBlockMaxDecodesFewer is the ablation's headline claim as an
// invariant: on disjunctive queries over lists long enough to carry
// block metadata, Block-Max decodes strictly fewer postings than plain
// MaxScore while returning the identical top-k — exhaustive evaluation's,
// up to the order of tied scores.
func TestBlockMaxDecodesFewer(t *testing.T) {
	seg, vocab := blockMaxCorpus(t, 3000)
	ex := NewSearcher(seg, Options{TopK: 10})
	ms := NewSearcher(seg, Options{TopK: 10, UseMaxScore: true, DisableBlockMax: true})
	bm := NewSearcher(seg, Options{TopK: 10, UseMaxScore: true})
	rng := rand.New(rand.NewSource(7))
	var msPost, bmPost int64
	for trial := 0; trial < 150; trial++ {
		nTerms := 2 + rng.Intn(3)
		terms := make([]string, nTerms)
		for i := range terms {
			terms[i] = vocab.Word(rng.Intn(200))
		}
		q := ParseQuery(ms.Options().Analyzer, strings.Join(terms, " "), ModeOr)
		a := ms.Search(q)
		b := bm.Search(q)
		if !hitsEquivalent(a.Hits, b.Hits) {
			t.Fatalf("query %v: top-k differs between MaxScore and Block-Max", terms)
		}
		if err := sameUpToTies(b.Hits, ex, q, 10); err != nil {
			t.Fatalf("query %v: Block-Max top-k differs from exhaustive: %v", terms, err)
		}
		msPost += a.PostingsScanned
		bmPost += b.PostingsScanned
	}
	if bmPost >= msPost {
		t.Fatalf("Block-Max decoded %d postings, MaxScore %d: want strictly fewer", bmPost, msPost)
	}
	t.Logf("postings decoded: maxscore=%d blockmax=%d (saved %.1f%%)",
		msPost, bmPost, 100*(1-float64(bmPost)/float64(msPost)))

	// A single head term is one essential list from the first window on:
	// Block-Max skips its blocks that cannot enter the top-k.
	var exPost, onePost int64
	for rank := 0; rank < 30; rank++ {
		q := ParseQuery(bm.Options().Analyzer, vocab.Word(rank), ModeOr)
		b := bm.Search(q)
		if err := sameUpToTies(b.Hits, ex, q, 10); err != nil {
			t.Fatalf("term %q: Block-Max top-k differs from exhaustive: %v", vocab.Word(rank), err)
		}
		exPost += ex.Search(q).PostingsScanned
		onePost += b.PostingsScanned
	}
	if onePost >= exPost {
		t.Fatalf("single terms: Block-Max decoded %d postings, exhaustive %d: want strictly fewer", onePost, exPost)
	}
	t.Logf("single-term postings decoded: exhaustive=%d blockmax=%d (saved %.1f%%)",
		exPost, onePost, 100*(1-float64(onePost)/float64(exPost)))
}

// raceEnabled is set by race_test.go in -race builds, where sync.Pool
// drops a quarter of the items put back, so pooled paths allocate.
var raceEnabled bool

// TestSearchIntoAllocationFree: once the pools are warm and the Result's
// Hits array is large enough, evaluating a query on a resident packed
// segment allocates nothing, whichever strategy runs it and however many
// hits it returns.
func TestSearchIntoAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	seg, vocab := blockMaxCorpus(t, 2000)
	a := textproc.NewAnalyzer()
	and := ParseQuery(a, vocab.Word(5)+" "+vocab.Word(30), ModeAnd)
	or := ParseQuery(a, vocab.Word(0)+" "+vocab.Word(3)+" "+vocab.Word(40), ModeOr)
	for _, c := range []struct {
		name string
		opts Options
		q    Query
		hits int
	}{
		{"and", Options{TopK: 10}, and, 10},
		{"and-one-hit", Options{TopK: 1}, and, 1},
		{"blockmax-or", Options{TopK: 10, UseMaxScore: true}, or, 10},
		{"maxscore-or", Options{TopK: 10, UseMaxScore: true, DisableBlockMax: true}, or, 10},
		{"exhaustive-or", Options{TopK: 10}, or, 10},
	} {
		s := NewSearcher(seg, c.opts)
		var res Result
		s.SearchInto(c.q, &res)
		if len(res.Hits) != c.hits {
			t.Fatalf("%s: %d hits, want %d", c.name, len(res.Hits), c.hits)
		}
		if n := testing.AllocsPerRun(50, func() { s.SearchInto(c.q, &res) }); n != 0 {
			t.Errorf("%s: %v allocs per steady-state SearchInto, want 0", c.name, n)
		}
	}
}

// memBlocks is an index.BlockReader over an in-memory postings section
// that keeps every block it reads resident.
type memBlocks struct {
	post  []byte
	cache map[[2]int32][]byte
}

func (m *memBlocks) Cached(term int32, block int) []byte {
	return m.cache[[2]int32{term, int32(block)}]
}

func (m *memBlocks) Needed(hits, misses int) {}

func (m *memBlocks) ReadRuns(runs []index.BlockRun) {
	for i := range runs {
		off := runs[i].Off
		for j, sz := range runs[i].Sizes {
			runs[i].Blocks[j] = m.post[off : off+int64(sz)]
			m.cache[[2]int32{runs[i].Term, int32(runs[i].First + j)}] = runs[i].Blocks[j]
			off += int64(sz)
		}
	}
}

// TestLazySearchIntoAllocations: once every block a query needs is
// resident, evaluating it on a lazy segment allocates at most twice —
// its fetch state is recycled, not rebuilt per query — whichever
// strategy runs it.
func TestLazySearchIntoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	seg, vocab := blockMaxCorpus(t, 2000)
	var buf bytes.Buffer
	if _, err := seg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	layout, err := index.ParseSegmentFooter(data[len(data)-index.SegmentFooterLen:])
	if err != nil {
		t.Fatal(err)
	}
	rd := &memBlocks{post: data[layout.PostOff : layout.FileSize-index.SegmentFooterLen], cache: map[[2]int32][]byte{}}
	lazy, err := index.OpenLazySegment(data[:layout.PostOff], layout, rd)
	if err != nil {
		t.Fatal(err)
	}
	a := textproc.NewAnalyzer()
	and := ParseQuery(a, vocab.Word(5)+" "+vocab.Word(30)+" "+vocab.Word(60), ModeAnd)
	or := ParseQuery(a, vocab.Word(0)+" "+vocab.Word(3)+" "+vocab.Word(40)+" "+vocab.Word(90), ModeOr)
	for _, c := range []struct {
		name string
		opts Options
		q    Query
	}{
		{"and", Options{TopK: 10}, and},
		{"pruned-or", Options{TopK: 10, UseMaxScore: true}, or},
		{"exhaustive-or", Options{TopK: 10}, or},
	} {
		s := NewSearcher(lazy, c.opts)
		var res Result
		s.SearchInto(c.q, &res)
		if len(res.Hits) == 0 || res.Incomplete {
			t.Fatalf("%s: %d hits, incomplete %v", c.name, len(res.Hits), res.Incomplete)
		}
		if n := testing.AllocsPerRun(50, func() { s.SearchInto(c.q, &res) }); n > 2 {
			t.Errorf("%s: %v allocs per warm lazy SearchInto, want <= 2", c.name, n)
		}
	}
}

// TestSearchIntoReuse checks the reuse-safe Result contract: repeated
// SearchInto calls into one Result give the same answers as fresh
// Search calls, and Reset preserves nothing observable.
func TestSearchIntoReuse(t *testing.T) {
	seg, vocab := blockMaxCorpus(t, 400)
	s := NewSearcher(seg, DefaultOptions())
	rng := rand.New(rand.NewSource(3))
	var reused Result
	for trial := 0; trial < 50; trial++ {
		terms := []string{vocab.Word(rng.Intn(100)), vocab.Word(rng.Intn(vocab.Size()))}
		q := ParseQuery(s.Options().Analyzer, strings.Join(terms, " "), ModeOr)
		fresh := s.Search(q)
		s.SearchInto(q, &reused)
		if !hitsEquivalent(fresh.Hits, reused.Hits) {
			t.Fatalf("query %v: reused Result differs from fresh Search", terms)
		}
		if fresh.Matches != reused.Matches || fresh.PostingsScanned != reused.PostingsScanned {
			t.Fatalf("query %v: counters differ: %+v vs %+v", terms, fresh, reused)
		}
	}
}
