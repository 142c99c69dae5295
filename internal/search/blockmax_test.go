package search

import (
	"math"
	"math/rand"
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

// TestBlockMaxEquivalenceQuick is the central safe-pruning property of
// the Block-Max evaluator, checked with testing/quick over random
// queries: for both boolean modes, with local or global statistics, and
// over both a block-max segment and a raw segment without metadata,
// pruned evaluation returns exactly the same top-k as exhaustive
// evaluation.
func TestBlockMaxEquivalenceQuick(t *testing.T) {
	seg, vocab := blockMaxCorpus(t, 900)
	if !seg.HasBlockMax() {
		t.Fatal("corpus segment has no block-max metadata")
	}
	// A raw segment carries no metadata: the same property must hold
	// through the MaxScore fallback path, which also puts a second
	// encoding under the property.
	raw, _ := blockMaxCorpus(t, 900, index.WithCompression(index.CompressionRaw))
	if raw.HasBlockMax() {
		t.Fatal("raw segment has block-max metadata")
	}
	segments := []*index.Segment{seg, raw}
	stats := globalStatsFor(seg)

	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := segments[rng.Intn(len(segments))]
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
		k := 1 + rng.Intn(15)
		ex := NewSearcher(s, Options{TopK: k, UseMaxScore: false, Stats: st})
		bm := NewSearcher(s, Options{TopK: k, UseMaxScore: true, Stats: st})
		q := ParseQuery(ex.Options().Analyzer, strings.Join(terms, " "), mode)
		return hitsEquivalent(ex.Search(q).Hits, bm.Search(q).Hits)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestBlockMaxDecodesFewer is the ablation's headline claim as an
// invariant: on disjunctive queries over lists long enough to carry
// block metadata, Block-Max decodes strictly fewer postings than plain
// MaxScore while returning the identical top-k.
func TestBlockMaxDecodesFewer(t *testing.T) {
	seg, vocab := blockMaxCorpus(t, 3000)
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
		msPost += a.PostingsScanned
		bmPost += b.PostingsScanned
	}
	if bmPost >= msPost {
		t.Fatalf("Block-Max decoded %d postings, MaxScore %d: want strictly fewer", bmPost, msPost)
	}
	t.Logf("postings decoded: maxscore=%d blockmax=%d (saved %.1f%%)",
		msPost, bmPost, 100*(1-float64(bmPost)/float64(msPost)))
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
	if seg.Compression() != index.CompressionPacked || !seg.HasBlockMax() {
		t.Fatal("corpus segment is not packed with block maxima")
	}
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
