package search

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"websearchbench/internal/corpus"
	"websearchbench/internal/index"
	"websearchbench/internal/textproc"
)

var plainAnalyzer = &textproc.Analyzer{DisableStemming: true}

// buildSeg builds a small fixed segment with predictable terms.
func buildSeg(t testing.TB) *index.Segment {
	t.Helper()
	b := index.NewBuilder(index.WithAnalyzer(plainAnalyzer))
	docs := []struct {
		title, body string
		quality     float64
	}{
		{"web search", "web search engines index billions pages", 0.9},
		{"database systems", "database query processing joins indexes", 0.2},
		{"web crawling", "crawling web pages discovering links web web", 0.5},
		{"latency study", "tail latency web services queueing", 0.8},
		{"compilers", "register allocation instruction scheduling", 0.1},
	}
	for _, d := range docs {
		b.AddDocument(d.title, d.body, "http://x/"+d.title, d.quality)
	}
	return b.Finalize()
}

func newTestSearcher(t testing.TB, opts Options) *Searcher {
	t.Helper()
	opts.Analyzer = plainAnalyzer
	return NewSearcher(buildSeg(t), opts)
}

func docsOf(hits []Hit) []int32 {
	out := make([]int32, len(hits))
	for i, h := range hits {
		out[i] = h.Doc
	}
	return out
}

func TestSearchOrBasic(t *testing.T) {
	s := newTestSearcher(t, Options{TopK: 10, UseMaxScore: false})
	res := s.ParseAndSearch("web", ModeOr)
	// Docs 0, 2, 3 contain "web"; doc 2 has it 4 times (title+3 body).
	if res.Matches != 3 {
		t.Fatalf("Matches = %d, want 3; hits %v", res.Matches, res.Hits)
	}
	if len(res.Hits) != 3 {
		t.Fatalf("Hits = %v", res.Hits)
	}
	if res.Hits[0].Doc != 2 {
		t.Errorf("top hit = %d, want 2 (highest tf)", res.Hits[0].Doc)
	}
	for i := 1; i < len(res.Hits); i++ {
		if res.Hits[i].Score > res.Hits[i-1].Score {
			t.Error("hits not sorted by descending score")
		}
	}
}

func TestSearchOrMultiTerm(t *testing.T) {
	s := newTestSearcher(t, Options{TopK: 10, UseMaxScore: false})
	res := s.ParseAndSearch("web latency", ModeOr)
	// web: 0,2,3; latency: 3 (twice: title+body). Union: 0,2,3.
	if res.Matches != 3 {
		t.Fatalf("Matches = %d, want 3", res.Matches)
	}
	// Doc 3 matches both terms and latency is rare: should rank first.
	if res.Hits[0].Doc != 3 {
		t.Errorf("top hit = %d, want 3", res.Hits[0].Doc)
	}
}

func TestSearchAnd(t *testing.T) {
	s := newTestSearcher(t, Options{TopK: 10})
	res := s.ParseAndSearch("web pages", ModeAnd)
	// "pages" appears in docs 0 and 2; both also contain "web".
	got := docsOf(res.Hits)
	if len(got) != 2 {
		t.Fatalf("AND hits = %v, want docs {0,2}", res.Hits)
	}
	seen := map[int32]bool{got[0]: true, got[1]: true}
	if !seen[0] || !seen[2] {
		t.Errorf("AND hits = %v, want docs {0,2}", got)
	}
}

func TestSearchAndMissingTermEmpty(t *testing.T) {
	s := newTestSearcher(t, Options{TopK: 10})
	res := s.ParseAndSearch("web nonexistentterm", ModeAnd)
	if len(res.Hits) != 0 || res.Matches != 0 {
		t.Errorf("AND with missing term: %v", res.Hits)
	}
}

func TestSearchAndNoCommonDoc(t *testing.T) {
	s := newTestSearcher(t, Options{TopK: 10})
	res := s.ParseAndSearch("database crawling", ModeAnd)
	if len(res.Hits) != 0 {
		t.Errorf("AND of disjoint terms: %v", res.Hits)
	}
}

func TestSearchEmptyQuery(t *testing.T) {
	s := newTestSearcher(t, Options{TopK: 10})
	for _, mode := range []Mode{ModeOr, ModeAnd} {
		res := s.ParseAndSearch("", mode)
		if len(res.Hits) != 0 {
			t.Errorf("%v empty query: %v", mode, res.Hits)
		}
		res = s.ParseAndSearch("zzzabsent", mode)
		if len(res.Hits) != 0 {
			t.Errorf("%v absent term: %v", mode, res.Hits)
		}
	}
}

func TestTopKLimit(t *testing.T) {
	s := newTestSearcher(t, Options{TopK: 2, UseMaxScore: false})
	res := s.ParseAndSearch("web", ModeOr)
	if len(res.Hits) != 2 {
		t.Errorf("TopK=2 returned %d hits", len(res.Hits))
	}
	if res.Matches != 3 {
		t.Errorf("Matches = %d, want 3 (exhaustive counts all)", res.Matches)
	}
}

func TestPhaseTimingsPopulated(t *testing.T) {
	s := newTestSearcher(t, Options{TopK: 10})
	res := s.ParseAndSearch("web search engines", ModeOr)
	if res.Phases.Total() <= 0 {
		t.Error("phase timings not recorded")
	}
	var p PhaseTimings
	p.Add(res.Phases)
	p.Add(res.Phases)
	if p.Total() != 2*res.Phases.Total() {
		t.Error("PhaseTimings.Add arithmetic wrong")
	}
}

func TestPostingsScannedCounted(t *testing.T) {
	s := newTestSearcher(t, Options{TopK: 10, UseMaxScore: false})
	res := s.ParseAndSearch("web", ModeOr)
	if res.PostingsScanned != 3 {
		t.Errorf("PostingsScanned = %d, want 3", res.PostingsScanned)
	}
}

func TestModeString(t *testing.T) {
	if ModeOr.String() != "OR" || ModeAnd.String() != "AND" {
		t.Error("Mode.String mismatch")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown Mode.String mismatch")
	}
}

// corpusSearchers builds exhaustive and MaxScore searchers over the same
// generated segment.
func corpusSearchers(t testing.TB, numDocs int) (*Searcher, *Searcher, *corpus.Vocabulary) {
	t.Helper()
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = numDocs
	cfg.VocabSize = 2000
	cfg.MeanBodyTerms = 60
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := index.NewBuilder()
	gen.GenerateFunc(func(d corpus.Document) { b.AddCorpusDoc(d) })
	seg := b.Finalize()
	ex := NewSearcher(seg, Options{TopK: 10, UseMaxScore: false})
	ms := NewSearcher(seg, Options{TopK: 10, UseMaxScore: true})
	return ex, ms, gen.Vocabulary()
}

// TestMaxScoreEquivalence is the central correctness property of the
// pruned evaluator: for any query, MaxScore returns the same top-k (docs,
// scores, order) as exhaustive evaluation, up to the order of tied scores.
func TestMaxScoreEquivalence(t *testing.T) {
	ex, ms, vocab := corpusSearchers(t, 800)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		nTerms := 1 + rng.Intn(4)
		terms := make([]string, nTerms)
		for i := range terms {
			// Mix frequent (low rank) and rare terms.
			if rng.Intn(2) == 0 {
				terms[i] = vocab.Word(rng.Intn(50))
			} else {
				terms[i] = vocab.Word(rng.Intn(vocab.Size()))
			}
		}
		raw := strings.Join(terms, " ")
		q := ParseQuery(ex.Options().Analyzer, raw, ModeOr)
		if err := sameUpToTies(ms.Search(q).Hits, ex, q, 10); err != nil {
			t.Fatalf("query %q: %v", raw, err)
		}
	}
}

// orReference is exhaustive OR evaluated document at a time: every list
// is advanced one posting at a time from the lowest current doc, and
// each doc is scored with BM25Params.Score, the lists in query-term
// order.
func orReference(s *Searcher, q Query, k int, deleted func(int32) bool) Result {
	seg := s.Segment()
	bm := seg.BM25()
	var its []index.PostingsIterator
	var idfs []float64
	for _, term := range q.Terms {
		if ti, ok := seg.Term(term); ok {
			its = append(its, seg.PostingsByID(ti.ID))
			idfs = append(idfs, index.IDF(int64(seg.NumDocs()), int64(ti.DocFreq)))
		}
	}
	var res Result
	heap := GetTopK(k)
	defer PutTopK(heap)
	for i := range its {
		if its[i].Next() {
			res.PostingsScanned++
		}
	}
	for {
		doc := exhaustedSentinel
		for i := range its {
			doc = min(doc, its[i].Doc())
		}
		if doc == exhaustedSentinel {
			break
		}
		score := 0.0
		for i := range its {
			if its[i].Doc() == doc {
				score += bm.Score(idfs[i], its[i].Freq(), seg.DocLen(doc), seg.AvgDocLen())
				if its[i].Next() {
					res.PostingsScanned++
				}
			}
		}
		if deleted == nil || !deleted(doc) {
			res.Matches++
			heap.Offer(Hit{Doc: doc, Score: score})
		}
	}
	res.Hits = heap.AppendSorted(nil)
	return res
}

// TestSearchOrMatchesDocumentAtATime: the windowed exhaustive OR returns
// exactly what document-at-a-time evaluation does, bit for bit: hits,
// scores, Matches and PostingsScanned, with and without a Deleted filter.
func TestSearchOrMatchesDocumentAtATime(t *testing.T) {
	ex, _, vocab := corpusSearchers(t, 3000)
	deleted := func(d int32) bool { return d%7 == 3 }
	exDel := NewSearcher(ex.Segment(), Options{TopK: 10, UseMaxScore: false, Deleted: deleted})
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		terms := make([]string, 1+rng.Intn(5))
		for i := range terms {
			if rng.Intn(2) == 0 {
				terms[i] = vocab.Word(rng.Intn(50))
			} else {
				terms[i] = vocab.Word(rng.Intn(vocab.Size()))
			}
		}
		raw := strings.Join(terms, " ")
		s, del := ex, func(int32) bool { return false }
		if trial%2 == 1 {
			s, del = exDel, deleted
		}
		q := ParseQuery(s.Options().Analyzer, raw, ModeOr)
		got, want := s.Search(q), orReference(s, q, 10, del)
		if got.Matches != want.Matches || got.PostingsScanned != want.PostingsScanned {
			t.Fatalf("query %q: matches %d, postings %d; want %d, %d", raw, got.Matches, got.PostingsScanned, want.Matches, want.PostingsScanned)
		}
		if len(got.Hits) != len(want.Hits) {
			t.Fatalf("query %q: %d hits, want %d", raw, len(got.Hits), len(want.Hits))
		}
		for i := range got.Hits {
			if got.Hits[i] != want.Hits[i] {
				t.Fatalf("query %q: hit %d = %+v, want %+v", raw, i, got.Hits[i], want.Hits[i])
			}
		}
	}
}

// MaxScore must do no more scoring work than exhaustive evaluation.
func TestMaxScorePrunes(t *testing.T) {
	ex, ms, vocab := corpusSearchers(t, 800)
	// Frequent head terms give pruning the most opportunity.
	raw := vocab.Word(0) + " " + vocab.Word(1) + " " + vocab.Word(2)
	q := ParseQuery(ex.Options().Analyzer, raw, ModeOr)
	a := ex.Search(q)
	b := ms.Search(q)
	if b.PostingsScanned > a.PostingsScanned {
		t.Errorf("maxscore scanned %d postings, exhaustive %d",
			b.PostingsScanned, a.PostingsScanned)
	}
	if len(a.Hits) == 0 {
		t.Fatal("test query matched nothing")
	}
}

// AND results must be the intersection subset of OR results' documents.
func TestAndSubsetOfOr(t *testing.T) {
	ex, _, vocab := corpusSearchers(t, 500)
	rng := rand.New(rand.NewSource(3))
	big := NewSearcher(ex.Segment(), Options{TopK: 1 << 20, UseMaxScore: false})
	for trial := 0; trial < 50; trial++ {
		t1 := vocab.Word(rng.Intn(100))
		t2 := vocab.Word(rng.Intn(100))
		qAnd := ParseQuery(big.Options().Analyzer, t1+" "+t2, ModeAnd)
		qOr := ParseQuery(big.Options().Analyzer, t1+" "+t2, ModeOr)
		and := big.Search(qAnd)
		or := big.Search(qOr)
		orDocs := make(map[int32]bool, len(or.Hits))
		for _, h := range or.Hits {
			orDocs[h.Doc] = true
		}
		for _, h := range and.Hits {
			if !orDocs[h.Doc] {
				t.Fatalf("AND hit doc %d missing from OR results", h.Doc)
			}
		}
	}
}

// AND scores must equal OR scores for the same matching document.
func TestAndScoresMatchOr(t *testing.T) {
	s := newTestSearcher(t, Options{TopK: 10, UseMaxScore: false})
	and := s.ParseAndSearch("web pages", ModeAnd)
	or := s.ParseAndSearch("web pages", ModeOr)
	orScore := make(map[int32]float64)
	for _, h := range or.Hits {
		orScore[h.Doc] = h.Score
	}
	for _, h := range and.Hits {
		if math.Abs(orScore[h.Doc]-h.Score) > 1e-9 {
			t.Errorf("doc %d: AND score %v != OR score %v", h.Doc, h.Score, orScore[h.Doc])
		}
	}
}

// TestLengthNormTableMatchesScore: scoring through a searcher's
// per-document length-norm table, as the pruned evaluator does, gives
// BM25Params.Score's bits for every document — with the table a segment
// builds (and rebuilds when read back) and with the one a global-stats
// searcher builds for another average length.
func TestLengthNormTableMatchesScore(t *testing.T) {
	seg, _ := blockMaxCorpus(t, 600)
	var buf bytes.Buffer
	if _, err := seg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := index.ReadSegment(&buf)
	if err != nil {
		t.Fatal(err)
	}
	global := globalStatsFor(seg)
	global.AvgDocLen *= 1.3
	for name, s := range map[string]*Searcher{
		"built":        NewSearcher(seg, Options{}),
		"reloaded":     NewSearcher(reloaded, Options{}),
		"global-stats": NewSearcher(seg, Options{Stats: global}),
	} {
		bm, avg := seg.BM25(), s.avgDocLen()
		for d := int32(0); d < int32(seg.NumDocs()); d++ {
			for _, idf := range []float64{0.05, 1.3, 7.9} {
				for _, freq := range []int32{1, 2, 5, 33} {
					want := bm.Score(idf, freq, seg.DocLen(d), avg)
					if got := bm.ScoreNorm(idf, freq, s.norms[d]); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: doc %d idf %v freq %d: table scores %v, Score %v", name, d, idf, freq, got, want)
					}
				}
			}
		}
	}
}

func BenchmarkSearchOr(b *testing.B) {
	ex, _, vocab := corpusSearchers(b, 2000)
	q := ParseQuery(ex.Options().Analyzer, vocab.Word(0)+" "+vocab.Word(10), ModeOr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Search(q)
	}
}

func BenchmarkSearchMaxScore(b *testing.B) {
	_, ms, vocab := corpusSearchers(b, 2000)
	q := ParseQuery(ms.Options().Analyzer, vocab.Word(0)+" "+vocab.Word(10), ModeOr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms.Search(q)
	}
}

func BenchmarkSearchAnd(b *testing.B) {
	ex, _, vocab := corpusSearchers(b, 2000)
	q := ParseQuery(ex.Options().Analyzer, vocab.Word(5)+" "+vocab.Word(30), ModeAnd)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Search(q)
	}
}

// Property: for arbitrary queries and modes, results are sorted, bounded
// by TopK, scores are non-negative, and no document appears twice.
func TestSearchPropertyInvariants(t *testing.T) {
	ex, ms, vocab := corpusSearchers(t, 600)
	searchers := []*Searcher{ex, ms}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(5)
		terms := make([]string, n)
		for i := range terms {
			terms[i] = vocab.Word(rng.Intn(vocab.Size()))
		}
		mode := ModeOr
		if rng.Intn(3) == 0 {
			mode = ModeAnd
		}
		s := searchers[rng.Intn(2)]
		q := ParseQuery(s.Options().Analyzer, strings.Join(terms, " "), mode)
		res := s.Search(q)
		if len(res.Hits) > s.Options().TopK {
			t.Fatalf("hits %d exceed TopK %d", len(res.Hits), s.Options().TopK)
		}
		seen := make(map[int32]bool, len(res.Hits))
		for i, h := range res.Hits {
			if h.Score < 0 {
				t.Fatalf("negative score %v", h.Score)
			}
			if seen[h.Doc] {
				t.Fatalf("duplicate doc %d in results", h.Doc)
			}
			seen[h.Doc] = true
			if i > 0 && weaker(res.Hits[i-1], h) {
				t.Fatalf("hits not sorted at %d", i)
			}
		}
		if res.Matches < len(res.Hits) {
			t.Fatalf("Matches %d below hit count %d", res.Matches, len(res.Hits))
		}
	}
}

// Property: searching with a Deleted filter is equivalent to searching
// without one and discarding flagged docs — across exhaustive, MaxScore
// and Block-Max strategies, OR and AND modes. Deleted docs never surface.
func TestDeletedFilterEquivalence(t *testing.T) {
	ex, ms, vocab := corpusSearchers(t, 600)
	seg := ex.Segment()
	deleted := func(d int32) bool { return d%5 == 2 }

	// Filtered variants of each strategy. Large TopK so the unfiltered
	// baseline retains enough survivors to compare against.
	const k = 25
	mk := func(useMS bool, del func(int32) bool) *Searcher {
		return NewSearcher(seg, Options{TopK: k, UseMaxScore: useMS, Deleted: del})
	}
	exPlain := mk(false, nil)
	exDel, msDel := mk(false, deleted), mk(true, deleted)
	if !msDel.useBlockMax() {
		t.Fatal("expected Block-Max to be active on the packed test segment")
	}

	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(4)
		terms := make([]string, n)
		for i := range terms {
			if rng.Intn(2) == 0 {
				terms[i] = vocab.Word(rng.Intn(50))
			} else {
				terms[i] = vocab.Word(rng.Intn(vocab.Size()))
			}
		}
		mode := ModeOr
		if rng.Intn(3) == 0 {
			mode = ModeAnd
		}
		raw := strings.Join(terms, " ")
		q := ParseQuery(exPlain.Options().Analyzer, raw, mode)

		// Baseline: unfiltered exhaustive results with deleted docs
		// removed by hand.
		base := exPlain.Search(q)
		wantHits := make([]Hit, 0, len(base.Hits))
		for _, h := range base.Hits {
			if !deleted(h.Doc) {
				wantHits = append(wantHits, h)
			}
		}

		for name, s := range map[string]*Searcher{"or": exDel, "maxscore": msDel} {
			got := s.Search(q)
			for _, h := range got.Hits {
				if deleted(h.Doc) {
					t.Fatalf("%s/%v %q: deleted doc %d surfaced", name, mode, raw, h.Doc)
				}
			}
			// The filtered top-k must agree with the hand-filtered
			// baseline on every rank both lists cover.
			m := min(len(got.Hits), len(wantHits))
			for i := 0; i < m; i++ {
				if got.Hits[i].Doc != wantHits[i].Doc ||
					math.Abs(got.Hits[i].Score-wantHits[i].Score) > 1e-9 {
					t.Fatalf("%s/%v %q rank %d: got (%d,%v), want (%d,%v)",
						name, mode, raw, i, got.Hits[i].Doc, got.Hits[i].Score,
						wantHits[i].Doc, wantHits[i].Score)
				}
			}
			if len(got.Hits) < m {
				t.Fatalf("%s/%v %q: filtered search lost hits", name, mode, raw)
			}
		}
		_ = ms
	}
}

// Phrase evaluation honors the Deleted filter too.
func TestDeletedFilterPhrases(t *testing.T) {
	b := index.NewBuilder(index.WithPositions(), index.WithAnalyzer(plainAnalyzer))
	b.AddDocument("t0", "tail latency study", "u0", 1)
	b.AddDocument("t1", "tail latency again", "u1", 1)
	b.AddDocument("t2", "latency tail reversed", "u2", 1)
	seg := b.Finalize()
	del := NewSearcher(seg, Options{TopK: 10, Analyzer: plainAnalyzer,
		Deleted: func(d int32) bool { return d == 0 }})
	res := del.ParseAndSearch(`"tail latency"`, ModeOr)
	if len(res.Hits) != 1 || res.Hits[0].Doc != 1 {
		t.Fatalf("phrase hits = %v, want only doc 1", res.Hits)
	}
}
