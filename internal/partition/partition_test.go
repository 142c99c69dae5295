package partition

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"websearchbench/internal/corpus"
	"websearchbench/internal/index"
	"websearchbench/internal/search"
)

func smallCorpus() corpus.Config {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 600
	cfg.VocabSize = 2000
	cfg.MeanBodyTerms = 50
	return cfg
}

func TestNewBuilderValidation(t *testing.T) {
	if _, err := NewBuilder(0, RoundRobin, 10); err == nil {
		t.Error("parts=0 accepted")
	}
	if _, err := NewBuilder(-1, RoundRobin, 10); err == nil {
		t.Error("parts=-1 accepted")
	}
	if _, err := NewBuilder(4, Range, 0); err == nil {
		t.Error("Range without expectedDocs accepted")
	}
	if _, err := NewBuilder(4, RoundRobin, 0); err != nil {
		t.Errorf("RoundRobin without expectedDocs rejected: %v", err)
	}
}

func TestAssignmentString(t *testing.T) {
	if RoundRobin.String() != "round-robin" || Range.String() != "range" {
		t.Error("Assignment.String mismatch")
	}
	if Assignment(7).String() != "Assignment(7)" {
		t.Error("unknown Assignment.String mismatch")
	}
}

func TestRoundRobinAssignment(t *testing.T) {
	idx, err := Build(smallCorpus(), 4, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	if idx.NumPartitions() != 4 || idx.NumDocs() != 600 {
		t.Fatalf("partitions=%d docs=%d", idx.NumPartitions(), idx.NumDocs())
	}
	// Each partition holds exactly 150 docs.
	for p := 0; p < 4; p++ {
		if n := idx.Segment(p).NumDocs(); n != 150 {
			t.Errorf("partition %d has %d docs, want 150", p, n)
		}
	}
	// Mapping round-trips: global -> (p, local) -> global.
	for g := int32(0); g < 600; g++ {
		p, local := idx.locate(g)
		if idx.GlobalID(p, local) != g {
			t.Fatalf("docID mapping broken for global %d", g)
		}
		if p != int(g)%4 {
			t.Fatalf("global %d in partition %d, want %d", g, p, g%4)
		}
	}
}

func TestRangeAssignment(t *testing.T) {
	idx, err := Build(smallCorpus(), 4, Range)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		if n := idx.Segment(p).NumDocs(); n != 150 {
			t.Errorf("partition %d has %d docs, want 150", p, n)
		}
	}
	// Contiguity: partition 0 holds globals 0..149.
	if idx.GlobalID(0, 0) != 0 || idx.GlobalID(0, 149) != 149 {
		t.Error("range partition 0 not contiguous")
	}
	if idx.GlobalID(3, 0) != 450 {
		t.Errorf("partition 3 starts at %d, want 450", idx.GlobalID(3, 0))
	}
	for g := int32(0); g < 600; g++ {
		p, local := idx.locate(g)
		if idx.GlobalID(p, local) != g {
			t.Fatalf("docID mapping broken for global %d", g)
		}
	}
}

func TestLocateUnknownPanics(t *testing.T) {
	idx, err := Build(smallCorpus(), 2, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("locate of out-of-range global did not panic")
		}
	}()
	idx.locate(600)
}

func TestDocAccess(t *testing.T) {
	cfg := smallCorpus()
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	docs := gen.Generate()
	for _, assignment := range []Assignment{RoundRobin, Range} {
		b, err := NewBuilder(3, assignment, cfg.NumDocs)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range docs {
			b.AddCorpusDoc(d)
		}
		idx := b.Finalize()
		for _, g := range []int32{0, 1, 7, 299, 599} {
			got := idx.Doc(g)
			if got.URL != docs[g].URL || got.Title != docs[g].Title {
				t.Errorf("%v: Doc(%d) = %q, want %q", assignment, g, got.URL, docs[g].URL)
			}
		}
	}
}

// buildBoth builds a P-way partitioned index and an equivalent single
// segment over the same corpus.
func buildBoth(t testing.TB, parts int) (*Index, *index.Segment, *corpus.Vocabulary) {
	t.Helper()
	cfg := smallCorpus()
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	docs := gen.Generate()
	pb, err := NewBuilder(parts, RoundRobin, cfg.NumDocs)
	if err != nil {
		t.Fatal(err)
	}
	sb := index.NewBuilder()
	for _, d := range docs {
		pb.AddCorpusDoc(d)
		sb.AddCorpusDoc(d)
	}
	return pb.Finalize(), sb.Finalize(), gen.Vocabulary()
}

// TestPartitionedEqualsUnpartitioned is the paper's functional invariant:
// with global statistics, a P-way partitioned search returns exactly the
// same ranked results as the unpartitioned index, for every P.
func TestPartitionedEqualsUnpartitioned(t *testing.T) {
	for _, parts := range []int{1, 2, 3, 8} {
		idx, seg, vocab := buildBoth(t, parts)
		gs := GlobalStats(idx)
		opts := search.Options{TopK: 10, UseMaxScore: true, Stats: gs}
		ps := NewSearcher(idx, opts, false)
		ss := search.NewSearcher(seg, search.Options{TopK: 10, UseMaxScore: true})
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 60; trial++ {
			nTerms := 1 + rng.Intn(3)
			terms := make([]string, nTerms)
			for i := range terms {
				terms[i] = vocab.Word(rng.Intn(300))
			}
			raw := strings.Join(terms, " ")
			mode := search.ModeOr
			if rng.Intn(4) == 0 {
				mode = search.ModeAnd
			}
			q := search.ParseQuery(ss.Options().Analyzer, raw, mode)
			want := ss.Search(q)
			got := ps.Search(q)
			if len(got.Hits) != len(want.Hits) {
				t.Fatalf("parts=%d query %q (%v): %d hits vs %d",
					parts, raw, mode, len(got.Hits), len(want.Hits))
			}
			for i := range want.Hits {
				if got.Hits[i].Doc != want.Hits[i].Doc ||
					math.Abs(got.Hits[i].Score-want.Hits[i].Score) > 1e-9 {
					t.Fatalf("parts=%d query %q (%v): hit %d = %+v, want %+v",
						parts, raw, mode, i, got.Hits[i], want.Hits[i])
				}
			}
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	idx, _, vocab := buildBoth(t, 4)
	gs := GlobalStats(idx)
	opts := search.Options{TopK: 10, Stats: gs}
	seq := NewSearcher(idx, opts, false)
	par := NewSearcher(idx, opts, true)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		raw := vocab.Word(rng.Intn(200)) + " " + vocab.Word(rng.Intn(200))
		a := seq.ParseAndSearch(raw, search.ModeOr)
		b := par.ParseAndSearch(raw, search.ModeOr)
		if len(a.Hits) != len(b.Hits) {
			t.Fatalf("query %q: %d vs %d hits", raw, len(a.Hits), len(b.Hits))
		}
		for i := range a.Hits {
			if a.Hits[i] != b.Hits[i] {
				t.Fatalf("query %q hit %d: %+v vs %+v", raw, i, a.Hits[i], b.Hits[i])
			}
		}
	}
}

func TestResultTimings(t *testing.T) {
	idx, _, vocab := buildBoth(t, 4)
	s := NewSearcher(idx, search.Options{TopK: 10}, false)
	res := s.ParseAndSearch(vocab.Word(0), search.ModeOr)
	if len(res.PartTimes) != 4 {
		t.Fatalf("PartTimes = %v", res.PartTimes)
	}
	var total, max int64
	for _, d := range res.PartTimes {
		total += int64(d)
		if int64(d) > max {
			max = int64(d)
		}
	}
	if int64(res.TotalWork) != total {
		t.Errorf("TotalWork = %v, want %v", res.TotalWork, total)
	}
	if int64(res.CriticalPath) != max {
		t.Errorf("CriticalPath = %v, want %v", res.CriticalPath, max)
	}
	if res.CriticalPath > res.TotalWork {
		t.Error("critical path exceeds total work")
	}
}

func TestGlobalStatsAggregation(t *testing.T) {
	idx, seg, _ := buildBoth(t, 4)
	gs := GlobalStats(idx)
	if gs.NumDocs != int64(seg.NumDocs()) {
		t.Errorf("NumDocs = %d, want %d", gs.NumDocs, seg.NumDocs())
	}
	if math.Abs(gs.AvgDocLen-seg.AvgDocLen()) > 1e-9 {
		t.Errorf("AvgDocLen = %v, want %v", gs.AvgDocLen, seg.AvgDocLen())
	}
	for _, term := range seg.Terms() {
		ti, _ := seg.Term(term)
		if gs.DocFreqs[term] != int64(ti.DocFreq) {
			t.Errorf("term %q df = %d, want %d", term, gs.DocFreqs[term], ti.DocFreq)
		}
	}
}

func TestImbalance(t *testing.T) {
	idx, _, vocab := buildBoth(t, 4)
	// A very frequent term under round robin should be near-balanced.
	imb := idx.Imbalance(vocab.Word(0))
	if imb < 1 || imb > 1.5 {
		t.Errorf("round-robin imbalance of frequent term = %v, want ~1", imb)
	}
	if idx.Imbalance("absentterm") != 0 {
		t.Error("imbalance of absent term should be 0")
	}
}

func TestRangeMoreImbalancedThanRoundRobin(t *testing.T) {
	cfg := smallCorpus()
	rr, err := Build(cfg, 8, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := Build(cfg, 8, Range)
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := corpus.NewGenerator(cfg)
	vocab := gen.Vocabulary()
	// Average imbalance over mid-frequency (topical) terms: range
	// assignment clusters topics, round robin spreads them.
	var rrSum, rgSum float64
	n := 0
	for r := 100; r < 400; r += 10 {
		w := vocab.Word(r)
		a, b := rr.Imbalance(w), rg.Imbalance(w)
		if a == 0 || b == 0 {
			continue
		}
		rrSum += a
		rgSum += b
		n++
	}
	if n == 0 {
		t.Skip("no common terms sampled")
	}
	if rgSum/float64(n) <= rrSum/float64(n) {
		t.Errorf("range imbalance %v not worse than round robin %v",
			rgSum/float64(n), rrSum/float64(n))
	}
}

func BenchmarkPartitionedSearch(b *testing.B) {
	idx, _, vocab := buildBoth(b, 8)
	s := NewSearcher(idx, search.Options{TopK: 10}, false)
	q := search.ParseQuery(s.Analyzer(),
		vocab.Word(0)+" "+vocab.Word(20), search.ModeOr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Search(q)
	}
}

// TestFromSegmentsAllocation: wrapping a segment set (every blob
// generation swap does it) costs memory in the number of segments, not
// the number of documents, and still resolves every global docID.
func TestFromSegmentsAllocation(t *testing.T) {
	build := func(docsPerSeg int) []*index.Segment {
		segs := make([]*index.Segment, 4)
		for p := range segs {
			b := index.NewBuilder()
			for i := 0; i < docsPerSeg; i++ {
				b.AddDocument("t", "body text", fmt.Sprintf("u-%d-%d", p, i), 0)
			}
			segs[p] = b.Finalize()
		}
		return segs
	}
	var sink *Index
	allocated := func(segs []*index.Segment) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sink = FromSegments(segs)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := build(5), build(5000)
	a, b := allocated(small), allocated(large)
	if b > a+256 {
		t.Errorf("FromSegments allocated %d B for 20 docs but %d B for 20000", a, b)
	}
	if sink.NumDocs() != 20000 || sink.Assignment() != Range {
		t.Fatalf("docs=%d assignment=%v", sink.NumDocs(), sink.Assignment())
	}
	for _, g := range []int32{0, 4999, 5000, 12345, 19999} {
		p, local := sink.locate(g)
		want := fmt.Sprintf("u-%d-%d", g/5000, g%5000)
		if sink.GlobalID(p, local) != g || sink.Doc(g).URL != want {
			t.Errorf("global %d -> (%d, %d) -> %d, URL %q want %q", g, p, local, sink.GlobalID(p, local), sink.Doc(g).URL, want)
		}
	}
}

// TestURLTitle: the index resolves a global docID's URL and title as Doc
// does, through the same partition map.
func TestURLTitle(t *testing.T) {
	idx, _, _ := buildBoth(t, 3)
	for d := int32(0); d < int32(idx.NumDocs()); d++ {
		doc := idx.Doc(d)
		if url, title := idx.URLTitle(d); url != doc.URL || title != doc.Title {
			t.Fatalf("doc %d: URLTitle = %q, %q; Doc = %q, %q", d, url, title, doc.URL, doc.Title)
		}
	}
}
