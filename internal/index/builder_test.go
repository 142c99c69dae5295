package index

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"websearchbench/internal/corpus"
	"websearchbench/internal/textproc"
)

// buildTiny builds a small hand-written segment used across tests.
// Stemming is disabled so terms are predictable.
func buildTiny(t testing.TB, opts ...BuilderOption) *Segment {
	t.Helper()
	return tinyBuilder(t, opts...).Finalize()
}

// tinyBuilder is buildTiny's builder, before Finalize.
func tinyBuilder(t testing.TB, opts ...BuilderOption) *Builder {
	t.Helper()
	opts = append([]BuilderOption{
		WithAnalyzer(&textproc.Analyzer{DisableStemming: true}),
	}, opts...)
	b := NewBuilder(opts...)
	docs := []struct{ title, body string }{
		{"alpha doc", "alpha beta gamma alpha"},
		{"beta doc", "beta gamma delta"},
		{"gamma doc", "gamma delta epsilon gamma gamma"},
		{"empty terms", "of the and"}, // all stopwords: zero-length doc
	}
	for i, d := range docs {
		id := b.AddDocument(d.title, d.body, "http://x/"+d.title, 0.5)
		if id != int32(i) {
			t.Fatalf("AddDocument returned id %d, want %d", id, i)
		}
	}
	return b
}

func TestBuilderBasics(t *testing.T) {
	s := buildTiny(t)
	if s.NumDocs() != 4 {
		t.Fatalf("NumDocs = %d, want 4", s.NumDocs())
	}
	// "doc" appears in titles of docs 0..2; term set:
	// alpha beta gamma delta epsilon doc empty terms
	if s.NumTerms() != 8 {
		t.Fatalf("NumTerms = %d, want 8: %v", s.NumTerms(), s.Terms())
	}
	ti, ok := s.Term("gamma")
	if !ok {
		t.Fatal("term gamma missing")
	}
	if ti.DocFreq != 3 {
		t.Errorf("gamma DocFreq = %d, want 3", ti.DocFreq)
	}
	if ti.CollFreq != 6 {
		t.Errorf("gamma CollFreq = %d, want 6", ti.CollFreq)
	}
	if _, ok := s.Term("the"); ok {
		t.Error("stopword indexed")
	}
	if _, ok := s.Term("zeta"); ok {
		t.Error("absent term reported present")
	}
}

func TestBuilderPostingsOrder(t *testing.T) {
	s := buildTiny(t)
	it, ok := s.Postings("gamma")
	if !ok {
		t.Fatal("gamma missing")
	}
	var docs []int32
	var freqs []int32
	for it.Next() {
		docs = append(docs, it.Doc())
		freqs = append(freqs, it.Freq())
	}
	wantDocs := []int32{0, 1, 2}
	wantFreqs := []int32{1, 1, 4}
	if len(docs) != 3 {
		t.Fatalf("docs = %v", docs)
	}
	for i := range wantDocs {
		if docs[i] != wantDocs[i] || freqs[i] != wantFreqs[i] {
			t.Errorf("posting %d = (%d,%d), want (%d,%d)",
				i, docs[i], freqs[i], wantDocs[i], wantFreqs[i])
		}
	}
}

func TestDocLensAndAvg(t *testing.T) {
	s := buildTiny(t)
	// doc0: title "alpha doc" (2 terms) + body 4 terms = 6
	if got := s.DocLen(0); got != 6 {
		t.Errorf("DocLen(0) = %d, want 6", got)
	}
	// doc3: all stopwords, but title "empty terms" gives 2 terms.
	if got := s.DocLen(3); got != 2 {
		t.Errorf("DocLen(3) = %d, want 2", got)
	}
	wantAvg := (6.0 + 5.0 + 7.0 + 2.0) / 4
	if math.Abs(s.AvgDocLen()-wantAvg) > 1e-9 {
		t.Errorf("AvgDocLen = %v, want %v", s.AvgDocLen(), wantAvg)
	}
}

func TestStoredDocs(t *testing.T) {
	s := buildTiny(t)
	d := s.Doc(2)
	if d.Title != "gamma doc" {
		t.Errorf("Doc(2).Title = %q", d.Title)
	}
	if !strings.HasPrefix(d.URL, "http://") {
		t.Errorf("Doc(2).URL = %q", d.URL)
	}
	if d.Quality != 0.5 {
		t.Errorf("Doc(2).Quality = %v", d.Quality)
	}
	if d.Snippet == "" {
		t.Error("empty snippet")
	}
}

func TestSnippetTruncation(t *testing.T) {
	b := NewBuilder()
	long := strings.Repeat("word ", 100)
	b.AddDocument("t", long, "u", 1)
	s := b.Finalize()
	if got := len(s.Doc(0).Snippet); got != snippetLen {
		t.Errorf("snippet length = %d, want %d", got, snippetLen)
	}
}

func TestIDF(t *testing.T) {
	s := buildTiny(t)
	// gamma (df=3) is more common than epsilon (df=1): lower IDF.
	if s.IDF("gamma") >= s.IDF("epsilon") {
		t.Errorf("IDF(gamma)=%v should be < IDF(epsilon)=%v",
			s.IDF("gamma"), s.IDF("epsilon"))
	}
	if s.IDF("absent") != 0 {
		t.Error("IDF of absent term should be 0")
	}
	if IDF(0, 1) != 0 || IDF(10, 0) != 0 {
		t.Error("degenerate IDF should be 0")
	}
}

func TestBM25Score(t *testing.T) {
	p := DefaultBM25()
	idf := 2.0
	// Score grows with freq but saturates below MaxScore.
	s1 := p.Score(idf, 1, 100, 100)
	s2 := p.Score(idf, 2, 100, 100)
	s100 := p.Score(idf, 100, 100, 100)
	if !(s1 < s2 && s2 < s100) {
		t.Errorf("scores not increasing: %v %v %v", s1, s2, s100)
	}
	if s100 >= p.MaxScore(idf) {
		t.Errorf("score %v exceeds MaxScore %v", s100, p.MaxScore(idf))
	}
	// Longer documents score lower for the same freq.
	long := p.Score(idf, 2, 1000, 100)
	if long >= s2 {
		t.Errorf("long doc score %v should be < %v", long, s2)
	}
	if p.Score(idf, 0, 10, 10) != 0 {
		t.Error("zero freq should score 0")
	}
	// Zero avgDocLen must not divide by zero.
	if v := p.Score(idf, 1, 0, 0); math.IsNaN(v) || math.IsInf(v, 0) {
		t.Errorf("degenerate Score = %v", v)
	}
}

func TestMaxScoresExact(t *testing.T) {
	s := buildTiny(t)
	n := int64(s.NumDocs())
	avg := s.AvgDocLen()
	for _, term := range s.Terms() {
		ti, _ := s.Term(term)
		it, _ := s.Postings(term)
		idf := IDF(n, int64(ti.DocFreq))
		var max float64
		for it.Next() {
			sc := s.BM25().Score(idf, it.Freq(), s.DocLen(it.Doc()), avg)
			if sc > max {
				max = sc
			}
		}
		if math.Abs(float64(ti.MaxScore)-max) > 1e-6 {
			t.Errorf("term %q MaxScore = %v, want %v", term, ti.MaxScore, max)
		}
	}
}

func TestBuildFromCorpus(t *testing.T) {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 200
	cfg.VocabSize = 1000
	cfg.MeanBodyTerms = 50
	seg, err := BuildFromCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seg.NumDocs() != 200 {
		t.Fatalf("NumDocs = %d", seg.NumDocs())
	}
	if seg.NumTerms() == 0 || seg.TotalPostings() == 0 {
		t.Fatal("empty index from corpus")
	}
	// Invariant: collection frequency >= doc frequency for every term.
	for _, term := range seg.Terms() {
		ti, _ := seg.Term(term)
		if ti.CollFreq < int64(ti.DocFreq) {
			t.Fatalf("term %q: CollFreq %d < DocFreq %d", term, ti.CollFreq, ti.DocFreq)
		}
	}
	if _, err := BuildFromCorpus(corpus.Config{}); err == nil {
		t.Error("invalid corpus config should fail")
	}
}

func TestBuilderDeterministic(t *testing.T) {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 100
	cfg.VocabSize = 500
	cfg.MeanBodyTerms = 30
	s1, err := BuildFromCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := BuildFromCorpus(cfg)
	var b1, b2 bytes.Buffer
	if _, err := s1.WriteTo(&b1); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.WriteTo(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("identical builds produced different serialized segments")
	}
}

func TestComputeStats(t *testing.T) {
	s := buildTiny(t)
	st := s.ComputeStats(3)
	if st.NumDocs != 4 || st.NumTerms != 8 {
		t.Errorf("stats counts = %d docs %d terms", st.NumDocs, st.NumTerms)
	}
	if st.TotalPostings != s.TotalPostings() {
		t.Errorf("TotalPostings = %d, want %d", st.TotalPostings, s.TotalPostings())
	}
	if st.RawPostingsBytes != st.TotalPostings*8 {
		t.Error("RawPostingsBytes mismatch")
	}
	if st.CompressionRatio <= 1 {
		t.Errorf("CompressionRatio = %v, want > 1", st.CompressionRatio)
	}
	if len(st.TopTerms) != 3 {
		t.Fatalf("TopTerms = %v", st.TopTerms)
	}
	if st.TopTerms[0].Term != "gamma" || st.TopTerms[0].Count != 6 {
		t.Errorf("top term = %+v, want gamma/6", st.TopTerms[0])
	}
	if st.MaxDocFreq != 3 {
		t.Errorf("MaxDocFreq = %d, want 3", st.MaxDocFreq)
	}
	if st.DocLenMax != 7 {
		t.Errorf("DocLenMax = %d, want 7", st.DocLenMax)
	}
}

// AddPreanalyzed must produce the same segment as AddDocument for a
// document whose analyzed term frequencies are replayed.
func TestAddPreanalyzedEqualsAddDocument(t *testing.T) {
	docs := corpusDocs(t, 60)
	direct := NewBuilder()
	replayed := NewBuilder()
	for _, d := range docs {
		direct.AddCorpusDoc(d)
	}
	want := direct.Finalize()
	// Replay each document's term stats out of the finished segment's
	// postings: per-doc (term, freq) pairs in sorted term order.
	type tf struct {
		term string
		freq int32
	}
	perDoc := make([][]tf, want.NumDocs())
	for _, term := range want.Terms() {
		it, _ := want.Postings(term)
		for it.Next() {
			perDoc[it.Doc()] = append(perDoc[it.Doc()], tf{term, it.Freq()})
		}
	}
	for d := 0; d < want.NumDocs(); d++ {
		terms := make([]string, len(perDoc[d]))
		freqs := make([]int32, len(perDoc[d]))
		for i, p := range perDoc[d] {
			terms[i] = p.term // Terms() iterates sorted, so pairs arrive sorted
			freqs[i] = p.freq
		}
		replayed.AddPreanalyzed(want.Doc(int32(d)), terms, freqs)
	}
	segmentsEqual(t, replayed.Finalize(), want)
}

func TestAddPreanalyzedPositionalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddPreanalyzed on a positional builder should panic")
		}
	}()
	NewBuilder(WithPositions()).AddPreanalyzed(StoredDoc{}, []string{"a"}, []int32{1})
}
