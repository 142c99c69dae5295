package index

import (
	"math"
	"testing"

	"websearchbench/internal/corpus"
	"websearchbench/internal/textproc"
)

// segmentsEqual asserts two segments are behaviourally identical:
// same dictionary, postings, doc metadata and max scores.
func segmentsEqual(t *testing.T, got, want *Segment) {
	t.Helper()
	if got.NumDocs() != want.NumDocs() {
		t.Fatalf("NumDocs = %d, want %d", got.NumDocs(), want.NumDocs())
	}
	if got.NumTerms() != want.NumTerms() {
		t.Fatalf("NumTerms = %d, want %d", got.NumTerms(), want.NumTerms())
	}
	if got.AvgDocLen() != want.AvgDocLen() {
		t.Fatalf("AvgDocLen = %v, want %v", got.AvgDocLen(), want.AvgDocLen())
	}
	for i := 0; i < want.NumDocs(); i++ {
		if got.Doc(int32(i)) != want.Doc(int32(i)) {
			t.Fatalf("doc %d stored fields differ", i)
		}
		if got.DocLen(int32(i)) != want.DocLen(int32(i)) {
			t.Fatalf("doc %d length differs", i)
		}
	}
	for _, term := range want.Terms() {
		wi, _ := want.Term(term)
		gi, ok := got.Term(term)
		if !ok {
			t.Fatalf("term %q missing after merge", term)
		}
		if gi.DocFreq != wi.DocFreq || gi.CollFreq != wi.CollFreq {
			t.Fatalf("term %q stats differ: %+v vs %+v", term, gi, wi)
		}
		if math.Abs(float64(gi.MaxScore-wi.MaxScore)) > 1e-6 {
			t.Fatalf("term %q MaxScore %v vs %v", term, gi.MaxScore, wi.MaxScore)
		}
		a, _ := got.Postings(term)
		b, _ := want.Postings(term)
		for b.Next() {
			if !a.Next() {
				t.Fatalf("term %q postings truncated", term)
			}
			if a.Doc() != b.Doc() || a.Freq() != b.Freq() {
				t.Fatalf("term %q posting (%d,%d) vs (%d,%d)",
					term, a.Doc(), a.Freq(), b.Doc(), b.Freq())
			}
		}
		if a.Next() {
			t.Fatalf("term %q extra postings", term)
		}
	}
}

func corpusDocs(t *testing.T, n int) []corpus.Document {
	t.Helper()
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = n
	cfg.VocabSize = 800
	cfg.MeanBodyTerms = 40
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return gen.Generate()
}

// The central merge invariant: building consecutive chunks of a stream
// and merging them yields exactly the segment a single builder would
// have produced.
func TestMergeEqualsSingleBuild(t *testing.T) {
	docs := corpusDocs(t, 150)
	for _, opts := range [][]BuilderOption{
		nil,
		{WithPositions()},
	} {
		single := NewBuilder(opts...)
		var chunks []*Segment
		for lo := 0; lo < len(docs); lo += 40 { // uneven last chunk: 150 = 3*40 + 30
			b := NewBuilder(opts...)
			for _, d := range docs[lo:min(lo+40, len(docs))] {
				single.AddCorpusDoc(d)
				b.AddCorpusDoc(d)
			}
			chunks = append(chunks, b.Finalize())
		}
		want := single.Finalize()
		merged, err := MergeSegments(chunks)
		if err != nil {
			t.Fatal(err)
		}
		segmentsEqual(t, merged, want)
	}
}

func TestMergePositionsPreserved(t *testing.T) {
	a := NewBuilder(WithPositions(), WithAnalyzer(&textproc.Analyzer{DisableStemming: true}))
	a.AddDocument("t", "alpha beta alpha", "u0", 1)
	segA := a.Finalize()
	b := NewBuilder(WithPositions(), WithAnalyzer(&textproc.Analyzer{DisableStemming: true}))
	b.AddDocument("t", "beta alpha", "u1", 1)
	segB := b.Finalize()
	merged, err := MergeSegments([]*Segment{segA, segB})
	if err != nil {
		t.Fatal(err)
	}
	if !merged.HasPositions() {
		t.Fatal("merge dropped positions")
	}
	it, ok := merged.PositionsOf("alpha")
	if !ok {
		t.Fatal("alpha missing")
	}
	// Doc 0: title "t" at 0, alpha at 1 and 3. Doc 1 (offset): alpha at 2.
	if !it.Next() || it.Doc() != 0 {
		t.Fatalf("doc = %d", it.Doc())
	}
	got := it.Positions()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("doc0 alpha positions = %v, want [1 3]", got)
	}
	if !it.Next() || it.Doc() != 1 {
		t.Fatalf("second doc = %d", it.Doc())
	}
	got = it.Positions()
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("doc1 alpha positions = %v, want [2]", got)
	}
}

func TestMergeErrors(t *testing.T) {
	if _, err := MergeSegments(nil); err == nil {
		t.Error("empty merge accepted")
	}
	pos := NewBuilder(WithPositions())
	pos.AddDocument("t", "x", "u", 1)
	plain := NewBuilder()
	plain.AddDocument("t", "x", "u", 1)
	if _, err := MergeSegments([]*Segment{pos.Finalize(), plain.Finalize()}); err == nil {
		t.Error("mixed positional merge accepted")
	}
	bm := NewBuilder(WithBM25(BM25Params{K1: 2, B: 0.5}))
	bm.AddDocument("t", "x", "u", 1)
	std := NewBuilder()
	std.AddDocument("t", "x", "u", 1)
	if _, err := MergeSegments([]*Segment{bm.Finalize(), std.Finalize()}); err == nil {
		t.Error("mixed BM25 merge accepted")
	}
}

func TestMergeSingleSegmentIdentity(t *testing.T) {
	b := NewBuilder()
	b.AddDocument("t", "hello world", "u", 1)
	seg := b.Finalize()
	got, err := MergeSegments([]*Segment{seg})
	if err != nil {
		t.Fatal(err)
	}
	if got != seg {
		t.Error("single-segment merge should return the segment itself")
	}
}

// Filtered merging must be equivalent to never having indexed the
// dropped documents: same dictionary, postings, stats and scores as a
// from-scratch build over the survivors.
func TestMergeFilteredEqualsRebuild(t *testing.T) {
	docs := corpusDocs(t, 120)
	// Drop a third of the docs, spread across both input segments.
	drop := func(global int) bool { return global%3 == 1 }

	a, b := NewBuilder(), NewBuilder()
	for i, d := range docs {
		if i < 70 {
			a.AddCorpusDoc(d)
		} else {
			b.AddCorpusDoc(d)
		}
	}
	segA, segB := a.Finalize(), b.Finalize()
	dropFns := []func(int32) bool{
		func(d int32) bool { return drop(int(d)) },
		func(d int32) bool { return drop(int(d) + 70) },
	}
	merged, remap, err := MergeSegmentsFiltered([]*Segment{segA, segB}, dropFns)
	if err != nil {
		t.Fatal(err)
	}

	want := NewBuilder()
	for i, d := range docs {
		if !drop(i) {
			want.AddCorpusDoc(d)
		}
	}
	segmentsEqual(t, merged, want.Finalize())

	// Remap: dropped docs map to -1, survivors renumber densely in order.
	next := int32(0)
	for si, m := range remap {
		base := 0
		if si == 1 {
			base = 70
		}
		for d, nd := range m {
			if drop(base + d) {
				if nd != -1 {
					t.Fatalf("seg %d doc %d: dropped doc remapped to %d", si, d, nd)
				}
				continue
			}
			if nd != next {
				t.Fatalf("seg %d doc %d: remap %d, want %d", si, d, nd, next)
			}
			next++
		}
	}
}

// A single segment with a filter is rewritten (dead-doc reclamation),
// and terms whose postings all died vanish from the dictionary.
func TestMergeFilteredSingleSegmentReclaim(t *testing.T) {
	an := &textproc.Analyzer{DisableStemming: true}
	b := NewBuilder(WithAnalyzer(an))
	b.AddDocument("t0", "alpha shared", "u0", 1)
	b.AddDocument("t1", "unique shared", "u1", 1)
	b.AddDocument("t2", "alpha shared", "u2", 1)
	seg := b.Finalize()

	merged, remap, err := MergeSegmentsFiltered([]*Segment{seg},
		[]func(int32) bool{func(d int32) bool { return d == 1 }})
	if err != nil {
		t.Fatal(err)
	}
	if merged.NumDocs() != 2 {
		t.Fatalf("NumDocs = %d, want 2", merged.NumDocs())
	}
	if got := remap[0]; got[0] != 0 || got[1] != -1 || got[2] != 1 {
		t.Fatalf("remap = %v, want [0 -1 1]", got)
	}
	if _, ok := merged.Term("unique"); ok {
		t.Error("term held only by the dropped doc survived reclamation")
	}
	ti, ok := merged.Term("shared")
	if !ok || ti.DocFreq != 2 {
		t.Fatalf("shared: ok=%v df=%d, want df=2", ok, ti.DocFreq)
	}
	if merged.Doc(1).Title != "t2" {
		t.Errorf("survivor doc 1 = %q, want t2", merged.Doc(1).Title)
	}
}

// Filtering a positional merge drops the dead docs' positions with them.
func TestMergeFilteredPositional(t *testing.T) {
	an := &textproc.Analyzer{DisableStemming: true}
	a := NewBuilder(WithPositions(), WithAnalyzer(an))
	a.AddDocument("t", "alpha beta", "u0", 1)
	a.AddDocument("t", "alpha gone", "u1", 1)
	segA := a.Finalize()
	bld := NewBuilder(WithPositions(), WithAnalyzer(an))
	bld.AddDocument("t", "beta alpha", "u2", 1)
	segB := bld.Finalize()

	merged, _, err := MergeSegmentsFiltered([]*Segment{segA, segB},
		[]func(int32) bool{func(d int32) bool { return d == 1 }, nil})
	if err != nil {
		t.Fatal(err)
	}
	if merged.NumDocs() != 2 {
		t.Fatalf("NumDocs = %d, want 2", merged.NumDocs())
	}
	if _, ok := merged.Term("gone"); ok {
		t.Error("dropped doc's term survived")
	}
	it, ok := merged.PositionsOf("alpha")
	if !ok {
		t.Fatal("alpha missing")
	}
	// Doc 0: title "t" at 0, alpha at 1. Doc 1 (was segB doc 0): alpha at 2.
	if !it.Next() || it.Doc() != 0 || it.Positions()[0] != 1 {
		t.Fatalf("doc0 alpha at %v", it.Positions())
	}
	if !it.Next() || it.Doc() != 1 || it.Positions()[0] != 2 {
		t.Fatalf("doc1 alpha at %v", it.Positions())
	}
	if it.Next() {
		t.Error("extra alpha posting")
	}
}
