package index

import (
	"reflect"
	"testing"

	"websearchbench/internal/corpus"
)

// TestBlockMaxStructure checks the block metadata layout: one block per
// skip interval (plus the unbounded tail) for long lists, a single
// term-level block for short ones, and none at all for raw segments.
func TestBlockMaxStructure(t *testing.T) {
	s := buildLongList(t, 1000)
	if !s.HasBlockMax() {
		t.Fatal("varint segment has no block-max metadata")
	}
	ti, _ := s.Term("common")
	if got, want := len(s.blockMaxes[ti.ID]), numBlocksFor(ti.DocFreq); got != want {
		t.Fatalf("long list has %d blocks, want %d", got, want)
	}
	// At 300 docs, "sparse" (every third doc) stays under the skip
	// threshold and gets a single term-level block.
	short := buildLongList(t, 300)
	sp, _ := short.Term("sparse")
	if got := len(short.blockMaxes[sp.ID]); got != 1 {
		t.Fatalf("short list has %d blocks, want 1", got)
	}
	if short.blockMaxes[sp.ID][0] != short.maxScores[sp.ID] {
		t.Fatal("short list's single block bound is not the term MaxScore")
	}

	raw := buildLongList(t, 1000, WithCompression(CompressionRaw))
	if raw.HasBlockMax() {
		t.Fatal("raw segment claims block-max metadata")
	}
}

// TestBlockMaxBoundsPostings is the safety invariant Block-Max pruning
// rests on: every posting's BM25 contribution is bounded by its block's
// stored maximum.
func TestBlockMaxBoundsPostings(t *testing.T) {
	s, err := BuildFromCorpus(smallCorpusCfg())
	if err != nil {
		t.Fatal(err)
	}
	n := int64(s.NumDocs())
	avg := s.AvgDocLen()
	for _, term := range s.Terms() {
		ti, _ := s.Term(term)
		idf := IDF(n, int64(ti.DocFreq))
		it := s.PostingsByID(ti.ID)
		pos := 0
		for it.Next() {
			sc := s.bm25.Score(idf, it.Freq(), s.DocLen(it.Doc()), avg)
			blocks := s.blockMaxes[ti.ID]
			bi := 0
			if len(blocks) > 1 {
				bi = pos / skipInterval
			}
			if sc > float64(blocks[bi]) {
				t.Fatalf("term %q posting %d: score %g exceeds block %d bound %g",
					term, pos, sc, bi, blocks[bi])
			}
			pos++
		}
	}
}

// TestShallowCursor drives NextShallow/BlockMax over a long list and
// checks the cursor lands on the block that SkipTo would decode into.
func TestShallowCursor(t *testing.T) {
	s := buildLongList(t, 1000)
	ti, _ := s.Term("common")
	for _, target := range []int32{0, 1, 63, 64, 500, 999} {
		it := s.PostingsByID(ti.ID)
		if !it.NextShallow(target) {
			t.Fatalf("NextShallow(%d) = false on a block-max list", target)
		}
		bound := it.BlockMax()
		if !it.SkipTo(target) {
			t.Fatalf("SkipTo(%d) failed", target)
		}
		idf := IDF(int64(s.NumDocs()), int64(ti.DocFreq))
		sc := s.bm25.Score(idf, it.Freq(), s.DocLen(it.Doc()), s.AvgDocLen())
		if sc > bound {
			t.Fatalf("target %d: decoded score %g exceeds shallow bound %g", target, sc, bound)
		}
	}
	// Without metadata the shallow cursor reports unusable.
	it, _ := s.PostingsWithoutSkips("common")
	if it.NextShallow(10) {
		t.Fatal("NextShallow = true on an iterator without block metadata")
	}
}

func smallCorpusCfg() corpus.Config {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 600
	cfg.VocabSize = 1500
	return cfg
}

// TestBlockMaxRoundTrip checks serialization carries the block metadata
// bit-exactly.
func TestBlockMaxRoundTrip(t *testing.T) {
	s, err := BuildFromCorpus(smallCorpusCfg())
	if err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, s)
	segmentsEquivalent(t, s, got)
	if !got.HasBlockMax() {
		t.Fatal("round-tripped segment lost block-max metadata")
	}
	if !reflect.DeepEqual(s.blockMaxes, got.blockMaxes) {
		t.Fatal("block maxima differ after round trip")
	}
}

// TestLegacySerializationCompat checks that a raw segment, the one
// encoding without block-max metadata (the MaxScore fallback
// condition), round-trips and still searches: its iterators have no
// shallow cursor, but SkipTo lands exactly.
func TestLegacySerializationCompat(t *testing.T) {
	s, err := BuildFromCorpus(smallCorpusCfg(), WithCompression(CompressionRaw))
	if err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, s)
	segmentsEquivalent(t, s, got)
	if got.HasBlockMax() {
		t.Fatal("raw segment claims block-max metadata")
	}
	ti, _ := got.Term(got.Terms()[0])
	it := got.PostingsByID(ti.ID)
	if it.NextShallow(0) {
		t.Fatal("raw iterator has a shallow cursor")
	}
	var docs []int32
	for it.Next() {
		docs = append(docs, it.Doc())
	}
	for _, d := range []int32{docs[0], docs[len(docs)/2], docs[len(docs)-1]} {
		sk := got.PostingsByID(ti.ID)
		if !sk.SkipTo(d) || sk.Doc() != d {
			t.Fatalf("SkipTo(%d) landed on %d", d, sk.Doc())
		}
	}
}

// TestMergeMixedBlockMax merges a varint segment with a raw one (no block
// metadata) and checks the output's block maxima are exactly those of a
// single-shot build over the same documents — merge recomputes them, it
// does not stitch.
func TestMergeMixedBlockMax(t *testing.T) {
	cfg := smallCorpusCfg()
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var docs []corpus.Document
	gen.GenerateFunc(func(d corpus.Document) { docs = append(docs, d) })
	half := len(docs) / 2

	// The output takes the first input's encoding, and segmentsEquivalent
	// requires matching encodings, so the reference is varint too. The
	// packed counterpart of this property lives in TestMergePackedMixedFormats.
	build := func(ds []corpus.Document, comp Compression) *Segment {
		b := NewBuilder(WithCompression(comp))
		for _, d := range ds {
			b.AddCorpusDoc(d)
		}
		return b.Finalize()
	}
	first, second := build(docs[:half], CompressionVarint), build(docs[half:], CompressionRaw)
	if second.HasBlockMax() {
		t.Fatal("raw input has block metadata")
	}

	merged, err := MergeSegments([]*Segment{first, second})
	if err != nil {
		t.Fatal(err)
	}
	single := build(docs, CompressionVarint)
	segmentsEquivalent(t, single, merged)
	if !merged.HasBlockMax() {
		t.Fatal("merged segment has no block-max metadata")
	}
	if !reflect.DeepEqual(single.blockMaxes, merged.blockMaxes) {
		t.Fatal("merged block maxima differ from a single-shot build")
	}
}
