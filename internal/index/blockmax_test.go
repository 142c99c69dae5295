package index

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"websearchbench/internal/corpus"
)

// TestBlockMaxStructure checks the block metadata layout: one block per
// skip interval (plus the unbounded tail) for long lists and a single
// term-level block for short ones.
func TestBlockMaxStructure(t *testing.T) {
	s := buildLongList(t, 1000)
	ti, _ := s.Term("common")
	if got, want := len(blockMaxesOf(s, ti.ID)), numBlocksFor(ti.DocFreq); got != want {
		t.Fatalf("long list has %d blocks, want %d", got, want)
	}
	// At 300 docs, "sparse" (every third doc) stays under the skip
	// threshold and gets a single term-level block.
	short := buildLongList(t, 300)
	sp, _ := short.Term("sparse")
	if got := len(blockMaxesOf(short, sp.ID)); got != 1 {
		t.Fatalf("short list has %d blocks, want 1", got)
	}
	if blockMaxesOf(short, sp.ID)[0] != sp.MaxScore {
		t.Fatal("short list's single block bound is not the term MaxScore")
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
			blocks := blockMaxesOf(s, ti.ID)
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
	if !reflect.DeepEqual(s.blockMaxes, got.blockMaxes) {
		t.Fatal("block maxima differ after round trip")
	}
}

// TestLegacySerializationCompat: a segment in a retired posting
// encoding (varint, 0, or raw, 1, in the header's encoding byte) —
// positional segments were always varint — is refused with an error
// wrapping ErrBadFormat that says to rebuild, not loaded.
func TestLegacySerializationCompat(t *testing.T) {
	for _, opts := range [][]BuilderOption{nil, {WithPositions()}} {
		var buf bytes.Buffer
		if _, err := buildTiny(t, opts...).WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		for _, enc := range []byte{0, 1} {
			data := append([]byte(nil), buf.Bytes()...)
			data[8] = enc
			_, err := ReadSegment(bytes.NewReader(data))
			if !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), "rebuild") {
				t.Errorf("encoding %d: ReadSegment = %v, want an ErrBadFormat that says to rebuild", enc, err)
			}
		}
	}
}

// TestMergeMixedBlockMax merges segments whose block boundaries do not
// line up with the merged list's (a 1:2 split of the documents) and
// checks the output's block maxima are exactly those of a single-shot
// build over the same documents — merge recomputes them, it does not
// stitch.
func TestMergeMixedBlockMax(t *testing.T) {
	cfg := smallCorpusCfg()
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var docs []corpus.Document
	gen.GenerateFunc(func(d corpus.Document) { docs = append(docs, d) })
	third := len(docs)/3 + 7

	build := func(ds []corpus.Document) *Segment {
		b := NewBuilder()
		for _, d := range ds {
			b.AddCorpusDoc(d)
		}
		return b.Finalize()
	}
	merged, err := MergeSegments([]*Segment{build(docs[:third]), build(docs[third:])})
	if err != nil {
		t.Fatal(err)
	}
	single := build(docs)
	segmentsEquivalent(t, single, merged)
	if !reflect.DeepEqual(single.blockMaxes, merged.blockMaxes) {
		t.Fatal("merged block maxima differ from a single-shot build")
	}
}
