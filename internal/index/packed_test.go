package index

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// TestPackedBlockBoundaries round-trips lists whose lengths straddle the
// packed block size: all-tail, exactly one block, block+1, and multiple
// blocks with and without a tail.
func TestPackedBlockBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, 640, 1000} {
		ps := make([]posting, n)
		for i := range ps {
			ps[i] = posting{doc: int32(i * 3), freq: int32(i%7 + 1)}
		}
		got := decodeAll(encodeAll(ps))
		if len(got) != n {
			t.Fatalf("n=%d: decoded %d postings", n, len(got))
		}
		for i := range ps {
			if got[i] != ps[i] {
				t.Fatalf("n=%d: posting %d = %+v, want %+v", n, i, got[i], ps[i])
			}
		}
	}
}

// TestPackedDenseWidthZero checks the frame-of-reference degenerate
// case: consecutive docIDs with uniform frequencies pack at width 0, so
// a full block costs only its header (2 width bytes + 2 uvarints).
func TestPackedDenseWidthZero(t *testing.T) {
	enc := postingsEncoder{}
	for d := int32(0); d < 64; d++ {
		enc.add(d, 5)
	}
	enc.finish()
	// Header: docBits=0, freqBits=0, firstGap=0 (1 byte), freqRef=5 (1 byte).
	if len(enc.buf) != 4 {
		t.Errorf("dense uniform block = %d bytes, want 4", len(enc.buf))
	}
	it := newPostingsIterator(enc.buf, enc.count)
	for d := int32(0); d < 64; d++ {
		if !it.Next() || it.Doc() != d || it.Freq() != 5 {
			t.Fatalf("posting %d decoded as (%d,%d)", d, it.Doc(), it.Freq())
		}
	}
	if it.Next() {
		t.Fatal("extra posting")
	}
}

// TestTruncatedPackedPostings: an iterator that claims more postings than the buffer holds must exhaust
// cleanly instead of spinning or panicking, for both a truncated full
// block and a truncated varint tail.
func TestTruncatedPackedPostings(t *testing.T) {
	enc := postingsEncoder{}
	for d := int32(0); d < 100; d++ {
		enc.add(d*2, 1)
	}
	enc.finish()
	for _, cut := range []int{0, 1, 3, len(enc.buf) / 2, len(enc.buf) - 1} {
		it := newPostingsIterator(enc.buf[:cut], enc.count)
		n := 0
		for it.Next() {
			if n++; n > 100 {
				t.Fatalf("cut=%d: iterator spinning", cut)
			}
		}
		if !it.Exhausted() {
			t.Fatalf("cut=%d: truncated iterator not exhausted", cut)
		}
	}
	// Intact buffer, inflated count: the missing tail reads as truncation.
	it := newPostingsIterator(enc.buf, enc.count+40)
	n := 0
	for it.Next() {
		n++
	}
	if n > 140 {
		t.Fatalf("decoded %d postings from an inflated count", n)
	}
}

// TestPackedCorruptWidths rejects blocks whose stored bit-widths exceed
// any width a valid encoder can produce.
func TestPackedCorruptWidths(t *testing.T) {
	enc := postingsEncoder{}
	for d := int32(0); d < 64; d++ {
		enc.add(d*5, 2)
	}
	enc.finish()
	buf := append([]byte(nil), enc.buf...)
	buf[0] = 200 // docBits
	it := newPostingsIterator(buf, enc.count)
	if it.Next() {
		t.Fatal("decoded a block with a 200-bit doc width")
	}
}

// TestMergePackedRepacksExactly: merging packed segments re-packs blocks
// exactly — the merged segment is byte-identical (serialized) to a
// single-shot build over the same documents, block boundaries included.
func TestMergePackedRepacksExactly(t *testing.T) {
	mk := func(lo, hi int) *Segment {
		b := NewBuilder()
		for d := lo; d < hi; d++ {
			body := "common"
			if d%3 == 0 {
				body += " sparse"
			}
			b.AddDocument(fmt.Sprintf("doc%d", d), body, fmt.Sprintf("u%d", d), 1)
		}
		return b.Finalize()
	}
	single := mk(0, 900)
	parts := []*Segment{mk(0, 300), mk(300, 600), mk(600, 900)}
	merged, err := MergeSegments(parts)
	if err != nil {
		t.Fatal(err)
	}
	var wantBuf, gotBuf bytes.Buffer
	if _, err := single.WriteTo(&wantBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := merged.WriteTo(&gotBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantBuf.Bytes(), gotBuf.Bytes()) {
		t.Fatal("merged packed segment is not byte-identical to a single-shot build")
	}
}

// TestMergePackedMixedFormats merges segments held three ways — built
// in memory, read back from their serialized bytes, and opened lazily
// over them — and checks the output has postings and block maxima
// identical to a single-shot build.
func TestMergePackedMixedFormats(t *testing.T) {
	mk := func(lo, hi int) *Segment {
		b := NewBuilder()
		for d := lo; d < hi; d++ {
			body := "common"
			if d%3 == 0 {
				body += " sparse"
			}
			b.AddDocument(fmt.Sprintf("doc%d", d), body, fmt.Sprintf("u%d", d), 1)
		}
		return b.Finalize()
	}
	var lazyBytes bytes.Buffer
	if _, err := mk(600, 900).WriteTo(&lazyBytes); err != nil {
		t.Fatal(err)
	}
	lazy, _ := lazyFromBytes(t, lazyBytes.Bytes())
	merged, err := MergeSegments([]*Segment{mk(0, 300), roundTrip(t, mk(300, 600)), lazy})
	if err != nil {
		t.Fatal(err)
	}
	single := mk(0, 900)
	segmentsEquivalent(t, single, merged)
	if !reflect.DeepEqual(single.blockMaxes, merged.blockMaxes) {
		t.Fatal("merged block maxima differ from a single-shot build")
	}
}

// BenchmarkBlockDecode measures decode throughput per posting: a full
// traversal of a long list, the batch-decoded Next() the searcher hot
// loops sit on.
func BenchmarkBlockDecode(b *testing.B) {
	const n = 100000
	var enc postingsEncoder
	for i := 0; i < n; i++ {
		enc.add(int32(i*3), int32(i%15+1))
	}
	enc.finish()
	b.Run("packed", func(b *testing.B) {
		b.SetBytes(int64(len(enc.buf)))
		var sink int64
		for i := 0; i < b.N; i++ {
			it := newPostingsIterator(enc.buf, enc.count)
			for it.Next() {
				sink += int64(it.Freq())
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/posting")
		if sink == 0 {
			b.Fatal("no postings decoded")
		}
	})
}
