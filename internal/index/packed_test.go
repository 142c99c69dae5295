package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"websearchbench/internal/textproc"
)

// scalarUnpack is the byte-at-a-time decoder the width kernels replaced,
// kept as their reference: len(dst) width-bit values from src, or -1 if
// src is too short or the width is implausible.
func scalarUnpack(dst []int32, src []byte, width uint8) int {
	if width == 0 {
		clear(dst)
		return 0
	}
	if width > maxPackedWidth {
		return -1
	}
	need := (len(dst)*int(width) + 7) / 8
	if len(src) < need {
		return -1
	}
	var acc uint64
	var nbits uint
	off := 0
	for i := range dst {
		for nbits < uint(width) {
			acc |= uint64(src[off]) << nbits
			off++
			nbits += 8
		}
		dst[i] = int32(acc & (1<<width - 1))
		acc >>= width
		nbits -= uint(width)
	}
	return need
}

// FuzzUnpack checks unpackInto at every width against appendPacked and
// the scalar reference: 63 values (a doc-gap section) or 64 (a frequency
// section) drawn from data, unpacked from a src exactly as long as the
// packed values, from one with trailing bytes (where every group goes
// through a kernel), and from shorter ones, which must fail with -1.
// Widths 32–39 must fail too.
func FuzzUnpack(f *testing.F) {
	for w := 0; w < 40; w++ {
		data := make([]byte, 4*64+8)
		rand.New(rand.NewSource(int64(w))).Read(data)
		f.Add(data, uint8(w), w%2 == 0)
	}
	f.Fuzz(func(t *testing.T, data []byte, width uint8, full bool) {
		width %= 40
		n := 63
		if full {
			n = 64
		}
		vals := make([]int32, n)
		for i := range vals {
			var word [4]byte
			copy(word[:], data[min(4*i, len(data)):])
			vals[i] = int32(uint64(binary.LittleEndian.Uint32(word[:])) & (1<<min(width, 32) - 1))
		}
		packed := appendPacked(nil, vals, min(width, maxPackedWidth))
		if width <= maxPackedWidth && len(packed) != (n*int(width)+7)/8 {
			t.Fatalf("width %d: appendPacked wrote %d bytes for %d values", width, len(packed), n)
		}
		srcs := [][]byte{packed, append(append([]byte(nil), packed...), data...)}
		for cut := len(packed) - 1; cut >= 0 && cut >= len(packed)-9; cut-- {
			srcs = append(srcs, packed[:cut])
		}
		for _, src := range srcs {
			got, want := make([]int32, n), make([]int32, n)
			for i := range got {
				got[i], want[i] = -1, -1 // width 0 must clear
			}
			used, wantUsed := unpackInto(got, src, width), scalarUnpack(want, src, width)
			if used != wantUsed {
				t.Fatalf("width %d, %d values, src %d bytes: used %d, reference %d", width, n, len(src), used, wantUsed)
			}
			if used < 0 {
				if width <= maxPackedWidth && len(src) >= len(packed) {
					t.Fatalf("width %d: unpacking %d values from %d bytes failed", width, n, len(src))
				}
				continue
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, vals) {
				t.Fatalf("width %d, src %d bytes: unpacked %v, reference %v, packed %v", width, len(src), got, want, vals)
			}
		}
	})
}

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

// TestDecodePathsMatchPostings: every posting of every list of a random
// segment, held resident and opened lazily, plain and positional, reads
// as the postings the segment was built from through each way of moving
// an iterator — Next, SkipTo, Run and the positions iterator — whether
// its frequency is asked at every posting, at some, or only after the
// iterator has moved on past blocks whose frequencies were never decoded.
func TestDecodePathsMatchPostings(t *testing.T) {
	const docs = 2000
	dfs := []int{1, 63, 64, 65, 128, 129, 300, 1000, docs}
	build := func(opts ...BuilderOption) (*Segment, [][]posting) {
		return randomListsSegment(rand.New(rand.NewSource(41)), docs, dfs, opts...)
	}
	plain, refs := build()
	positional, _ := build(WithPositions(), WithAnalyzer(&textproc.Analyzer{DisableStemming: true}))
	segs := map[string]*Segment{"resident": plain, "positional": positional}
	for name, s := range map[string]*Segment{"lazy": plain, "lazy-positional": positional} {
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		segs[name], _ = lazyFromBytes(t, buf.Bytes())
	}
	rng := rand.New(rand.NewSource(43))
	for name, s := range segs {
		for l, ref := range refs {
			id := int32(l)
			for _, freqEvery := range []int{1, 3, 200} {
				ask := func() bool { return rng.Intn(freqEvery) == 0 }
				check := func(how string, it *PostingsIterator, i int) {
					t.Helper()
					if it.Doc() != ref[i].doc {
						t.Fatalf("%s list %d %s: posting %d is doc %d, want %d", name, l, how, i, it.Doc(), ref[i].doc)
					}
					if ask() && it.Freq() != ref[i].freq {
						t.Fatalf("%s list %d %s: posting %d (doc %d) has freq %d, want %d", name, l, how, i, ref[i].doc, it.Freq(), ref[i].freq)
					}
				}

				it := s.PostingsByID(id)
				for i := range ref {
					if !it.Next() {
						t.Fatalf("%s list %d Next: ends at posting %d of %d", name, l, i, len(ref))
					}
					check("Next", &it, i)
				}
				if it.Next() {
					t.Fatalf("%s list %d Next: postings past the end", name, l)
				}

				it = s.PostingsByID(id)
				for i := 0; i < len(ref); i += 1 + rng.Intn(150) {
					if !it.SkipTo(ref[i].doc) {
						t.Fatalf("%s list %d SkipTo(%d): false", name, l, ref[i].doc)
					}
					check("SkipTo", &it, i)
				}

				it = s.PostingsByID(id)
				for i := 0; it.Next(); i++ {
					if rng.Intn(2) == 0 {
						check("Next", &it, i)
						continue
					}
					docs, freqs := it.Run(ref[i].doc + 1 + int32(rng.Intn(200)))
					for j := range docs {
						if docs[j] != ref[i+j].doc || freqs[j] != ref[i+j].freq {
							t.Fatalf("%s list %d Run: posting %d is (%d,%d), want (%d,%d)", name, l, i+j, docs[j], freqs[j], ref[i+j].doc, ref[i+j].freq)
						}
					}
					i += len(docs) - 1
				}

				if !s.HasPositions() {
					continue
				}
				p := s.positionsByID(id)
				for i := range ref {
					if !p.Next() {
						t.Fatalf("%s list %d positions: ends at posting %d of %d", name, l, i, len(ref))
					}
					check("positions", &p.it, i)
					if got := p.Positions(); len(got) != int(ref[i].freq) {
						t.Fatalf("%s list %d positions: posting %d has %d positions, want %d", name, l, i, len(got), ref[i].freq)
					}
				}
			}
		}
	}
}

// TestSkipToLeavesFrequenciesUndecoded: a SkipTo that lands in a full
// block leaves its frequency section packed until Freq asks, and the
// first Freq decodes it once for the whole block.
func TestSkipToLeavesFrequenciesUndecoded(t *testing.T) {
	ps := make([]posting, 4*packedBlockLen)
	for i := range ps {
		ps[i] = posting{doc: int32(3 * i), freq: int32(1 + i%11)}
	}
	it := encodeAll(ps)
	for i := range it.bFreqs {
		it.bFreqs[i] = -1
	}
	target := ps[2*packedBlockLen+5].doc
	if !it.Next() || !it.SkipTo(target) || it.Doc() != target {
		t.Fatalf("SkipTo(%d) landed on %d", target, it.Doc())
	}
	if !it.freqsPending {
		t.Fatal("SkipTo decoded the landing block's frequencies")
	}
	for _, f := range it.bFreqs {
		if f != -1 {
			t.Fatalf("frequencies written before any Freq: %v", it.bFreqs)
		}
	}
	if got := it.Freq(); got != ps[2*packedBlockLen+5].freq {
		t.Fatalf("Freq = %d, want %d", got, ps[2*packedBlockLen+5].freq)
	}
	if it.freqsPending {
		t.Fatal("Freq left the block's frequencies pending")
	}
	it.bFreqs[packedBlockLen-1] = -2 // a second decode would overwrite it
	for i := 2*packedBlockLen + 6; i < 3*packedBlockLen-1; i++ {
		if !it.Next() || it.Freq() != ps[i].freq {
			t.Fatalf("posting %d: freq %d, want %d", i, it.Freq(), ps[i].freq)
		}
	}
	if !it.Next() || it.Freq() != -2 {
		t.Fatal("the block's frequencies were decoded twice")
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
