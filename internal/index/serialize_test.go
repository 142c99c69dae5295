package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"websearchbench/internal/corpus"
)

func roundTrip(t *testing.T, s *Segment) *Segment {
	t.Helper()
	var buf bytes.Buffer
	n, err := s.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadSegment(&buf)
	if err != nil {
		t.Fatalf("ReadSegment: %v", err)
	}
	return got
}

func segmentsEquivalent(t *testing.T, a, b *Segment) {
	t.Helper()
	if a.NumDocs() != b.NumDocs() || a.NumTerms() != b.NumTerms() {
		t.Fatalf("counts differ: %d/%d vs %d/%d",
			a.NumDocs(), a.NumTerms(), b.NumDocs(), b.NumTerms())
	}
	if a.HasPositions() != b.HasPositions() {
		t.Fatal("positional flag differs")
	}
	if a.BM25() != b.BM25() {
		t.Fatal("BM25 params differ")
	}
	if a.AvgDocLen() != b.AvgDocLen() {
		t.Fatal("avg doc len differs")
	}
	if !reflect.DeepEqual(a.Terms(), b.Terms()) {
		t.Fatal("term lists differ")
	}
	for _, term := range a.Terms() {
		ta, _ := a.Term(term)
		tb, _ := b.Term(term)
		if ta != tb {
			t.Fatalf("term %q info differs: %+v vs %+v", term, ta, tb)
		}
		ia, _ := a.Postings(term)
		ib, _ := b.Postings(term)
		for ia.Next() {
			if !ib.Next() {
				t.Fatalf("term %q: postings truncated after round trip", term)
			}
			if ia.Doc() != ib.Doc() || ia.Freq() != ib.Freq() {
				t.Fatalf("term %q: posting differs", term)
			}
		}
		if ib.Next() {
			t.Fatalf("term %q: extra postings after round trip", term)
		}
		pa, ok := a.PositionsOf(term)
		if !ok {
			continue
		}
		pb, _ := b.PositionsOf(term)
		for pa.Next() {
			if !pb.Next() || pa.Doc() != pb.Doc() || !reflect.DeepEqual(pa.Positions(), pb.Positions()) {
				t.Fatalf("term %q doc %d: positions differ", term, pa.Doc())
			}
		}
		if pb.Next() {
			t.Fatalf("term %q: extra positional postings", term)
		}
	}
	for i := 0; i < a.NumDocs(); i++ {
		if a.Doc(int32(i)) != b.Doc(int32(i)) {
			t.Fatalf("doc %d stored fields differ", i)
		}
		if a.DocLen(int32(i)) != b.DocLen(int32(i)) {
			t.Fatalf("doc %d length differs", i)
		}
	}
}

func TestSerializeRoundTripTiny(t *testing.T) {
	s := buildTiny(t)
	segmentsEquivalent(t, s, roundTrip(t, s))
}

func TestSerializeRoundTripPositional(t *testing.T) {
	s := buildTiny(t, WithPositions())
	segmentsEquivalent(t, s, roundTrip(t, s))
}

func TestSerializeRoundTripCorpus(t *testing.T) {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 150
	cfg.VocabSize = 800
	cfg.MeanBodyTerms = 40
	s, err := BuildFromCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	segmentsEquivalent(t, s, roundTrip(t, s))
}

func TestSerializeEmptySegment(t *testing.T) {
	s := NewBuilder().Finalize()
	got := roundTrip(t, s)
	if got.NumDocs() != 0 || got.NumTerms() != 0 {
		t.Errorf("empty segment round trip: %d docs %d terms", got.NumDocs(), got.NumTerms())
	}
}

func TestReadSegmentBadMagic(t *testing.T) {
	if _, err := ReadSegment(bytes.NewReader([]byte("NOTANIDX--------"))); err != ErrBadFormat {
		t.Errorf("err = %v, want ErrBadFormat", err)
	}
}

func TestReadSegmentTruncated(t *testing.T) {
	s := buildTiny(t)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every strict prefix must fail cleanly, never panic.
	for _, frac := range []int{0, 1, 4, 8, len(full) / 4, len(full) / 2, len(full) - 1} {
		if _, err := ReadSegment(bytes.NewReader(full[:frac])); err == nil {
			t.Errorf("truncation at %d bytes: expected error", frac)
		}
	}
}

func TestReadSegmentShortReader(t *testing.T) {
	// A reader that errors mid-stream propagates the error.
	s := buildTiny(t)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	r := io.LimitReader(&buf, 20)
	if _, err := ReadSegment(r); err == nil {
		t.Error("expected error from short reader")
	}
}

func TestReadSegmentUnknownCompression(t *testing.T) {
	s := buildTiny(t)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[8] = 7 // encoding byte right after magic
	if _, err := ReadSegment(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("err = %v for an unknown encoding, want ErrBadFormat", err)
	}
}

func TestReadSegmentHugeCounts(t *testing.T) {
	// A tiny file claiming 2^28 documents must fail on its missing
	// bytes without first allocating count-sized slices.
	s := buildTiny(t)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// numDocs is the u32 at offset 8 (magic) + 1 (comp) + 1 (flags) + 16 (bm25).
	binary.LittleEndian.PutUint32(data[26:], 1<<28)
	if _, err := ReadSegment(bytes.NewReader(data)); err == nil {
		t.Error("expected error for inflated doc count")
	}
	binary.LittleEndian.PutUint32(data[26:], 1<<28+1)
	if _, err := ReadSegment(bytes.NewReader(data)); err == nil {
		t.Error("expected error for implausible doc count")
	}
}

// TestReadSegmentHugeListLength: a few-hundred-byte file whose
// dictionary claims a 2^28-byte posting list is rejected without
// allocating anything near the claim. Not parallel: it reads
// process-wide allocation counters.
func TestReadSegmentHugeListLength(t *testing.T) {
	data := hugeListFile()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadSegment(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 2^28-byte list length in a small file was accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("rejecting a %d-byte file allocated %d bytes", len(data), grew)
	}
}

// TestReadSegmentBadPositionsStream: a positions stream that is cut
// short or carries bytes past its last posting's positions is rejected
// at load, framed consistently in the dictionary or not.
func TestReadSegmentBadPositionsStream(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)-1] }},
		{"trailing", func(b []byte) []byte { return append(b, 0) }},
	} {
		p := tinyBuilder(t, WithPositions()).finish()
		i := slices.IndexFunc(p.lists, func(l termList) bool { return l.term == "gamma" })
		p.lists[i].pos = tc.edit(append([]byte(nil), p.lists[i].pos...))
		if _, err := ReadSegment(bytes.NewReader(p.write())); err == nil {
			t.Errorf("%s positions stream accepted", tc.name)
		}
	}
}

func TestReadSegmentCorruptPostingDelta(t *testing.T) {
	// Flip bytes inside the serialized postings region: the segment must
	// either fail to load or iterate only in-range, ordered docIDs.
	s := buildTiny(t)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for off := 0; off < len(full); off++ {
		data := append([]byte(nil), full...)
		data[off] ^= 0xff
		got, err := ReadSegment(bytes.NewReader(data))
		if err != nil {
			continue
		}
		n := int32(got.NumDocs())
		for id, term := range got.Terms() {
			it := got.PostingsByID(int32(id))
			last := int32(-1)
			for it.Next() {
				if d := it.Doc(); d <= last || d >= n {
					t.Fatalf("offset %d: term %q docID %d out of order/range", off, term, d)
				} else {
					last = d
				}
			}
		}
	}
}

func BenchmarkSerialize(b *testing.B) {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 500
	cfg.VocabSize = 2000
	cfg.MeanBodyTerms = 60
	s, err := BuildFromCorpus(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeserialize(b *testing.B) {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 500
	cfg.VocabSize = 2000
	cfg.MeanBodyTerms = 60
	s, err := BuildFromCorpus(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReadSegment(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
