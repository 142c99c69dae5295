package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"testing"
)

// postingsFromFuzz derives a valid posting list from raw fuzz bytes:
// alternating uvarints become (gap, freq) pairs. The first gap may be 0
// (docID 0 is legal); later gaps get +1 so docIDs stay strictly
// increasing. Gaps are taken mod 1<<30 so long inputs can still exercise
// near-maximal deltas; docIDs stay below exhaustedDoc, the iterator's
// end-of-list sentinel.
func postingsFromFuzz(data []byte) []posting {
	var ps []posting
	doc := int32(0)
	first := true
	for len(data) > 0 && len(ps) < 4096 {
		gap, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		data = data[n:]
		f, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		data = data[n:]
		g := int32(gap % (1 << 30))
		if first {
			doc = g
			first = false
		} else {
			if doc >= exhaustedDoc-g-1 {
				break // next docID would reach the sentinel
			}
			doc += g + 1
		}
		ps = append(ps, posting{doc: doc, freq: int32(f%(1<<20)) + 1})
	}
	return ps
}

// fuzzRoundTrip encodes the derived list and checks decode reproduces
// it exactly, including SkipTo landing on every sampled doc.
func fuzzRoundTrip(t *testing.T, data []byte) {
	ps := postingsFromFuzz(data)
	it := encodeAll(ps)
	for i, p := range ps {
		if !it.Next() {
			t.Fatalf("list truncated at posting %d/%d", i, len(ps))
		}
		if it.Doc() != p.doc || it.Freq() != p.freq {
			t.Fatalf("posting %d = (%d,%d), want (%d,%d)", i, it.Doc(), it.Freq(), p.doc, p.freq)
		}
	}
	if it.Next() {
		t.Fatal("decoded more postings than encoded")
	}
	// SkipTo from a fresh iterator must land exactly on sampled postings.
	for i := 0; i < len(ps); i += 1 + len(ps)/16 {
		sk := encodeAll(ps)
		if !sk.SkipTo(ps[i].doc) || sk.Doc() != ps[i].doc || sk.Freq() != ps[i].freq {
			t.Fatalf("SkipTo(%d) landed on (%d,%d)", ps[i].doc, sk.Doc(), sk.Freq())
		}
	}
}

// fuzzSeeds are shared corpus entries: empty input, a single posting at
// doc 0, a dense full block, block+1, and maximal-gap postings.
func fuzzSeeds(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1})
	dense := make([]byte, 0, 130)
	for i := 0; i < 65; i++ {
		dense = append(dense, 0, 1)
	}
	f.Add(dense)
	f.Add(binary.AppendUvarint(binary.AppendUvarint(nil, 1<<30-1), 3))
	var mixed []byte
	for i := 0; i < 100; i++ {
		mixed = binary.AppendUvarint(mixed, uint64(i*i%4096))
		mixed = binary.AppendUvarint(mixed, uint64(i%9))
	}
	f.Add(mixed)
}

// fuzzSegmentBytes serializes one small deterministic segment, plain or
// positional, the corpus the reader fuzzer mutates.
func fuzzSegmentBytes(opts ...BuilderOption) []byte {
	b := NewBuilder(opts...)
	docs := []struct{ title, body string }{
		{"alpha beta", "gamma delta epsilon alpha"},
		{"beta", "zeta eta theta beta beta"},
		{"iota kappa", "lambda mu alpha nu xi omicron"},
		{"pi rho", "sigma tau upsilon phi chi psi omega alpha"},
	}
	for i, d := range docs {
		b.AddDocument(d.title, d.body, "doc:"+string(rune('a'+i)), 0.5)
	}
	var buf bytes.Buffer
	if _, err := b.Finalize().WriteTo(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// hugeListFile is a one-term segment whose dictionary claims a 2^28-byte
// posting list: the file is a few hundred bytes, so a reader that sizes
// a buffer by the claim before reading allocates 268 MB for nothing.
func hugeListFile() []byte {
	b := NewBuilder()
	b.AddPreanalyzed(StoredDoc{URL: "u"}, []string{"t"}, []int32{1})
	var buf bytes.Buffer
	if _, err := b.Finalize().WriteTo(&buf); err != nil {
		panic(err)
	}
	data := buf.Bytes()
	l, err := ParseSegmentFooter(data[len(data)-SegmentFooterLen:])
	if err != nil {
		panic(err)
	}
	// The entry: term "t" (2 bytes), docFreq, collFreq, MaxScore, then
	// the list length, a one-byte varint.
	at := l.DictOff + 2 + 4 + 8 + 4
	out := append(append(append([]byte(nil), data[:at]...), binary.AppendUvarint(nil, 1<<28)...), data[at+1:]...)
	tail := out[len(out)-SegmentFooterLen:]
	binary.LittleEndian.PutUint64(tail[16:], uint64(l.PostOff+4))
	binary.LittleEndian.PutUint64(tail[24:], uint64(l.FileSize+4))
	return out
}

// overflowGapFile is a segment whose first packed block's firstGap is
// eleven 0xff bytes, a varint that overflows: a decoder that took the
// negative length binary.Uvarint reports as a width stepped backwards
// out of the block.
func overflowGapFile() []byte {
	b := NewBuilder()
	for d := 0; d < 100; d++ {
		b.AddPreanalyzed(StoredDoc{URL: "u"}, []string{"t"}, []int32{1})
	}
	var buf bytes.Buffer
	if _, err := b.Finalize().WriteTo(&buf); err != nil {
		panic(err)
	}
	data := buf.Bytes()
	l, err := ParseSegmentFooter(data[len(data)-SegmentFooterLen:])
	if err != nil {
		panic(err)
	}
	copy(data[l.PostOff+2:], bytes.Repeat([]byte{0xff}, 11)) // after docBits, freqBits
	return data
}

// openLazy opens data as a blob-served segment would be: footer, then
// the prefix it names, with the postings section behind a memReader.
func openLazy(data []byte) (*Segment, *memReader, error) {
	if len(data) < SegmentFooterLen {
		return nil, nil, io.ErrUnexpectedEOF
	}
	l, err := ParseSegmentFooter(data[len(data)-SegmentFooterLen:])
	if err != nil {
		return nil, nil, err
	}
	if l.FileSize != int64(len(data)) {
		return nil, nil, fmt.Errorf("footer says %d bytes, file is %d", l.FileSize, len(data))
	}
	rd := &memReader{post: data[l.PostOff : l.FileSize-SegmentFooterLen], cache: map[[2]int32][]byte{}}
	s, err := OpenLazySegment(data[:l.PostOff], l, rd)
	return s, rd, err
}

// mutate returns a copy of base with two bytes set and cut to cut bytes.
func mutate(base []byte, off1 int, v1 byte, off2 int, v2 byte, cut int) []byte {
	data := append([]byte(nil), base...)
	data[off1], data[off2] = v1, v2
	return data[:min(cut, len(data))]
}

// FuzzReadSegment opens every input both resident (ReadSegment) and
// lazy (OpenLazySegment over its footer's prefix, then the same
// validation of every list, read through a BlockReader): both must
// accept it or both reject it — never panic — and an accepted file must
// give the same postings, positions, block maxima and stored fields
// either way.
func FuzzReadSegment(f *testing.F) {
	plain, positional := fuzzSegmentBytes(), fuzzSegmentBytes(WithPositions())
	f.Add(plain)
	f.Add(positional)
	f.Add(hugeListFile())
	f.Add(overflowGapFile())
	f.Add(mutate(plain, 0, 0, 0, 0, 1000))
	f.Add(mutate(positional, 8, 0xff, 9, 0x7f, 1000))
	f.Add(mutate(plain, 40, 1, 41, 2, 50))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSegment(bytes.NewReader(data))
		lazy, _, lerr := openLazy(data)
		if lerr == nil {
			lerr = lazy.validate()
		}
		if (err == nil) != (lerr == nil) {
			t.Fatalf("resident open: %v; lazy open: %v", err, lerr)
		}
		if err != nil {
			return
		}
		segmentsEquivalent(t, s, lazy)
		if !reflect.DeepEqual(s.blockMaxes, lazy.blockMaxes) {
			t.Fatal("block maxima differ between resident and lazy opens")
		}
	})
}

// FuzzPositionalPostings round-trips a positional list derived from the
// fuzz input, then cuts its doc/freq bytes and its positions stream at
// points the input picks: a truncated list must end early without a
// panic, delivering only postings of the list with their positions.
func FuzzPositionalPostings(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		ps := postingsFromFuzz(data)
		for i := range ps {
			ps[i].freq = ps[i].freq%16 + 1
		}
		full := encodePositional(ps)
		if !positionalEqual(full, ps) {
			t.Fatal("positional list did not round-trip")
		}
		for k := 0; k < 4; k++ {
			docCut := (len(data)*13 + k*k*31) % (len(full.it.win) + 1)
			posCut := (len(data)*29 + k*17) % (len(full.stream) + 1)
			it := PositionsIterator{it: newPostingsIterator(full.it.win[:docCut], int32(len(ps))), stream: full.stream[:posCut]}
			n := 0
			for it.Next() {
				if n >= len(ps) || it.Doc() != ps[n].doc || it.Freq() != ps[n].freq {
					t.Fatalf("cut %d/%d: posting %d = (%d,%d)", docCut, posCut, n, it.Doc(), it.Freq())
				}
				if got, want := it.Positions(), positionsFor(ps[n]); !reflect.DeepEqual(got, want) {
					t.Fatalf("cut %d/%d: posting %d positions %v, want %v", docCut, posCut, n, got, want)
				}
				n++
			}
			if !it.Exhausted() {
				t.Fatalf("cut %d/%d: not exhausted", docCut, posCut)
			}
		}
	})
}

func FuzzPackedPostings(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRoundTrip(t, data)
	})
}

// skipTable walks a posting list and checkpoints every
// skipInterval-th posting, as the encoder does while it flushes blocks.
func skipTable(it PostingsIterator) []skipEntry {
	var table []skipEntry
	for i := int32(1); it.Next(); i++ {
		if i%skipInterval == 0 {
			table = append(table, skipEntry{doc: it.Doc(), pos: int32(it.pos)})
		}
	}
	return table
}

// FuzzSkipTo replays an op stream against a packed list built from a gap
// list, with its skip table attached (at any length: the iterator does
// not depend on the table's build threshold), and checks every call
// against the sorted reference. Each op byte picks a kind (op%5) and a
// distance (op/5): Next, a SkipTo onto a later posting, a SkipTo just past
// a later posting (several blocks ahead or past the end), a SkipTo at or
// below the current doc, or the block run up to a later posting followed
// by Next.
func FuzzSkipTo(f *testing.F) {
	dense := make([]byte, 0, 600)
	for i := 0; i < 300; i++ {
		dense = append(dense, byte(i%3), byte(i%7))
	}
	f.Add([]byte{}, []byte{1, 2, 3})
	f.Add(dense, []byte{0, 5, 9, 250, 6, 1, 255, 0, 3, 130})
	f.Add(dense[:256], []byte{254, 254, 254, 254, 0})
	f.Add(dense, []byte{0, 4, 44, 9, 6, 249, 4, 4})
	f.Fuzz(func(t *testing.T, gaps, ops []byte) {
		ref := postingsFromFuzz(gaps)
		it := encodeAll(ref)
		it.skips = skipTable(it)
		cur := -1 // index in ref of the iterator's posting
		for _, op := range ops {
			kind, dist := op%5, int(op/5)
			target := int32(-1) // Next
			switch j := max(cur, 0) + dist; {
			case kind == 0:
			case kind == 3:
				target = 0
				if cur >= 0 {
					target = max(0, ref[cur].doc-int32(dist))
				}
			case (kind == 1 || kind == 4) && j < len(ref):
				target = ref[j].doc
			case kind == 2 && j+7*dist < len(ref):
				target = ref[j+7*dist].doc + 1
			default: // past the last posting, computed wide, then capped
				wide := int64(exhaustedDoc) - int64(dist)
				if len(ref) > 0 {
					wide = min(wide, int64(ref[len(ref)-1].doc)+1+int64(dist))
				}
				target = int32(wide)
			}
			ok, err := replaySkipOp(&it, ref, &cur, target, kind == 4)
			if err != nil {
				t.Fatalf("op %#x: %v", op, err)
			}
			if !ok {
				return
			}
		}
	})
}
