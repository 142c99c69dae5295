package index

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"websearchbench/internal/corpus"
)

// buildSkippy builds a corpus segment big enough that common terms
// cross the skip-list threshold, so lazy reads are genuinely
// block-granular.
func buildSkippy(t testing.TB, opts ...BuilderOption) *Segment {
	t.Helper()
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 1200
	cfg.VocabSize = 2000
	cfg.MeanBodyTerms = 60
	s, err := BuildFromCorpus(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSegmentFooterLayout(t *testing.T) {
	s := buildSkippy(t)
	var buf bytes.Buffer
	n, err := s.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	layout, err := ParseSegmentFooter(data[len(data)-SegmentFooterLen:])
	if err != nil {
		t.Fatalf("ParseSegmentFooter: %v", err)
	}
	if layout.FileSize != n || layout.FileSize != int64(len(data)) {
		t.Fatalf("FileSize = %d, wrote %d", layout.FileSize, n)
	}
	if !(0 < layout.DocOff && layout.DocOff <= layout.DictOff &&
		layout.DictOff <= layout.PostOff && layout.PostOff <= layout.FileSize) {
		t.Fatalf("implausible section offsets: %+v", layout)
	}
}

func TestParseSegmentFooterRejectsGarbage(t *testing.T) {
	if _, err := ParseSegmentFooter(make([]byte, SegmentFooterLen-1)); err == nil {
		t.Error("short tail accepted")
	}
	if _, err := ParseSegmentFooter(make([]byte, SegmentFooterLen)); err == nil {
		t.Error("zeroed tail accepted")
	}
	s := buildTiny(t)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tail := append([]byte(nil), buf.Bytes()[buf.Len()-SegmentFooterLen:]...)
	tail[len(tail)-1] ^= 0xFF // corrupt the trailing magic
	if _, err := ParseSegmentFooter(tail); err == nil {
		t.Error("corrupted magic accepted")
	}
}

// TestRetiredFormatsRejected: a complete v02, v03 or v04 file — an
// empty segment, whose header those formats laid out exactly as v05 does
// and which had no footer — is refused with an error wrapping
// ErrBadFormat that names the version, not loaded.
func TestRetiredFormatsRejected(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewBuilder().Finalize().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"02", "03", "04"} {
		t.Run("v"+v, func(t *testing.T) {
			file := append([]byte(nil), buf.Bytes()[:buf.Len()-SegmentFooterLen]...)
			copy(file[6:8], v)
			_, err := ReadSegment(bytes.NewReader(file))
			if !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), "v"+v) {
				t.Fatalf("ReadSegment = %v, want an ErrBadFormat naming v%s", err, v)
			}
		})
	}
}

// memReader is a BlockReader over an in-memory postings section: an
// unbounded map for the cache, counters for what a test bounds, and an
// optional error for every read.
type memReader struct {
	post         []byte
	cache        map[[2]int32][]byte
	reads        int // runs read
	hits, misses int
	failWith     error
	// check, when set, sees every run before it is served.
	check func(run BlockRun)
}

func (m *memReader) Cached(term int32, block int) []byte {
	return m.cache[[2]int32{term, int32(block)}]
}

func (m *memReader) Needed(hits, misses int) { m.hits += hits; m.misses += misses }

func (m *memReader) ReadRuns(runs []BlockRun) {
	for i := range runs {
		run := &runs[i]
		if m.check != nil {
			m.check(*run)
		}
		if m.failWith != nil {
			run.Err = m.failWith
			continue
		}
		m.reads++
		off := run.Off
		for j, sz := range run.Sizes {
			blk := m.post[off : off+int64(sz) : off+int64(sz)]
			off += int64(sz)
			run.Blocks[j] = blk
			m.cache[[2]int32{run.Term, int32(run.First + j)}] = blk
		}
	}
}

// lazyFromBytes opens a serialized v05 segment through the lazy path,
// with a reader slicing the in-memory postings section.
func lazyFromBytes(t testing.TB, data []byte) (*Segment, *memReader) {
	t.Helper()
	seg, rd, err := openLazy(data)
	if err != nil {
		t.Fatalf("OpenLazySegment: %v", err)
	}
	return seg, rd
}

// TestLazySegmentEquivalence: a lazily opened segment, plain or
// positional, serves the same postings and positions as the resident one.
func TestLazySegmentEquivalence(t *testing.T) {
	for _, opts := range [][]BuilderOption{nil, {WithPositions()}} {
		s := buildSkippy(t, opts...)
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		lazy, rd := lazyFromBytes(t, buf.Bytes())
		if !lazy.IsLazy() {
			t.Fatal("segment not marked lazy")
		}
		segmentsEquivalent(t, s, lazy)
		if rd.reads == 0 {
			t.Fatal("equivalence walk issued no block reads")
		}
	}
}

func TestLazySegmentTinyAndEmpty(t *testing.T) {
	for _, s := range []*Segment{buildTiny(t), NewBuilder().Finalize()} {
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		lazy, _ := lazyFromBytes(t, buf.Bytes())
		segmentsEquivalent(t, s, lazy)
	}
}

// TestLazySegmentFetchFailure: a failing block read ends that posting
// list early without a crash — there is no error path out of an
// iterator — and marks the query it belongs to incomplete.
func TestLazySegmentFetchFailure(t *testing.T) {
	for _, opts := range [][]BuilderOption{nil, {WithPositions()}} {
		lazySegmentFetchFailure(t, buildSkippy(t, opts...))
	}
}

func lazySegmentFetchFailure(t *testing.T, s *Segment) {
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	lazy, rd := lazyFromBytes(t, buf.Bytes())
	rd.failWith = fmt.Errorf("store unreachable")
	for _, term := range s.Terms()[:min(20, len(s.Terms()))] {
		ti, ok := lazy.Term(term)
		if !ok {
			t.Fatalf("term %q missing from lazy dictionary", term)
		}
		q := lazy.NewLazyQuery()
		it := q.Postings(ti.ID, true)
		q.Prefetch(false)
		if it.Next() {
			t.Fatalf("term %q: a posting decoded from a failed read", term)
		}
		if !q.Incomplete() {
			t.Fatalf("term %q: failed read left the query complete", term)
		}
		if lazy.HasPositions() {
			q = lazy.NewLazyQuery()
			pit := q.Positions(ti.ID)
			q.Prefetch(true)
			if pit.Next() || !q.Incomplete() {
				t.Fatalf("term %q: failed positional read not reported", term)
			}
		}
	}
	if len(rd.cache) != 0 {
		t.Fatalf("%d blocks became resident from failed reads", len(rd.cache))
	}
}

func TestLazySegmentCannotSerialize(t *testing.T) {
	s := buildTiny(t)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	lazy, _ := lazyFromBytes(t, buf.Bytes())
	if _, err := lazy.WriteTo(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteTo on a lazy segment should fail")
	}
}

// TestV05CorruptSkipTableRejected flips a byte inside the dictionary
// section and expects the whole-stream reader to reject the segment
// (either the envelope of derived-vs-serialized skip comparison or a
// decode error) rather than serve wrong postings.
func TestV05CorruptSkipTableRejected(t *testing.T) {
	s := buildSkippy(t)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	layout, err := ParseSegmentFooter(data[len(data)-SegmentFooterLen:])
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a handful of bytes spread across the dictionary section.
	for i := 0; i < 8; i++ {
		cp := append([]byte(nil), data...)
		pos := layout.DictOff + (layout.PostOff-layout.DictOff)*int64(i)/8
		cp[pos] ^= 0xA5
		if _, err := ReadSegment(bytes.NewReader(cp)); err == nil {
			// A flipped byte can land in a term string and decode cleanly;
			// that is not a correctness failure. Only require that decoding
			// never panics (reaching here at all is the assertion).
			t.Logf("corruption at %d decoded cleanly (landed in non-structural bytes)", pos)
		}
	}
}
