package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"websearchbench/internal/textproc"
)

// Queries build their iterators in place, one per term in a pooled
// array, so every byte of an iterator is memory each query term holds
// and walks over. The lazy read path keeps its state (held blocks,
// read-ahead window) in the list the iterator points to and never in
// the iterator, whose size is pinned here.
var _ [640]byte = [unsafe.Sizeof(PostingsIterator{})]byte{}

// randomListsSegment builds a segment whose lists have the given
// document frequencies, each over a random set of the n documents; list
// t is term "t%03d" (term ID t). A positional builder gets each document
// as text, every term repeated its frequency times, so it needs an
// analyzer that keeps those terms as they are. It also returns each
// list's postings in doc order, the reference the segment must serve.
func randomListsSegment(rng *rand.Rand, n int, dfs []int, opts ...BuilderOption) (*Segment, [][]posting) {
	terms := make([][]string, n)
	freqs := make([][]int32, n)
	refs := make([][]posting, len(dfs))
	for t, df := range dfs {
		for _, d := range rng.Perm(n)[:df] {
			f := int32(1 + rng.Intn(9))
			terms[d] = append(terms[d], fmt.Sprintf("t%03d", t))
			freqs[d] = append(freqs[d], f)
			refs[t] = append(refs[t], posting{int32(d), f})
		}
		sort.Slice(refs[t], func(i, j int) bool { return refs[t][i].doc < refs[t][j].doc })
	}
	b := NewBuilder(opts...)
	for d := range terms {
		if !b.positions {
			b.AddPreanalyzed(StoredDoc{URL: fmt.Sprint(d)}, terms[d], freqs[d])
			continue
		}
		var body strings.Builder
		for i, term := range terms[d] {
			body.WriteString(strings.Repeat(term+" ", int(freqs[d][i])))
		}
		b.AddDocument("", body.String(), fmt.Sprint(d), 1)
	}
	return b.Finalize(), refs
}

// blockRanges returns the byte range of every doc/freq block of term id
// within the postings section, from the segment's own skip table: the
// ranges the per-block reader this path replaced used to read one by
// one.
func blockRanges(s *Segment, post []byte, id int32) [][]byte {
	start := int64(s.terms[id].post)
	plen := int64(s.entry(id).plen)
	table := skipTableOf(s, id)
	var out [][]byte
	lo := int64(0)
	for b := 0; b <= len(table); b++ {
		hi := plen
		if b < len(table) {
			hi = int64(table[b].pos)
		}
		if hi > lo {
			out = append(out, post[start+lo:start+hi])
		}
		lo = hi
	}
	return out
}

// TestLazyRunsDeliverBlockBytes is the read path's property: whatever
// is resident beforehand and however a list is read — planned whole,
// planned by its first block and then walked, or jumped through with
// SkipTo — every run is a stretch of consecutive non-resident blocks,
// each block receives exactly the bytes of its own range, and the
// iterator decodes the postings of the resident segment. The document
// frequencies cover lists without a skip table, lists that end exactly
// on a block boundary (no tail block) and lists ending in a varint tail,
// on a plain and a positional segment, whose positions streams sit
// between the lists.
func TestLazyRunsDeliverBlockBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dfs := []int{1, 2, 63, 64, 127, 128, 129, 191, 192, 193, 256, 300, 640, 1000, 1999, 2000}
	for _, opts := range [][]BuilderOption{nil, {WithPositions(), WithAnalyzer(&textproc.Analyzer{DisableStemming: true})}} {
		s, _ := randomListsSegment(rng, 2000, dfs, opts...)
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 40; round++ {
			lazy, rd := lazyFromBytes(t, buf.Bytes())
			want := make(map[int32][][]byte)
			for id := range s.terms {
				want[int32(id)] = blockRanges(s, rd.post, int32(id))
				for b, blk := range want[int32(id)] {
					if rng.Intn(3) == 0 { // a partially resident list
						rd.cache[[2]int32{int32(id), int32(b)}] = blk
					}
				}
			}
			rd.check = func(run BlockRun) {
				blocks := want[run.Term]
				off := run.Off
				for j, sz := range run.Sizes {
					b := run.First + j
					if b >= len(blocks) {
						t.Fatalf("term %d: run reaches block %d of %d", run.Term, b, len(blocks))
					}
					if rd.Cached(run.Term, b) != nil {
						t.Fatalf("term %d: run re-reads resident block %d", run.Term, b)
					}
					if got := rd.post[off : off+int64(sz)]; !sameBacking(got, blocks[b]) {
						t.Fatalf("term %d block %d: run covers [%d,%d), not the block's own range", run.Term, b, off, off+int64(sz))
					}
					off += int64(sz)
				}
			}
			for id := range s.terms {
				id := int32(id)
				q := lazy.NewLazyQuery()
				it := q.Postings(id, true)
				ref := s.PostingsByID(id)
				switch round % 3 {
				case 0:
					q.Prefetch(true)
					before := rd.reads
					drainEqual(t, &ref, &it, 1)
					if rd.reads != before {
						t.Fatalf("term %d: a list planned whole read again while decoding", id)
					}
				case 1:
					q.Prefetch(false)
					drainEqual(t, &ref, &it, 1)
				default:
					q.Prefetch(false)
					drainEqual(t, &ref, &it, 1+rng.Intn(400))
				}
				if q.Incomplete() {
					t.Fatalf("term %d: query incomplete without a failed read", id)
				}
				// Whatever the query read is resident now, byte for byte.
				for b, blk := range want[id] {
					if got := rd.Cached(id, b); got != nil && !bytes.Equal(got, blk) {
						t.Fatalf("term %d block %d: resident bytes differ from the block's range", id, b)
					}
				}
			}
		}
	}
}

// sameBacking reports whether a and b are the same bytes of the same
// array.
func sameBacking(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// drainEqual walks want with Next and got with SkipTo in strides of at
// least stride documents (stride 1 is a plain Next walk on both) and
// requires the same postings.
func drainEqual(t *testing.T, want, got *PostingsIterator, stride int) {
	t.Helper()
	if stride == 1 {
		for want.Next() {
			if !got.Next() || got.Doc() != want.Doc() || got.Freq() != want.Freq() {
				t.Fatalf("lazy iterator at doc %d freq %d, want doc %d freq %d", got.Doc(), got.Freq(), want.Doc(), want.Freq())
			}
		}
		if got.Next() {
			t.Fatalf("lazy iterator has postings past the end of the list")
		}
		return
	}
	if !want.Next() || !got.Next() {
		return
	}
	for {
		target := want.Doc() + int32(stride)
		okW, okG := want.SkipTo(target), got.SkipTo(target)
		if okW != okG || (okW && (want.Doc() != got.Doc() || want.Freq() != got.Freq())) {
			t.Fatalf("SkipTo(%d): lazy (%v, doc %d), want (%v, doc %d)", target, okG, got.Doc(), okW, want.Doc())
		}
		if !okW {
			return
		}
	}
}

// TestLazyReadAheadIsLogarithmic: a list walked front to back after a
// first-block plan is read in a doubling window, so n blocks cost about
// log2(n) reads; a SkipTo jump reads the landing block alone and never
// the blocks jumped over.
func TestLazyReadAheadIsLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const docs = 6400 // one term in every document: 100 full blocks
	s, _ := randomListsSegment(rng, docs, []int{docs})
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	lazy, rd := lazyFromBytes(t, buf.Bytes())
	q := lazy.NewLazyQuery()
	it := q.Postings(0, true)
	q.Prefetch(false)
	ref := s.PostingsByID(0)
	drainEqual(t, &ref, &it, 1)
	// 1 planned read, then windows of 2, 4, ... 64 blocks cover 1..99.
	if rd.reads != 7 {
		t.Errorf("sequential walk of 100 blocks took %d reads, want 7", rd.reads)
	}
	if rd.hits != 0 || rd.misses != 100 {
		t.Errorf("needed %d hits, %d misses; want 0, 100 (read-ahead counts once, as a miss)", rd.hits, rd.misses)
	}

	lazy, rd = lazyFromBytes(t, buf.Bytes())
	q = lazy.NewLazyQuery()
	it = q.Postings(0, true)
	q.Prefetch(false)
	it.Next()
	it.SkipTo(64 * 50) // lands in block 49 or 50
	if rd.reads != 2 || len(rd.cache) != 2 {
		t.Errorf("a jump took %d reads and made %d blocks resident, want 2 and 2", rd.reads, len(rd.cache))
	}
	if rd.misses != 2 {
		t.Errorf("needed %d misses, want 2: skipped blocks are not needed", rd.misses)
	}
}
