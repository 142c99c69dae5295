package index

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"websearchbench/internal/textproc"
)

// buildLongList builds a segment with one very frequent term so its
// posting list qualifies for a skip table.
func buildLongList(t testing.TB, docs int, opts ...BuilderOption) *Segment {
	t.Helper()
	opts = append([]BuilderOption{
		WithAnalyzer(&textproc.Analyzer{DisableStemming: true}),
	}, opts...)
	b := NewBuilder(opts...)
	for i := 0; i < docs; i++ {
		body := "common"
		if i%3 == 0 {
			body += " sparse"
		}
		b.AddDocument("t", body, "u", 1)
	}
	return b.Finalize()
}

func TestSkipTableBuilt(t *testing.T) {
	s := buildLongList(t, 1000)
	ti, _ := s.Term("common")
	if ti.DocFreq != 1000 {
		t.Fatalf("df = %d", ti.DocFreq)
	}
	if len(skipTableOf(s, ti.ID)) == 0 {
		t.Fatal("no skip table for a 1000-posting list")
	}
	// Short lists get none.
	sp, _ := s.Term("sparse")
	if len(skipTableOf(s, sp.ID)) == 0 {
		t.Log("sparse list has a table too (df >= threshold), fine")
	}
	// Entry i checkpoints posting (i+1)·skipInterval; "common" is in
	// every document, so that posting is document (i+1)·skipInterval−1.
	table := skipTableOf(s, ti.ID)
	for i, e := range table {
		if want := int32((i+1)*skipInterval - 1); e.doc != want {
			t.Errorf("entry %d checkpoints doc %d, want %d", i, e.doc, want)
		}
	}
}

func TestSkipToWithTableMatchesLinear(t *testing.T) {
	s := buildLongList(t, 2000)
	targets := []int32{0, 1, 63, 64, 65, 500, 1234, 1999, 2000}
	for _, target := range targets {
		fast, _ := s.Postings("common")
		slow, _ := s.postings("common", false)
		fok := fast.SkipTo(target)
		sok := slow.SkipTo(target)
		if fok != sok {
			t.Fatalf("SkipTo(%d): ok %v vs %v", target, fok, sok)
		}
		if fok && (fast.Doc() != slow.Doc() || fast.Freq() != slow.Freq()) {
			t.Fatalf("SkipTo(%d): (%d,%d) vs (%d,%d)",
				target, fast.Doc(), fast.Freq(), slow.Doc(), slow.Freq())
		}
	}
}

// replaySkipOp makes one call on it — Next for a negative target,
// SkipTo(target) otherwise, or with run, Run(target) and then Next — and
// checks the answer against ref, the list's postings in doc order. *cur,
// the index in ref of the iterator's posting, moves the way the call must
// move the iterator. A run must be every posting from the current one up
// to target that lies in the current block, the packedBlockLen-long
// block holding *cur. It reports whether the iterator still holds a posting, and how the call
// disagreed with ref, if it did.
func replaySkipOp(it *PostingsIterator, ref []posting, cur *int, target int32, run bool) (bool, error) {
	var ok bool
	switch {
	case run:
		docs, freqs := it.Run(target)
		want := 0
		if *cur >= 0 && *cur < len(ref) && ref[*cur].doc < target {
			end := min(len(ref), (*cur/packedBlockLen+1)*packedBlockLen)
			want = sort.Search(end-*cur, func(k int) bool { return ref[*cur+k].doc >= target })
		}
		if len(docs) != want || len(freqs) != want {
			return false, fmt.Errorf("Run(%d) returned %d postings, want %d from posting %d", target, len(docs), want, *cur)
		}
		for j := range docs {
			if p := ref[*cur+j]; docs[j] != p.doc || freqs[j] != p.freq {
				return false, fmt.Errorf("Run(%d)[%d] = (%d,%d), want posting %d (%d,%d)", target, j, docs[j], freqs[j], *cur+j, p.doc, p.freq)
			}
		}
		*cur += max(want-1, 0)
		ok = it.Next()
		*cur++
	case target < 0:
		ok = it.Next()
		*cur++
	default:
		ok = it.SkipTo(target)
		if *cur < 0 || ref[*cur].doc < target {
			*cur = sort.Search(len(ref), func(k int) bool { return ref[k].doc >= target })
		}
	}
	switch {
	case ok != (*cur < len(ref)):
		return ok, fmt.Errorf("ok = %v, want %v", ok, !ok)
	case !ok && !it.Exhausted():
		return false, errors.New("false without exhausting the iterator")
	case ok && (it.Doc() != ref[*cur].doc || it.Freq() != ref[*cur].freq):
		return true, fmt.Errorf("at (%d,%d), want posting %d (%d,%d)", it.Doc(), it.Freq(), *cur, ref[*cur].doc, ref[*cur].freq)
	}
	return ok, nil
}

// Property: any sequence of Next/SkipTo calls and block runs, with or
// without the skip table, walks exactly the reference postings — SkipTo
// landing on the first posting at or above its target, staying put on a
// target at or below the current doc, and reporting the end past the last
// one, Run returning the current block's postings below its target — for
// resident, positional and lazy lists, and every list shape: a varint
// tail alone and one full block plus a tail (no skip table below
// skipMinDocFreq), exactly two full blocks (a table, no tail), many
// blocks plus a tail, and a list in every document (every gap packs at
// width 0). The reference is the generated postings.
func TestSkipEquivalenceProperty(t *testing.T) {
	const docs = 3000
	dfs := []int{40, 100, skipMinDocFreq, 1500, docs}
	build := func(opts ...BuilderOption) (*Segment, [][]posting) {
		return randomListsSegment(rand.New(rand.NewSource(17)), docs, dfs, opts...)
	}
	packed, refs := build()
	positional, _ := build(WithPositions(), WithAnalyzer(&textproc.Analyzer{DisableStemming: true}))
	segs := map[string]*Segment{"packed": packed, "positional": positional}
	for _, name := range []string{"packed", "positional"} {
		var buf bytes.Buffer
		if _, err := segs[name].WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		segs["lazy-"+name], _ = lazyFromBytes(t, buf.Bytes())
	}
	names := []string{"packed", "positional", "lazy-packed", "lazy-positional"}
	f := func(seed int64, which, list uint8, withSkips bool) bool {
		s := segs[names[int(which)%len(names)]]
		l := int(list) % len(refs)
		ref, term := refs[l], fmt.Sprintf("t%03d", l)
		it, _ := s.Postings(term)
		if !withSkips {
			it, _ = s.postings(term, false)
		}
		rng := rand.New(rand.NewSource(seed))
		// A block of this list spans about blockSpan documents; strides
		// reach from inside one block to several blocks ahead.
		blockSpan := skipInterval*docs/len(ref) + 1
		cur := -1 // index in ref of the iterator's posting
		for op := 0; op < 80; op++ {
			target := int32(-1) // Next
			run := false
			if rng.Intn(3) != 0 {
				run = rng.Intn(4) == 0
				target = 0
				if cur >= 0 {
					target = ref[cur].doc
				}
				switch r := rng.Intn(10); {
				case r == 0: // past the end
					target = ref[len(ref)-1].doc + 1 + int32(rng.Intn(blockSpan))
				case r == 1: // at or below the current doc
					target = max(0, target-int32(rng.Intn(blockSpan)))
				case r < 5: // inside the current block, mostly
					target += int32(rng.Intn(blockSpan/4 + 2))
				default: // up to several blocks ahead
					target += int32(rng.Intn(6 * blockSpan))
				}
			}
			ok, err := replaySkipOp(&it, ref, &cur, target, run)
			if err != nil {
				t.Logf("%s %s op %d: %v", names[int(which)%len(names)], term, op, err)
				return false
			}
			if !ok {
				return true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestSkipToReadsOnlyLandingBlocks: SkipTo decodes a block only if it
// holds the posting the call returns, so a cold lazy packed list reads
// nothing for a target inside the decoded block and reads no block it
// jumps over. Jumps land at least two blocks apart: a miss on the block
// right after the last one read is sequential and earns read-ahead.
func TestSkipToReadsOnlyLandingBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s, refs := randomListsSegment(rng, 6000, []int{2500})
	ref := refs[0]
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	lazy, rd := lazyFromBytes(t, buf.Bytes())
	read := map[int]bool{}
	rd.check = func(run BlockRun) {
		for j := range run.Sizes {
			read[run.First+j] = true
		}
	}
	returned := map[int]bool{}
	it := lazy.PostingsByID(0)
	skipTo := func(k int) {
		t.Helper()
		target := ref[k].doc
		if k > 0 { // anywhere in the gap above the previous posting
			target -= int32(rng.Intn(int(ref[k].doc - ref[k-1].doc)))
		}
		if !it.SkipTo(target) || it.Doc() != ref[k].doc || it.Freq() != ref[k].freq {
			t.Fatalf("SkipTo(%d) = (%d,%d), want posting %d (%d,%d)", target, it.Doc(), it.Freq(), k, ref[k].doc, ref[k].freq)
		}
		returned[k/skipInterval] = true
	}
	for b := 1 + rng.Intn(2); b*skipInterval < len(ref); b += 2 + rng.Intn(4) {
		end := min((b+1)*skipInterval, len(ref))
		k := b*skipInterval + rng.Intn(end-b*skipInterval)
		skipTo(k)
		reads := rd.reads
		for k += 1 + rng.Intn(8); k < end; k += 1 + rng.Intn(8) {
			skipTo(k)
		}
		if rd.reads != reads {
			t.Fatalf("block %d: SkipTo inside the decoded block read %d runs", b, rd.reads-reads)
		}
	}
	if len(read) == 0 {
		t.Fatal("the walk read nothing")
	}
	for b := range read {
		if !returned[b] {
			t.Errorf("block %d was read but SkipTo returned none of its postings", b)
		}
	}
}

func TestSkipsSurviveSerialization(t *testing.T) {
	s := buildLongList(t, 1000)
	got := roundTrip(t, s)
	ti, _ := got.Term("common")
	if len(skipTableOf(got, ti.ID)) == 0 {
		t.Fatal("skip tables not rebuilt after deserialization")
	}
	fast, _ := got.Postings("common")
	if !fast.SkipTo(777) || fast.Doc() != 777 {
		t.Fatalf("SkipTo after round trip -> %d", fast.Doc())
	}
}

func BenchmarkSkipToWithTable(b *testing.B) {
	s := buildLongList(b, 20000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		it, _ := s.Postings("common")
		for target := int32(0); target < 20000; target += 500 {
			it.SkipTo(target)
		}
	}
}

func BenchmarkSkipToLinear(b *testing.B) {
	s := buildLongList(b, 20000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		it, _ := s.postings("common", false)
		for target := int32(0); target < 20000; target += 500 {
			it.SkipTo(target)
		}
	}
}
