package live

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"websearchbench/internal/corpus"
	"websearchbench/internal/search"
)

// raceEnabled is set by raceflag_test.go in -race builds, where sync.Pool
// drops a quarter of the items put back, so pooled paths allocate.
var raceEnabled bool

// memtableTwins returns two indexes holding the same documents with the
// same keys deleted: one still answers from its memtable, the other
// flushed everything into one segment before the deletes, so its
// tombstones hide the same documents under the same collection
// statistics. Both give every document the same snapshot docID.
func memtableTwins(t *testing.T, seed int64, deletes bool) (mem, seg *Index, vocab *corpus.Vocabulary) {
	t.Helper()
	cfg := corpus.DefaultConfig()
	cfg.NumDocs, cfg.VocabSize, cfg.MeanBodyTerms, cfg.Seed = 300, 400, 40, seed
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	docs := gen.Generate()
	mem = NewIndex(Config{MemtableMaxDocs: 1 << 20})
	seg = NewIndex(Config{MemtableMaxDocs: 1 << 20})
	for _, li := range []*Index{mem, seg} {
		for _, d := range docs {
			if err := li.Add(d.URL, d.Title, d.Body, d.Quality); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := seg.Flush(); err != nil {
		t.Fatal(err)
	}
	if deletes {
		// Under the reclamation threshold, so no merge rewrites the
		// flushed segment.
		rng := rand.New(rand.NewSource(seed))
		for _, i := range rng.Perm(len(docs))[:len(docs)/8] {
			for _, li := range []*Index{mem, seg} {
				if _, err := li.Delete(docs[i].URL); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return mem, seg, gen.Vocabulary()
}

// TestMemtableMatchesFlushedSegment: for random OR and AND queries and k
// from 1 to 50, with and without tombstones, a snapshot answering from
// its memtable returns the top-k of the same documents flushed into one
// segment — scores within 1e-9, tie runs compared as sets (sameRanking).
func TestMemtableMatchesFlushedSegment(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		for _, deletes := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed-%d/deletes-%v", seed, deletes), func(t *testing.T) {
				mem, seg, vocab := memtableTwins(t, seed, deletes)
				defer mem.Close()
				defer seg.Close()
				ms, ss := mem.Acquire(), seg.Acquire()
				defer ms.Release()
				defer ss.Release()
				if ms.NumSegments() != 0 || ss.NumSegments() != 1 || len(ss.mems) != 1 || ss.mems[0].upTo != 0 {
					t.Fatalf("want all documents in the memtable and in one segment: %d and %d segments",
						ms.NumSegments(), ss.NumSegments())
				}
				rng := rand.New(rand.NewSource(seed))
				for trial := 0; trial < 300; trial++ {
					terms := make([]string, 1+rng.Intn(4))
					for i := range terms {
						// Mix frequent words (long lists, ties) and rare ones.
						if rng.Intn(2) == 0 {
							terms[i] = vocab.Word(rng.Intn(20))
						} else {
							terms[i] = vocab.Word(rng.Intn(vocab.Size()))
						}
					}
					mode := search.ModeOr
					if rng.Intn(2) == 0 {
						mode = search.ModeAnd
					}
					k := 1 + rng.Intn(50)
					raw := strings.Join(terms, " ")
					got, want := ms.SearchText(raw, mode, k), ss.SearchText(raw, mode, k)
					if !sameRanking(got, want) {
						t.Fatalf("query %q (%v, k=%d):\n memtable %+v\n  segment %+v", raw, mode, k, got, want)
					}
				}
			})
		}
	}
}

// TestMemViewSearchAllocationFree: once its pooled accumulators and the
// Result's Hits array are warm, a memtable view answers a query without
// allocating, in either mode.
func TestMemViewSearchAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	li, _, vocab := memtableTwins(t, 3, true)
	defer li.Close()
	snap := li.Acquire()
	defer snap.Release()
	mv := snap.mems[len(snap.mems)-1]
	a := snap.core.Analyzer()
	for _, mode := range []search.Mode{search.ModeOr, search.ModeAnd} {
		q := search.ParseQuery(a, vocab.Word(0)+" "+vocab.Word(2)+" "+vocab.Word(7), mode)
		var res search.Result
		mv.SearchIntoShared(q, &res, 10, nil)
		if len(res.Hits) == 0 {
			t.Fatalf("%v: no hits", mode)
		}
		if n := testing.AllocsPerRun(50, func() { mv.SearchIntoShared(q, &res, 10, nil) }); n != 0 {
			t.Errorf("%v: %v allocs per warm memtable query, want 0", mode, n)
		}
	}
}

// TestSnapshotURLTitle: a snapshot resolves a docID's URL and title as
// Doc does, from a segment in one allocation and from a memtable, whose
// stored fields are in memory already, in none.
func TestSnapshotURLTitle(t *testing.T) {
	mem, seg, _ := memtableTwins(t, 3, false)
	defer mem.Close()
	defer seg.Close()
	for _, li := range []*Index{mem, seg} {
		snap := li.Acquire()
		for d := int32(0); d < 300; d++ {
			doc := snap.Doc(d)
			if url, title := snap.URLTitle(d); url != doc.URL || title != doc.Title {
				t.Fatalf("doc %d: URLTitle = %q, %q; Doc = %q, %q", d, url, title, doc.URL, doc.Title)
			}
		}
		want := 1.0 // the segment copies the two fields out of its image
		if snap.NumSegments() == 0 {
			want = 0
		}
		if n := testing.AllocsPerRun(50, func() { snap.URLTitle(7) }); n != want {
			t.Errorf("%d segments: %v allocations per URLTitle, want %v", snap.NumSegments(), n, want)
		}
		snap.Release()
	}
}
