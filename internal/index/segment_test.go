package index

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"websearchbench/internal/corpus"
)

// lookupSegment builds a segment over a 2000-document corpus and
// returns it with every dictionary term.
func lookupSegment(tb testing.TB) (*Segment, []string) {
	tb.Helper()
	cfg := corpus.DefaultConfig()
	cfg.NumDocs, cfg.MeanBodyTerms = 2000, 60
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	b := NewBuilder()
	gen.GenerateFunc(func(d corpus.Document) { b.AddCorpusDoc(d) })
	seg := b.Finalize()
	return seg, seg.Terms()
}

// TestTermLookup: the dictionary's hash index finds every term at its
// ID and no term it does not hold, tags and wrap-around included.
func TestTermLookup(t *testing.T) {
	seg, terms := lookupSegment(t)
	for id, term := range terms {
		if ti, ok := seg.Term(term); !ok || ti.ID != int32(id) {
			t.Fatalf("Term(%q) = %+v, %v; want ID %d", term, ti, ok, id)
		}
	}
	for i := 0; i < 20000; i++ {
		if miss := fmt.Sprintf("absent%d", i); func() bool { _, ok := seg.Term(miss); return ok }() {
			t.Fatalf("Term(%q) found an absent term", miss)
		}
	}
}

// BenchmarkTermLookup is the dictionary probe of every query term: hit
// looks up terms the segment holds, miss terms it does not.
func BenchmarkTermLookup(b *testing.B) {
	seg, terms := lookupSegment(b)
	misses := make([]string, len(terms))
	for i := range misses {
		misses[i] = fmt.Sprintf("absent%d", i)
	}
	for _, c := range []struct {
		name  string
		terms []string
	}{{"hit", terms}, {"miss", misses}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seg.Term(c.terms[i%len(c.terms)])
			}
		})
	}
}

// TestPostingsByIDIntoReuse: an iterator rebuilt in place over a used one
// is the iterator PostingsByID returns — every field but the stale block
// scratch arrays reset — and walks the same postings.
func TestPostingsByIDIntoReuse(t *testing.T) {
	seg, terms := lookupSegment(t)
	var it PostingsIterator
	for id := range terms {
		seg.PostingsByIDInto(&it, int32(id), true)
		fresh := seg.PostingsByID(int32(id))
		got, want := it, fresh
		got.bDocs, got.bFreqs, want.bDocs, want.bFreqs = [packedBlockLen]int32{}, [packedBlockLen]int32{}, [packedBlockLen]int32{}, [packedBlockLen]int32{}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("term %d: rebuilt iterator %+v, want %+v", id, got, want)
		}
		for fresh.Next() {
			if !it.Next() || it.Doc() != fresh.Doc() || it.Freq() != fresh.Freq() {
				t.Fatalf("term %d: rebuilt iterator diverges at doc %d", id, fresh.Doc())
			}
		}
		if it.Next() {
			t.Fatalf("term %d: rebuilt iterator outlives the list", id)
		}
		// Leave it mid-list for the next term's rebuild.
		seg.PostingsByIDInto(&it, int32(id), true)
		it.Next()
	}
}

// TestURLTitle: URLTitle returns Doc's URL and title in one allocation
// of their bytes, copying no snippet.
func TestURLTitle(t *testing.T) {
	seg, _ := lookupSegment(t)
	for d := int32(0); d < int32(seg.NumDocs()); d += 97 {
		doc := seg.Doc(d)
		url, title := seg.URLTitle(d)
		if url != doc.URL || title != doc.Title {
			t.Fatalf("doc %d: URLTitle = %q, %q; Doc = %q, %q", d, url, title, doc.URL, doc.Title)
		}
		if n := testing.AllocsPerRun(100, func() { url, title = seg.URLTitle(d) }); n != 1 {
			t.Fatalf("doc %d: %v allocations per URLTitle, want 1", d, n)
		}
		// The one allocation holds the two fields, rounded up to a size
		// class: well short of the snippet Doc copies as well.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			url, title = seg.URLTitle(d)
		}
		runtime.ReadMemStats(&after)
		if per, want := (after.TotalAlloc-before.TotalAlloc)/100, uint64(len(url)+len(title)); per < want || per >= want+32 {
			t.Fatalf("doc %d: %d bytes allocated per URLTitle, want %d rounded to a size class (snippet %d bytes)",
				d, per, want, len(doc.Snippet))
		}
	}
}
