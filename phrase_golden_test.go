package websearchbench

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"websearchbench/internal/blob"
	"websearchbench/internal/corpus"
	"websearchbench/internal/index"
	"websearchbench/internal/search"
	"websearchbench/internal/textproc"
)

// phraseGoldenFile holds the top-10 of every phrase query below on every
// way of serving a positional index, one line per (serving, mode, query):
// the hits as doc:scorebits, scores compared bit for bit.
const phraseGoldenFile = "testdata/phrase_golden.txt"

// phraseGoldenCorpus is the corpus every serving path indexes.
func phraseGoldenCorpus() corpus.Config {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 3000
	cfg.VocabSize = 2000
	return cfg
}

// phraseGoldenQueries picks phrase queries from the corpus text: 2- and
// 3-word phrases taken from document bodies (so they occur), alone, with
// loose terms, and two phrases together.
func phraseGoldenQueries(t *testing.T) []string {
	t.Helper()
	gen, err := corpus.NewGenerator(phraseGoldenCorpus())
	if err != nil {
		t.Fatal(err)
	}
	var bodies [][]string
	gen.GenerateFunc(func(d corpus.Document) {
		if len(bodies) < 12 {
			bodies = append(bodies, strings.Fields(d.Body))
		}
	})
	var qs []string
	for i, w := range bodies {
		qs = append(qs,
			fmt.Sprintf("%q", strings.Join(w[0:2], " ")),
			fmt.Sprintf("%q", strings.Join(w[3:6], " ")),
			fmt.Sprintf("%q %s", strings.Join(w[7:9], " "), w[10]),
			fmt.Sprintf("%s %q %s", w[11], strings.Join(w[12:15], " "), w[16]),
		)
		if i%3 == 0 {
			qs = append(qs, fmt.Sprintf("%q %q", strings.Join(w[17:19], " "), strings.Join(w[20:22], " ")))
		}
	}
	return qs
}

// phraseGoldenRows serves every query in both modes from a single
// positional segment, the merge of four positional segments, a
// 4-partition positional engine and a lazily opened blob copy of the
// single segment, and renders each top-10.
func phraseGoldenRows(t *testing.T) []string {
	t.Helper()
	cfg := phraseGoldenCorpus()
	single, err := index.BuildFromCorpus(cfg, index.WithPositions())
	if err != nil {
		t.Fatal(err)
	}
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var quarters []*index.Segment
	b := index.NewBuilder(index.WithPositions())
	gen.GenerateFunc(func(d corpus.Document) {
		b.AddCorpusDoc(d)
		if b.NumDocs() == cfg.NumDocs/4 {
			quarters = append(quarters, b.Finalize())
			b = index.NewBuilder(index.WithPositions())
		}
	})
	if len(quarters) != 4 || b.NumDocs() != 0 {
		t.Fatalf("cut %d quarters with %d documents left over, want 4 and 0", len(quarters), b.NumDocs())
	}
	merged, err := index.MergeSegments(quarters)
	if err != nil {
		t.Fatal(err)
	}
	st := blob.NewMemStore()
	if _, err := (&blob.Publisher{Store: st, CreatedBy: "test"}).Publish([]blob.PubSegment{{ID: 1, Seg: single}}); err != nil {
		t.Fatal(err)
	}
	snap, ok, err := blob.NewCachedSegmentSource(st, blob.NewBlockCache(64<<10)).LoadSnapshot()
	if err != nil || !ok {
		t.Fatalf("LoadSnapshot: ok=%v err=%v", ok, err)
	}
	lazy := snap.Segments[0]

	engines := map[search.Mode]*Engine{}
	for mode, conj := range map[search.Mode]bool{search.ModeOr: false, search.ModeAnd: true} {
		engines[mode], err = New(Config{Docs: cfg.NumDocs, VocabSize: cfg.VocabSize, Partitions: 4, Positions: true, Conjunctive: conj})
		if err != nil {
			t.Fatal(err)
		}
	}

	an := textproc.NewAnalyzer()
	var rows []string
	for _, raw := range phraseGoldenQueries(t) {
		for _, mode := range []search.Mode{search.ModeOr, search.ModeAnd} {
			q := search.ParseQuery(an, raw, mode)
			for _, sv := range []struct {
				name string
				seg  *index.Segment
			}{{"single", single}, {"merged", merged}, {"blob", lazy}} {
				res := search.NewSearcher(sv.seg, search.DefaultOptions()).Search(q)
				if res.Incomplete {
					t.Fatalf("%s %q: incomplete result", sv.name, raw)
				}
				hits := make([]string, len(res.Hits))
				for i, h := range res.Hits {
					hits[i] = fmt.Sprintf("%d:%016x", h.Doc, math.Float64bits(h.Score))
				}
				rows = append(rows, fmt.Sprintf("%s\t%v\t%s\t%s", sv.name, mode, raw, strings.Join(hits, " ")))
			}
			res := engines[mode].Search(raw)
			hits := make([]string, len(res))
			for i, r := range res {
				hits[i] = fmt.Sprintf("%s:%016x", r.URL, math.Float64bits(r.Score))
			}
			rows = append(rows, fmt.Sprintf("engine4\t%v\t%s\t%s", mode, raw, strings.Join(hits, " ")))
		}
	}
	return rows
}

// TestPhraseGolden: every phrase query's top-10 — documents and score
// bits — on every way of serving a positional index is the recorded one.
func TestPhraseGolden(t *testing.T) {
	f, err := os.Open(phraseGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := phraseGoldenRows(t)
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	nonEmpty := 0
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d:\n got %s\nwant %s", i, got[i], want[i])
		}
		if !strings.HasSuffix(got[i], "\t") {
			nonEmpty++
		}
	}
	if nonEmpty < len(want)/2 {
		t.Errorf("only %d of %d rows have hits: the queries no longer exercise phrase matching", nonEmpty, len(want))
	}
}
