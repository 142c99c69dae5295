package pipeline

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"websearchbench/internal/corpus"
	"websearchbench/internal/index"
	"websearchbench/internal/search"
)

func testCorpus(t testing.TB, n int) []corpus.Document {
	t.Helper()
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = n
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return gen.Generate()
}

func singleShot(docs []corpus.Document, opts ...index.BuilderOption) *index.Segment {
	b := index.NewBuilder(opts...)
	for _, d := range docs {
		b.AddCorpusDoc(d)
	}
	return b.Finalize()
}

func segmentBytes(t testing.TB, seg *index.Segment) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := seg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func globalStatsFor(seg *index.Segment) *search.CollectionStats {
	st := &search.CollectionStats{
		NumDocs:   int64(seg.NumDocs()),
		AvgDocLen: seg.AvgDocLen(),
		DocFreqs:  make(map[string]int64, len(seg.Terms())),
	}
	for _, term := range seg.Terms() {
		ti, _ := seg.Term(term)
		st.DocFreqs[term] = int64(ti.DocFreq)
	}
	return st
}

func hitsEquivalent(a, b []search.Hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Doc != b[i].Doc || math.Abs(a[i].Score-b[i].Score) > 1e-9 {
			return false
		}
	}
	return true
}

// sampleQueries draws random multi-term queries from the segment's own
// vocabulary, so AND queries have a fighting chance of matching.
func sampleQueries(seg *index.Segment, rng *rand.Rand, n int) []string {
	vocab := seg.Terms()
	qs := make([]string, n)
	for i := range qs {
		k := 1 + rng.Intn(3)
		var q bytes.Buffer
		for j := 0; j < k; j++ {
			if j > 0 {
				q.WriteByte(' ')
			}
			q.WriteString(vocab[rng.Intn(len(vocab))])
		}
		qs[i] = q.String()
	}
	return qs
}

// TestWorkersOneNoBudgetByteIdentical locks the cmd/indexer compatibility
// contract: Workers == 1 with no segment budget is exactly the
// pre-pipeline single-shot build.
func TestWorkersOneNoBudgetByteIdentical(t *testing.T) {
	docs := testCorpus(t, 400)
	want := segmentBytes(t, singleShot(docs))

	p := New(Config{Workers: 1})
	res, err := p.Run(FromDocs(docs))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 1 {
		t.Fatalf("got %d segments, want 1", len(res.Segments))
	}
	if got := segmentBytes(t, res.Segments[0]); !bytes.Equal(got, want) {
		t.Fatalf("serial pipeline output differs from single-shot build (%d vs %d bytes)", len(got), len(want))
	}
	if res.Docs != int64(len(docs)) {
		t.Fatalf("Docs = %d, want %d", res.Docs, len(docs))
	}
}

// TestParallelCompactByteIdentical is the core determinism property: for
// a fixed input order, the compacted parallel build is byte-for-byte the
// single-shot build — across worker counts, chunk budgets, merge fan-ins
// and plain or positional postings. Odd chunk sizes exercise ragged tails that
// never complete an aligned merge group.
func TestParallelCompactByteIdentical(t *testing.T) {
	docs := testCorpus(t, 1100)
	encodings := []struct {
		name string
		opts []index.BuilderOption
	}{
		{"packed", nil},
		{"positional", []index.BuilderOption{index.WithPositions()}},
	}
	for _, enc := range encodings {
		want := segmentBytes(t, singleShot(docs, enc.opts...))
		for _, cfg := range []Config{
			{Workers: 2, SegmentDocs: 128, MergeFanIn: 2},
			{Workers: 4, SegmentDocs: 173, MergeFanIn: 3},
			{Workers: 7, SegmentDocs: 64, MergeFanIn: 8},
		} {
			cfg.Compact = true
			cfg.BuilderOptions = enc.opts
			p := New(cfg)
			res, err := p.Run(FromDocs(docs))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", enc.name, cfg.Workers, err)
			}
			if len(res.Segments) != 1 {
				t.Fatalf("%s workers=%d: got %d segments, want 1", enc.name, cfg.Workers, len(res.Segments))
			}
			if got := segmentBytes(t, res.Segments[0]); !bytes.Equal(got, want) {
				t.Fatalf("%s workers=%d segdocs=%d fanin=%d: output differs from single-shot build",
					enc.name, cfg.Workers, cfg.SegmentDocs, cfg.MergeFanIn)
			}
		}
	}
}

// TestTieredOutputDeterministic runs the same non-compacted build twice
// and checks the segment set is structurally and byte-wise identical:
// which merges happened depends only on the chunk count and fan-in,
// never on worker scheduling.
func TestTieredOutputDeterministic(t *testing.T) {
	docs := testCorpus(t, 900)
	run := func() []*index.Segment {
		p := New(Config{Workers: 4, SegmentDocs: 100, MergeFanIn: 2})
		res, err := p.Run(FromDocs(docs))
		if err != nil {
			t.Fatal(err)
		}
		return res.Segments
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs produced %d vs %d segments", len(a), len(b))
	}
	var total int
	for i := range a {
		if a[i].NumDocs() != b[i].NumDocs() {
			t.Fatalf("segment %d: %d vs %d docs", i, a[i].NumDocs(), b[i].NumDocs())
		}
		if !bytes.Equal(segmentBytes(t, a[i]), segmentBytes(t, b[i])) {
			t.Fatalf("segment %d bytes differ between identical runs", i)
		}
		total += a[i].NumDocs()
	}
	if total != len(docs) {
		t.Fatalf("segments hold %d docs, want %d", total, len(docs))
	}
	// 9 chunks at fan-in 2 → 8 fold into one tier-3 segment, 1 tail.
	if len(a) != 2 {
		t.Fatalf("got %d segments, want 2 (tiered 8 + tail 1)", len(a))
	}
}

// TestTieredSearchEquivalence checks the tiered (non-compacted) segment
// set is searchable with results identical to the single-shot build:
// searching every segment under global collection statistics and merging
// the per-segment top-k by (score desc, global docID asc) yields exactly
// the single-index top-k, for AND and OR, plain and positional.
func TestTieredSearchEquivalence(t *testing.T) {
	docs := testCorpus(t, 800)
	rng := rand.New(rand.NewSource(23))
	for _, encOpts := range [][]index.BuilderOption{
		nil,
		{index.WithPositions()},
	} {
		single := singleShot(docs, encOpts...)
		stats := globalStatsFor(single)

		p := New(Config{Workers: 4, SegmentDocs: 97, MergeFanIn: 2, BuilderOptions: encOpts})
		res, err := p.Run(FromDocs(docs))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Segments) < 2 {
			t.Fatalf("want a multi-segment tiered result, got %d", len(res.Segments))
		}

		const topK = 10
		queries := sampleQueries(single, rng, 40)
		for _, mode := range []search.Mode{search.ModeOr, search.ModeAnd} {
			for _, raw := range queries {
				ref := search.NewSearcher(single, search.Options{TopK: topK, Stats: stats}).
					ParseAndSearch(raw, mode)

				var merged []search.Hit
				base := int32(0)
				for _, seg := range res.Segments {
					r := search.NewSearcher(seg, search.Options{TopK: topK, Stats: stats}).
						ParseAndSearch(raw, mode)
					for _, h := range r.Hits {
						merged = append(merged, search.Hit{Doc: base + h.Doc, Score: h.Score})
					}
					base += int32(seg.NumDocs())
				}
				sort.Slice(merged, func(i, j int) bool {
					if merged[i].Score != merged[j].Score {
						return merged[i].Score > merged[j].Score
					}
					return merged[i].Doc < merged[j].Doc
				})
				if len(merged) > topK {
					merged = merged[:topK]
				}
				if !hitsEquivalent(ref.Hits, merged) {
					t.Fatalf("mode=%v query=%q: tiered top-k differs from single-shot\nsingle: %v\ntiered: %v",
						mode, raw, ref.Hits, merged)
				}
			}
		}
	}
}

// TestStreamingSourceAndStats drives the pipeline the way cmd/indexer
// does — a producer goroutine feeding a bounded channel — while a second
// goroutine hammers Stats() concurrently with the build. Run under
// -race this is the pipeline's data-race canary; the final counters must
// also reconcile exactly.
func TestStreamingSourceAndStats(t *testing.T) {
	docs := testCorpus(t, 600)
	rng := rand.New(rand.NewSource(7))
	// Randomize only the order documents are *authored* in; the stream
	// order itself is whatever the producer sends, and determinism is
	// relative to that order, so shuffle then use the shuffled order for
	// both the pipeline and the reference build.
	rng.Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
	want := segmentBytes(t, singleShot(docs))

	var wantBytes int64
	for _, d := range docs {
		wantBytes += int64(len(d.Title) + len(d.Body))
	}

	ch := make(chan Doc, 16)
	go func() {
		defer close(ch)
		for _, d := range docs {
			ch <- Doc{Title: d.Title, Body: d.Body, URL: d.URL, Quality: d.Quality}
		}
	}()

	p := New(Config{Workers: 4, SegmentDocs: 50, MergeFanIn: 2, Compact: true})
	done := make(chan struct{})
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			st := p.Stats()
			if st.DocsIndexed < 0 || st.MergeBacklog < 0 {
				panic("negative pipeline counters")
			}
		}
	}()

	res, err := p.Run(FromChan(ch))
	close(done)
	poller.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Docs != int64(len(docs)) || res.Bytes != wantBytes {
		t.Fatalf("counters: docs=%d bytes=%d, want %d/%d", res.Docs, res.Bytes, len(docs), wantBytes)
	}
	st := p.Stats()
	if st.SegmentsCut < 2 {
		t.Fatalf("SegmentsCut = %d, want >= 2", st.SegmentsCut)
	}
	if st.TimeToFirstSegment <= 0 {
		t.Fatal("TimeToFirstSegment not recorded")
	}
	if got := segmentBytes(t, res.Segments[0]); !bytes.Equal(got, want) {
		t.Fatal("streamed parallel build differs from single-shot build over the same order")
	}
}

// TestByteBudget cuts on accumulated document bytes rather than count.
func TestByteBudget(t *testing.T) {
	docs := testCorpus(t, 300)
	p := New(Config{Workers: 2, SegmentBytes: 64 << 10, SegmentDocs: -1, MergeFanIn: 2})
	// SegmentDocs < 0 is normalized to 0 (bytes-only budget).
	if p.Config().SegmentDocs != 0 && p.Config().SegmentDocs != DefaultSegmentDocs {
		t.Fatalf("unexpected normalized SegmentDocs %d", p.Config().SegmentDocs)
	}
	res, err := p.Run(FromDocs(docs))
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for _, s := range res.Segments {
		total += s.NumDocs()
	}
	if total != len(docs) {
		t.Fatalf("segments hold %d docs, want %d", total, len(docs))
	}
	if p.Stats().SegmentsCut < 2 {
		t.Fatalf("byte budget produced %d segments, want >= 2", p.Stats().SegmentsCut)
	}
}

// TestEmptyStream: an empty source still yields one valid empty segment.
func TestEmptyStream(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(Config{Workers: workers, Compact: true})
		res, err := p.Run(FromDocs(nil))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Segments) != 1 || res.Segments[0].NumDocs() != 0 {
			t.Fatalf("workers=%d: want one empty segment, got %d segments", workers, len(res.Segments))
		}
	}
}

// TestFromCorpusMatchesFromDocs: the streaming generator source produces
// the same build as the materialized slice.
func TestFromCorpusMatchesFromDocs(t *testing.T) {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 350
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	docs := gen.Generate()
	want := segmentBytes(t, singleShot(docs))

	gen2, err := corpus.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := New(Config{Workers: 3, SegmentDocs: 80, MergeFanIn: 2, Compact: true})
	res, err := p.Run(FromCorpus(gen2))
	if err != nil {
		t.Fatal(err)
	}
	if got := segmentBytes(t, res.Segments[0]); !bytes.Equal(got, want) {
		t.Fatal("FromCorpus build differs from materialized-corpus build")
	}
}
