package pipeline

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"sync"
	"testing"

	"websearchbench/internal/corpus"
	"websearchbench/internal/index"
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

func singleShot(docs []corpus.Document) *index.Segment {
	b := index.NewBuilder()
	for _, d := range docs {
		b.AddCorpusDoc(d)
	}
	return b.Finalize()
}

// stream yields docs in order, the way a generator feeds Run.
func stream(docs []corpus.Document) func(func(corpus.Document)) {
	return func(yield func(corpus.Document)) {
		for _, d := range docs {
			yield(d)
		}
	}
}

func segmentBytes(t testing.TB, seg *index.Segment) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := seg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWorkersOneNoBudgetByteIdentical locks the cmd/indexer -workers 1
// contract: with no segment budget, one Builder consumes the whole
// stream and nothing is merged.
func TestWorkersOneNoBudgetByteIdentical(t *testing.T) {
	docs := testCorpus(t, 400)
	want := segmentBytes(t, singleShot(docs))

	p := New(Config{Workers: 1})
	seg, err := p.Run(stream(docs))
	if err != nil {
		t.Fatal(err)
	}
	if got := segmentBytes(t, seg); !bytes.Equal(got, want) {
		t.Fatalf("one-worker output differs from single-shot build (%d vs %d bytes)", len(got), len(want))
	}
	if st := p.Stats(); st.SegmentsCut != 1 || st.DocsIndexed != int64(len(docs)) {
		t.Fatalf("SegmentsCut = %d, DocsIndexed = %d; want 1, %d", st.SegmentsCut, st.DocsIndexed, len(docs))
	}
}

// TestParallelCompactByteIdentical is the determinism contract, pinned:
// `indexer -docs 3000` is the same file at every worker count and chunk
// size, and the one index.TestSegmentBytesGolden pins for a single
// Builder. (3, 100) cuts 30 chunks into one 30-way merge.
func TestParallelCompactByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 3000-document corpus four times")
	}
	const want = "8d0579d313f774e601b58f8b9ee8316e088a255a80729bfff7e61872afd89ffc"
	docs := testCorpus(t, 3000)
	for _, tc := range []struct {
		cfg    Config
		chunks int64
	}{
		{Config{Workers: 1}, 1},
		{Config{Workers: 2}, 2},
		{Config{Workers: 4, SegmentDocs: 256}, 12},
		{Config{Workers: 3, SegmentDocs: 100}, 30},
	} {
		p := New(tc.cfg)
		seg, err := p.Run(stream(docs))
		if err != nil {
			t.Fatalf("%+v: %v", tc.cfg, err)
		}
		sum := sha256.Sum256(segmentBytes(t, seg))
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%+v: sha256 %s, want %s", tc.cfg, got, want)
		}
		if got := p.Stats().SegmentsCut; got != tc.chunks {
			t.Errorf("%+v: SegmentsCut = %d, want %d", tc.cfg, got, tc.chunks)
		}
	}
}

// TestStreamingSourceAndStats drives the pipeline from a stream while a
// second goroutine hammers Stats() concurrently with the build. Run
// under -race this is the pipeline's data-race canary; the final
// counters must also reconcile exactly.
func TestStreamingSourceAndStats(t *testing.T) {
	docs := testCorpus(t, 600)
	rng := rand.New(rand.NewSource(7))
	// Determinism is relative to the stream order, so shuffle and use the
	// shuffled order for both the pipeline and the reference build.
	rng.Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
	want := segmentBytes(t, singleShot(docs))

	var wantBytes int64
	for _, d := range docs {
		wantBytes += int64(len(d.Title) + len(d.Body))
	}

	p := New(Config{Workers: 4, SegmentDocs: 50})
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
			if st := p.Stats(); st.DocsIndexed < 0 || st.Elapsed < 0 {
				t.Error("negative pipeline counters")
				return
			}
		}
	}()

	seg, err := p.Run(stream(docs))
	close(done)
	poller.Wait()
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.DocsIndexed != int64(len(docs)) || st.BytesIndexed != wantBytes {
		t.Fatalf("counters: docs=%d bytes=%d, want %d/%d", st.DocsIndexed, st.BytesIndexed, len(docs), wantBytes)
	}
	if st.SegmentsCut != 12 {
		t.Fatalf("SegmentsCut = %d, want 12", st.SegmentsCut)
	}
	if st.Elapsed <= 0 || p.Stats().Elapsed != st.Elapsed {
		t.Fatalf("Elapsed %v, then %v: want a positive duration frozen once Run returns", st.Elapsed, p.Stats().Elapsed)
	}
	if got := segmentBytes(t, seg); !bytes.Equal(got, want) {
		t.Fatal("streamed parallel build differs from single-shot build over the same order")
	}
}

// TestEmptyStream: an empty stream still yields one valid empty segment.
func TestEmptyStream(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(Config{Workers: workers})
		seg, err := p.Run(stream(nil))
		if err != nil {
			t.Fatal(err)
		}
		if seg.NumDocs() != 0 || p.Stats().SegmentsCut != 0 {
			t.Fatalf("workers=%d: want one empty segment and no chunks, got %d docs, %d chunks",
				workers, seg.NumDocs(), p.Stats().SegmentsCut)
		}
	}
}

// TestFromCorpusMatchesFromDocs: streaming the generator straight into
// Run produces the same build as the materialized corpus.
func TestFromCorpusMatchesFromDocs(t *testing.T) {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 350
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := segmentBytes(t, singleShot(gen.Generate()))

	gen2, err := corpus.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := New(Config{Workers: 3, SegmentDocs: 80}).Run(gen2.GenerateFunc)
	if err != nil {
		t.Fatal(err)
	}
	if got := segmentBytes(t, seg); !bytes.Equal(got, want) {
		t.Fatal("generator-fed build differs from materialized-corpus build")
	}
}
