package index

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"websearchbench/internal/corpus"
)

// segmentSHA returns the hex sha256 of s's serialized bytes.
func segmentSHA(t *testing.T, s *Segment) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// goldenCorpus is the corpus `indexer -docs 3000` builds.
func goldenCorpus() corpus.Config {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 3000
	return cfg
}

// TestSegmentBytesGolden pins the bytes every constructor emits: a
// built segment, plain and positional, a merge of four consecutive
// quarters of the same corpus (which must equal the single build) and
// a merge that drops every seventh document. The plain build is the file
// `indexer -docs 3000 -workers 1` writes.
func TestSegmentBytesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 3000-document corpus four times")
	}
	const (
		plain      = "8d0579d313f774e601b58f8b9ee8316e088a255a80729bfff7e61872afd89ffc"
		positional = "5236b1761e3277da52665fcba6b4e505fb40401cb6ce2d5ea3c81ffec5b15207"
		filtered   = "2cc2e59cb318dcc9f97c78154a4a42f10a4ba356c3af3eb969e8c9550d1e23ff"
	)
	cfg := goldenCorpus()
	s, err := BuildFromCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := segmentSHA(t, s); got != plain {
		t.Errorf("plain build sha256 %s, want %s", got, plain)
	}
	p, err := BuildFromCorpus(cfg, WithPositions())
	if err != nil {
		t.Fatal(err)
	}
	if got := segmentSHA(t, p); got != positional {
		t.Errorf("positional build sha256 %s, want %s", got, positional)
	}

	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var parts []*Segment
	b := NewBuilder()
	gen.GenerateFunc(func(d corpus.Document) {
		b.AddCorpusDoc(d)
		if b.NumDocs() == cfg.NumDocs/4 {
			parts = append(parts, b.Finalize())
			b = NewBuilder()
		}
	})
	merged, err := MergeSegments(parts)
	if err != nil {
		t.Fatal(err)
	}
	if got := segmentSHA(t, merged); got != plain {
		t.Errorf("merge of 4 sha256 %s, want %s (the single build)", got, plain)
	}
	drop := make([]func(int32) bool, len(parts))
	for i := range drop {
		drop[i] = func(d int32) bool { return d%7 == 3 }
	}
	out, _, err := MergeSegmentsFiltered(parts, drop)
	if err != nil {
		t.Fatal(err)
	}
	if got := segmentSHA(t, out); got != filtered {
		t.Errorf("filtered merge sha256 %s, want %s", got, filtered)
	}
}

// heapProbe holds the segment whose heap TestSegmentHeapNearFile
// measures, so that dropping it is one store the compiler cannot elide.
var heapProbe *Segment

// retainedHeap returns the live heap that heapProbe alone keeps
// reachable, and drops it.
func retainedHeap() uint64 {
	var with, without runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&with)
	heapProbe = nil
	runtime.GC()
	runtime.ReadMemStats(&without)
	return with.HeapAlloc - without.HeapAlloc
}

// TestSegmentHeapNearFile: a segment costs about its file in memory,
// whether built or read: the bench's partition shape (10 000 documents,
// 30 000-word vocabulary, 250 terms a document) may hold at most 1.15
// times its file size of heap after Finalize and after ReadSegment.
// Not parallel: it reads process-wide heap statistics.
func TestSegmentHeapNearFile(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10 000-document segment")
	}
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 10000
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder()
	gen.GenerateFunc(func(d corpus.Document) { b.AddCorpusDoc(d) })
	heapProbe = b.Finalize()
	var buf bytes.Buffer
	if _, err := heapProbe.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	file := float64(buf.Len())
	built := float64(retainedHeap())
	if heapProbe, err = ReadSegment(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	read := float64(retainedHeap())
	t.Logf("file %.2f MB; heap after Finalize %.2f MB (%.2fx), after ReadSegment %.2f MB (%.2fx)",
		file/1e6, built/1e6, built/file, read/1e6, read/file)
	const limit = 1.15
	if built > limit*file {
		t.Errorf("heap after Finalize is %.2fx the file, want <= %.2fx", built/file, limit)
	}
	if read > limit*file {
		t.Errorf("heap after ReadSegment is %.2fx the file, want <= %.2fx", read/file, limit)
	}
}

// skipTableOf returns term id's skip table.
func skipTableOf(s *Segment, id int32) []skipEntry {
	table, _ := s.skipsOf(id, s.entry(id).DocFreq)
	return table
}

// blockMaxesOf returns term id's block maxima.
func blockMaxesOf(s *Segment, id int32) []float32 {
	_, maxes := s.skipsOf(id, s.entry(id).DocFreq)
	return maxes
}
