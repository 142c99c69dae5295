package blob

import (
	"fmt"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"websearchbench/internal/corpus"
	"websearchbench/internal/index"
	"websearchbench/internal/search"
	"websearchbench/internal/workload"
)

// corpusSegment builds a moderately sized corpus segment once per test
// binary: large enough that common terms cross the skip-list threshold,
// so the lazy path exercises real block-granular fetches.
var corpusSeg = func() func(t *testing.T) *index.Segment {
	var seg *index.Segment
	return func(t *testing.T) *index.Segment {
		t.Helper()
		if seg == nil {
			cfg := corpus.DefaultConfig()
			cfg.NumDocs = 2000
			s, err := index.BuildFromCorpus(cfg)
			if err != nil {
				t.Fatalf("corpus build: %v", err)
			}
			seg = s
		}
		return seg
	}
}()

// testQueries generates a mixed AND/OR stream with the standard
// workload generator.
func testQueries(t *testing.T, n int) []workload.Query {
	t.Helper()
	gen, err := workload.NewGenerator(workload.DefaultConfig(), corpus.NewVocabulary(corpus.DefaultConfig().VocabSize))
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	return gen.Generate(n)
}

func sameResults(t *testing.T, tag string, want, got search.Result) {
	t.Helper()
	if len(want.Hits) != len(got.Hits) {
		t.Fatalf("%s: %d hits, want %d", tag, len(got.Hits), len(want.Hits))
	}
	for i := range want.Hits {
		if want.Hits[i].Doc != got.Hits[i].Doc || want.Hits[i].Score != got.Hits[i].Score {
			t.Fatalf("%s: hit %d = {%d %v}, want {%d %v}", tag, i,
				got.Hits[i].Doc, got.Hits[i].Score, want.Hits[i].Doc, want.Hits[i].Score)
		}
	}
	if want.Matches != got.Matches {
		t.Fatalf("%s: matches = %d, want %d", tag, got.Matches, want.Matches)
	}
}

// TestRemoteTopKEquivalence is the subsystem's acceptance property: for
// every backend, pruning strategy, and query mode, the top-k served
// through a CachedSegmentSource — cold cache and warm cache — is
// identical to serving the same segment from local memory.
func TestRemoteTopKEquivalence(t *testing.T) {
	seg := corpusSeg(t)
	queries := testQueries(t, 120)

	srv := httptest.NewServer(NewServer(NewMemStore()))
	defer srv.Close()
	dirStore, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stores := []struct {
		name string
		st   Store
	}{
		{"mem", NewMemStore()},
		{"dir", dirStore},
		{"http", NewHTTPStore(srv.URL)},
	}
	strategies := []struct {
		name string
		opts func() search.Options
	}{
		{"maxscore", func() search.Options {
			o := search.DefaultOptions()
			o.DisableBlockMax = true
			return o
		}},
		{"blockmax", func() search.Options {
			return search.DefaultOptions()
		}},
	}

	for _, bk := range stores {
		pub := &Publisher{Store: bk.st, CreatedBy: "test"}
		m, err := pub.Publish([]PubSegment{{ID: 1, Seg: seg}})
		if err != nil {
			t.Fatalf("%s: publish: %v", bk.name, err)
		}
		src := NewCachedSegmentSource(bk.st, NewBlockCache(32<<20))
		snap, ok, err := src.LoadSnapshot()
		if err != nil || !ok {
			t.Fatalf("%s: LoadSnapshot: ok=%v err=%v", bk.name, ok, err)
		}
		// The lazy open must cost less than downloading the segment.
		if ms, ok := bk.st.(*MemStore); ok {
			if read := ms.Counters().BytesRead; read >= m.Segments[0].Size {
				t.Errorf("lazy open read %d bytes of a %d-byte segment", read, m.Segments[0].Size)
			}
		}
		if len(snap.Segments) != 1 || !snap.Segments[0].IsLazy() {
			t.Fatalf("%s: snapshot = %d segments, lazy=%v", bk.name, len(snap.Segments), snap.Segments[0].IsLazy())
		}
		for _, strat := range strategies {
			local := search.NewSearcher(seg, strat.opts())
			remote := search.NewSearcher(snap.Segments[0], strat.opts())
			for _, label := range []string{"cold", "warm"} {
				fetched := src.Stats().BytesFetched
				for i, q := range queries {
					pq := search.ParseQuery(local.Options().Analyzer, q.Text, q.Mode)
					tag := fmt.Sprintf("%s/%s/%s/query %d %q mode %v", bk.name, strat.name, label, i, q.Text, q.Mode)
					sameResults(t, tag, local.Search(pq), remote.Search(pq))
				}
				// The cache holds the whole working set, so a repeat
				// pass never goes back to the store.
				if got := src.Stats().BytesFetched - fetched; label == "warm" && got != 0 {
					t.Errorf("%s/%s: warm pass fetched %d bytes, want 0", bk.name, strat.name, got)
				}
			}
		}
	}
}

// TestRemoteTopKEquivalenceUnderFaults injects a transient fault on
// every other ranged read: the source's retry loop must absorb them
// with no effect on results.
func TestRemoteTopKEquivalenceUnderFaults(t *testing.T) {
	seg := corpusSeg(t)
	queries := testQueries(t, 60)
	st := NewMemStore()
	pub := &Publisher{Store: st, CreatedBy: "test"}
	if _, err := pub.Publish([]PubSegment{{ID: 1, Seg: seg}}); err != nil {
		t.Fatal(err)
	}
	src := NewCachedSegmentSource(st, NewBlockCache(32<<20))
	snap, ok, err := src.LoadSnapshot()
	if err != nil || !ok {
		t.Fatalf("LoadSnapshot: ok=%v err=%v", ok, err)
	}

	var calls atomic.Int64
	st.SetFault(func(op, key string) error {
		if op == "getrange" && calls.Add(1)%2 == 1 {
			return fmt.Errorf("injected transient fault")
		}
		return nil
	})
	defer st.SetFault(nil)

	opts := search.DefaultOptions()
	local := search.NewSearcher(seg, opts)
	remote := search.NewSearcher(snap.Segments[0], opts)
	for i, q := range queries {
		pq := search.ParseQuery(local.Options().Analyzer, q.Text, q.Mode)
		sameResults(t, fmt.Sprintf("faulted query %d %q", i, q.Text), local.Search(pq), remote.Search(pq))
	}
	stats := src.Stats()
	if stats.FetchRetries == 0 {
		t.Fatal("fault injection fired but no retries were recorded")
	}
	if stats.FetchFailures != 0 {
		t.Fatalf("FetchFailures = %d, want 0 (every fault was transient)", stats.FetchFailures)
	}
}

// TestOldGenerationReaderSurvivesSwap pins satellite semantics: a
// snapshot opened at generation g keeps answering queries — including
// cache-missing block fetches — after generation g+1 is published,
// swept with retention, and the cache is invalidated to g+1's keys.
func TestOldGenerationReaderSurvivesSwap(t *testing.T) {
	seg := corpusSeg(t)
	queries := testQueries(t, 60)
	st := NewMemStore()
	pub := &Publisher{Store: st, CreatedBy: "test", Retain: 2}
	if _, err := pub.Publish([]PubSegment{{ID: 1, Seg: seg}}); err != nil {
		t.Fatal(err)
	}
	src := NewCachedSegmentSource(st, NewBlockCache(32<<20))
	oldSnap, ok, err := src.LoadSnapshot()
	if err != nil || !ok {
		t.Fatalf("LoadSnapshot: ok=%v err=%v", ok, err)
	}

	// A new generation with different content arrives and the poller
	// invalidates the cache down to its keys — evicting every block the
	// old snapshot had warmed.
	m2, err := pub.Publish([]PubSegment{{ID: 2, Seg: testSegment("next-gen", 50)}})
	if err != nil {
		t.Fatal(err)
	}
	if evicted := src.Cache().InvalidateExcept(m2.Keys()); evicted == 0 {
		t.Log("note: old generation had no cached blocks to evict")
	}

	opts := search.DefaultOptions()
	local := search.NewSearcher(seg, opts)
	remote := search.NewSearcher(oldSnap.Segments[0], opts)
	for i, q := range queries {
		pq := search.ParseQuery(local.Options().Analyzer, q.Text, q.Mode)
		sameResults(t, fmt.Sprintf("post-swap query %d %q", i, q.Text), local.Search(pq), remote.Search(pq))
	}
	if st := src.Stats(); st.FetchFailures != 0 {
		t.Fatalf("old-generation reads failed %d times", st.FetchFailures)
	}
}

// TestSourceTombstonesRoundTrip publishes a segment with deletes and
// checks the snapshot carries them.
func TestSourceTombstonesRoundTrip(t *testing.T) {
	st := NewMemStore()
	pub := &Publisher{Store: st, CreatedBy: "test"}
	tomb := []byte{0b00001010, 0, 0, 0, 0, 0, 0, 0} // docs 1 and 3
	if _, err := pub.Publish([]PubSegment{{ID: 1, Seg: testSegment("del", 10), Tomb: tomb}}); err != nil {
		t.Fatal(err)
	}
	src := NewCachedSegmentSource(st, NewBlockCache(1<<20))
	snap, ok, err := src.LoadSnapshot()
	if err != nil || !ok {
		t.Fatalf("LoadSnapshot: ok=%v err=%v", ok, err)
	}
	if len(snap.Tombs) != 1 || len(snap.Tombs[0]) == 0 {
		t.Fatalf("snapshot tombs = %v", snap.Tombs)
	}
}

// TestSourceMissingBlobFails ensures a manifest referencing a deleted
// blob surfaces a hard open error instead of a silent empty segment.
func TestSourceMissingBlobFails(t *testing.T) {
	st := NewMemStore()
	pub := &Publisher{Store: st, CreatedBy: "test"}
	m, err := pub.Publish([]PubSegment{{ID: 1, Seg: testSegment("gone", 10)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(m.Segments[0].Key); err != nil {
		t.Fatal(err)
	}
	src := NewCachedSegmentSource(st, NewBlockCache(1<<20))
	if _, _, err := src.LoadSnapshot(); err == nil {
		t.Fatal("LoadSnapshot succeeded with its segment blob deleted")
	}
}
