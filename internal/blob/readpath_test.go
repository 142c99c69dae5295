package blob

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"websearchbench/internal/index"
	"websearchbench/internal/search"
)

// plannedDocs is the size of plannedSegment: "common" is in every
// document, a list of plannedDocs/64 full blocks.
const plannedDocs = 6400

// plannedSegment builds a segment whose read pattern a test can
// predict: "common" in every document, "third", "fifth" and "seventh"
// in every 3rd, 5th and 7th (all multi-block lists), and "rare" with a
// high frequency in a dozen documents 300 apart, the tenth of them
// document 2700 — where a top-10 OR of "common rare" stops needing
// "common" as a source of candidates.
func plannedSegment() *index.Segment {
	b := index.NewBuilder()
	for d := 0; d < plannedDocs; d++ {
		terms, freqs := []string{"common"}, []int32{1}
		for _, m := range []struct {
			term  string
			every int
		}{{"third", 3}, {"fifth", 5}, {"seventh", 7}} {
			if d%m.every == 1 {
				terms, freqs = append(terms, m.term), append(freqs, 2)
			}
		}
		if d%300 == 0 && d <= 3300 {
			terms, freqs = append(terms, "rare"), append(freqs, 5)
		}
		b.AddPreanalyzed(index.StoredDoc{URL: fmt.Sprint(d)}, terms, freqs)
	}
	return b.Finalize()
}

// openPlanned publishes seg to a fresh MemStore and opens it lazily
// through a cold cache.
func openPlanned(t *testing.T, seg *index.Segment) (*MemStore, *CachedSegmentSource, *index.Segment) {
	t.Helper()
	st := NewMemStore()
	if _, err := (&Publisher{Store: st, CreatedBy: "test"}).Publish([]PubSegment{{ID: 1, Seg: seg}}); err != nil {
		t.Fatal(err)
	}
	src := NewCachedSegmentSource(st, NewBlockCache(32<<20))
	snap, ok, err := src.LoadSnapshot()
	if err != nil || !ok {
		t.Fatalf("LoadSnapshot: ok=%v err=%v", ok, err)
	}
	return st, src, snap.Segments[0]
}

func orQuery(terms ...string) search.Query {
	return search.Query{Terms: terms, Mode: search.ModeOr}
}

// TestQueryPlanRoundTrips bounds what a query costs the store. A cold
// exhaustive k-term OR is planned once: at most k ranged reads per
// segment, all in flight together, so it takes about one store latency
// and not k; its warm repeat reads nothing. A pruned OR reads a list it
// walks in a doubling window and never the blocks it skips: O(log n)
// reads and strictly fewer bytes than the exhaustive evaluation. A cold
// phrase query is planned like the exhaustive OR: every list it touches,
// positions streams included, in one round of at most one read per list.
func TestQueryPlanRoundTrips(t *testing.T) {
	seg := plannedSegment()
	exhaustive := search.Options{TopK: 10}

	st, src, lazy := openPlanned(t, seg)
	const latency = 50 * time.Millisecond
	st.Latency = latency
	q4 := orQuery("common", "third", "fifth", "seventh")
	want := search.NewSearcher(seg, exhaustive).Search(q4)
	remote := search.NewSearcher(lazy, exhaustive)
	before, start := st.Counters(), time.Now()
	got := remote.Search(q4)
	elapsed, after := time.Since(start), st.Counters()
	sameResults(t, "cold exhaustive", want, got)
	if n := after.GetRanges - before.GetRanges; n < 1 || n > int64(len(q4.Terms)) {
		t.Errorf("cold %d-term OR issued %d ranged reads, want 1..%d", len(q4.Terms), n, len(q4.Terms))
	}
	// Four reads one after another would take 4 x latency.
	if elapsed >= 2*latency+latency/2 {
		t.Errorf("cold %d-term OR took %v at %v per read: the reads did not overlap", len(q4.Terms), elapsed, latency)
	}
	if stats := src.Stats(); stats.RangedReads != after.GetRanges-before.GetRanges || stats.BlocksFetched <= stats.RangedReads || stats.Misses != stats.BlocksFetched || stats.Hits != 0 {
		t.Errorf("cold stats %+v: want every block a miss, several blocks per read", stats)
	}
	before = after
	sameResults(t, "warm exhaustive", want, remote.Search(q4))
	if n := st.Counters().GetRanges - before.GetRanges; n != 0 {
		t.Errorf("warm repeat issued %d ranged reads, want 0", n)
	}
	if stats := src.Stats(); stats.Hits != stats.Misses {
		t.Errorf("warm repeat: %d hits after %d misses, want as many: each block is needed once per query", stats.Hits, stats.Misses)
	}

	q2 := orQuery("common", "rare")
	st, _, lazy = openPlanned(t, seg)
	before = st.Counters()
	sameResults(t, "cold exhaustive common+rare", search.NewSearcher(seg, exhaustive).Search(q2), search.NewSearcher(lazy, exhaustive).Search(q2))
	whole := st.Counters().BytesRead - before.BytesRead

	st, src, lazy = openPlanned(t, seg)
	before = st.Counters()
	sameResults(t, "cold pruned common+rare", search.NewSearcher(seg, search.DefaultOptions()).Search(q2), search.NewSearcher(lazy, search.DefaultOptions()).Search(q2))
	after = st.Counters()
	const blocks, log2Blocks = plannedDocs / 64, 7
	if n := after.GetRanges - before.GetRanges; n > log2Blocks+int64(len(q2.Terms)) {
		t.Errorf("pruned OR over a %d-block list issued %d ranged reads, want <= %d", blocks, n, log2Blocks+len(q2.Terms))
	}
	if pruned := after.BytesRead - before.BytesRead; pruned >= whole {
		t.Errorf("pruned OR read %d bytes, the exhaustive one %d: skipped blocks were read", pruned, whole)
	}
	if stats := src.Stats(); stats.BlocksFetched >= blocks || stats.Misses > stats.BlocksFetched {
		t.Errorf("pruned stats %+v: want fewer than %d blocks read and no more needed than read", stats, blocks)
	}

	pos := phraseSegment()
	st, _, lazy = openPlanned(t, pos)
	st.Latency = latency
	remote = search.NewSearcher(lazy, exhaustive)
	qp := search.ParseQuery(remote.Options().Analyzer, `"alpha beta" gamma`, search.ModeOr)
	want = search.NewSearcher(pos, exhaustive).Search(qp)
	if len(want.Hits) == 0 {
		t.Fatal("phrase query matches nothing on the resident segment")
	}
	before, start = st.Counters(), time.Now()
	got = remote.Search(qp)
	elapsed, after = time.Since(start), st.Counters()
	sameResults(t, "cold phrase", want, got)
	if n := after.GetRanges - before.GetRanges; n < 1 || n > 3 {
		t.Errorf("cold phrase query over 3 lists issued %d ranged reads, want 1..3", n)
	}
	if elapsed >= 2*latency {
		t.Errorf("cold phrase query took %v at %v per read: the reads did not overlap", elapsed, latency)
	}
}

// phraseSegment is a positional segment of 3000 documents in which
// "alpha" and "beta" (every document) are adjacent in that order in
// every other one and "gamma" is in every third: three multi-block lists.
func phraseSegment() *index.Segment {
	b := index.NewBuilder(index.WithPositions())
	for d := 0; d < 3000; d++ {
		body := "alpha beta"
		if d%2 == 1 {
			body = "beta alpha"
		}
		if d%3 == 0 {
			body += " gamma"
		}
		b.AddDocument("", body+" filler", fmt.Sprint(d), 1)
	}
	return b.Finalize()
}

// TestExhaustedReadIsIncomplete: when a posting read fails every
// attempt, the list it belongs to ends early, so the result says
// Incomplete instead of passing for exact; the failed read caches
// nothing, and once the store is back the same query is exact again.
func TestExhaustedReadIsIncomplete(t *testing.T) {
	seg := plannedSegment()
	q := orQuery("common", "third", "fifth", "seventh")
	for _, tc := range []struct {
		name string
		opts search.Options
		// failFrom is the ranged read of the query at which the store
		// goes down: 1 fails the whole plan, 2 fails in the middle of it.
		failFrom int64
	}{
		{"exhaustive/all", search.Options{TopK: 10}, 1},
		{"exhaustive/mid-run", search.Options{TopK: 10}, 2},
		{"pruned/demand", search.DefaultOptions(), 5},
	} {
		st, src, lazy := openPlanned(t, seg)
		src.MaxAttempts = 2
		want := search.NewSearcher(seg, tc.opts).Search(q)
		remote := search.NewSearcher(lazy, tc.opts)

		var calls atomic.Int64
		st.SetFault(func(op, key string) error {
			if op == "getrange" && calls.Add(1) >= tc.failFrom {
				return fmt.Errorf("injected outage")
			}
			return nil
		})
		got := remote.Search(q)
		st.SetFault(nil)
		stats := src.Stats()
		if !got.Incomplete {
			t.Errorf("%s: %d reads failed for good and the result is not Incomplete", tc.name, stats.FetchFailures)
		}
		if stats.FetchFailures == 0 || stats.FetchRetries == 0 {
			t.Errorf("%s: stats %+v, want retries and failures", tc.name, stats)
		}
		if stats.Entries != stats.BlocksFetched {
			t.Errorf("%s: %d blocks resident, %d read successfully: a failed read was cached", tc.name, stats.Entries, stats.BlocksFetched)
		}
		if tc.failFrom == 1 && stats.Entries != 0 {
			t.Errorf("%s: %d blocks resident after every read failed", tc.name, stats.Entries)
		}

		healed := remote.Search(q)
		if healed.Incomplete {
			t.Errorf("%s: result still Incomplete with the store back", tc.name)
		}
		sameResults(t, tc.name+" after the outage", want, healed)
		var reused search.Result
		reused.Incomplete = true
		remote.SearchInto(q, &reused)
		if reused.Incomplete {
			t.Errorf("%s: a reused Result kept its Incomplete bit", tc.name)
		}
	}
}

// TestPollerSwapReadsOnlyNewSegments: segment keys are content hashes,
// so a generation that replaces one of three segments opens that one —
// its footer and metadata prefix — and reuses the other two as they are.
func TestPollerSwapReadsOnlyNewSegments(t *testing.T) {
	st := NewMemStore()
	pub := &Publisher{Store: st, CreatedBy: "test"}
	a, b, c, d := testSegment("a", 200), testSegment("b", 200), testSegment("c", 200), testSegment("d", 40)
	if _, err := pub.Publish([]PubSegment{{ID: 1, Seg: a}, {ID: 2, Seg: b}, {ID: 3, Seg: c}}); err != nil {
		t.Fatal(err)
	}
	src := NewCachedSegmentSource(st, NewBlockCache(1<<20))
	var snaps []*Snapshot
	p := &Poller{Source: src, OnSwap: func(s *Snapshot) { snaps = append(snaps, s) }}
	if swapped, err := p.Poll(); err != nil || !swapped {
		t.Fatalf("first Poll = %v, %v", swapped, err)
	}
	m2, err := pub.Publish([]PubSegment{{ID: 1, Seg: a}, {ID: 4, Seg: d}, {ID: 3, Seg: c}})
	if err != nil {
		t.Fatal(err)
	}
	before := st.Counters()
	if swapped, err := p.Poll(); err != nil || !swapped {
		t.Fatalf("second Poll = %v, %v", swapped, err)
	}
	after := st.Counters()
	if n := after.GetRanges - before.GetRanges; n != 2 {
		t.Errorf("swap replacing 1 of 3 segments issued %d ranged reads, want 2 (one footer, one prefix)", n)
	}
	// Everything read besides the manifest is part of the new segment.
	if read, size := after.BytesRead-before.BytesRead, m2.Segments[1].Size; read >= size+4096 {
		t.Errorf("swap read %d bytes; the one new segment is %d bytes in all", read, size)
	}
	old, cur := snaps[0], snaps[1]
	if cur.Segments[0] != old.Segments[0] || cur.Segments[2] != old.Segments[2] {
		t.Error("kept segments were reopened, not reused")
	}
	if cur.Segments[1] == old.Segments[1] || cur.Segments[1].NumDocs() != d.NumDocs() {
		t.Error("the replaced segment was not opened afresh")
	}
	// The reused segments still serve.
	opts := search.DefaultOptions()
	pq := search.ParseQuery(search.NewSearcher(a, opts).Options().Analyzer, "quick fox", search.ModeOr)
	sameResults(t, "reused segment", search.NewSearcher(a, opts).Search(pq), search.NewSearcher(cur.Segments[0], opts).Search(pq))
}
