package live

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"websearchbench/internal/search"
	"websearchbench/internal/search/exec"
)

// mutate applies a randomized add/update/delete stream, leaving the
// index with several segments, a populated memtable and live tombstones.
func mutate(t *testing.T, li *Index) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		key := fmt.Sprintf("doc-%d", rng.Intn(150))
		body := fmt.Sprintf("alpha beta gamma delta term%d term%d filler words", rng.Intn(40), rng.Intn(40))
		if rng.Intn(10) == 0 {
			if _, err := li.Delete(key); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := li.Add(key, "t "+key, body, rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	li.Refresh()
}

// settle runs the background flushes and merges to completion, then
// deletes one live document of a segment that a single tombstone leaves
// below the reclamation threshold. A merge drops the tombstones of the
// segments it rewrites, so whether mutate's deletes survive depends on
// how the background work interleaved; the extra delete guarantees the
// snapshot has tombstones and makes no merge due. (Deletes do not wake
// the merger, so settle wakes it while a merge is due.)
func settle(t *testing.T, li *Index) {
	t.Helper()
	for {
		li.mu.Lock()
		li.waitFlushesLocked()
		idle := !li.merging && li.planMergeLocked() == nil
		li.mu.Unlock()
		if idle {
			break
		}
		li.wakeMerger()
		time.Sleep(time.Millisecond)
	}
	li.mu.Lock()
	key := ""
	for _, ls := range li.segs {
		if float64(ls.tomb.Count()+1) >= li.cfg.ReclaimFrac*float64(ls.seg.NumDocs()) {
			continue
		}
		for i, k := range ls.keys {
			if !ls.tomb.Has(int32(i)) && li.keyRefs[k] == (docRef{ls.id, int32(i)}) {
				key = k
				break
			}
		}
		if key != "" {
			break
		}
	}
	li.mu.Unlock()
	if key == "" {
		t.Fatal("no segment can take a tombstone below the reclamation threshold")
	}
	if _, err := li.Delete(key); err != nil {
		t.Fatal(err)
	}
	li.Refresh()
}

// searchIndependent evaluates q against the snapshot the pre-executor
// way: every segment and memtable view independently (no threshold
// sharing, no pool), then one merge — the reference the shared parallel
// path must reproduce byte-for-byte.
func searchIndependent(s *Snapshot, q search.Query, k int) []Hit {
	var lists [][]search.Hit
	for _, sv := range s.segs {
		var res search.Result
		sv.searcher.SearchIntoShared(q, &res, k, nil)
		hits := append([]search.Hit(nil), res.Hits...)
		for i := range hits {
			hits[i].Doc += sv.base
		}
		lists = append(lists, hits)
	}
	for _, mv := range s.mems {
		var res search.Result
		mv.SearchIntoShared(q, &res, k, nil)
		mh := res.Hits
		for i := range mh {
			mh[i].Doc += mv.base
		}
		lists = append(lists, mh)
	}
	merged := search.MergeTopK(lists, k)
	out := make([]Hit, 0, len(merged))
	for _, h := range merged {
		out = append(out, s.resolve(h))
	}
	return out
}

// TestParallelSnapshotSearchIdentical: shared-threshold execution —
// sequential and on the bounded executor — returns the results of
// independent per-view evaluation on the same snapshot (see
// sameRanking), across segments, the memtable and tombstones. Comparing
// within one snapshot keeps global docIDs (the tie-break order) fixed,
// which is the guarantee the engine actually makes; two
// separately-mutated indexes can legally order equal-scored hits
// differently because their asynchronous merges assign different docIDs.
func TestParallelSnapshotSearchIdentical(t *testing.T) {
	pool := exec.New(4)
	defer pool.Close()
	li := NewIndex(Config{MemtableMaxDocs: 32, Parallel: true, Executor: pool})
	defer li.Close()
	mutate(t, li)
	settle(t, li)

	snap := li.Acquire()
	defer snap.Release()
	if snap.NumSegments() < 2 {
		t.Fatalf("want a multi-segment snapshot, got %d segments", snap.NumSegments())
	}
	tombs := 0
	for _, sv := range snap.segs {
		tombs += sv.dead.Count()
	}
	if tombs == 0 {
		t.Fatal("want tombstones in the snapshot")
	}

	check := func(label string, got, want []Hit, raw string, mode search.Mode) {
		t.Helper()
		if !sameRanking(got, want) {
			t.Fatalf("%s query %q (%v):\n got %+v\nwant %+v", label, raw, mode, got, want)
		}
	}

	queries := []string{"alpha", "term3 term7", "beta term1 term2", "gamma delta", "term39", "filler alpha term5"}
	for _, raw := range queries {
		for _, mode := range []search.Mode{search.ModeOr, search.ModeAnd} {
			q := search.ParseQuery(snap.core.Analyzer(), raw, mode)
			want := searchIndependent(snap, q, 10)
			check("parallel", snap.Search(q, 10), want, raw, mode)
			// Same snapshot without the pool: the sequential shared path.
			snap.core.SetExecutor(nil)
			check("sequential-shared", snap.Search(q, 10), want, raw, mode)
			snap.core.SetExecutor(pool)
		}
	}
}

// sameRanking reports whether got ranks like want: scores equal rank by
// rank within 1e-9, and the same hits in the same order except within a
// tie run — consecutive hits whose scores lie within 1e-9 of each other
// — which is compared as a set; a run that reaches the end of the list
// is checked on scores alone, because the cut-off may fall inside the
// tie. This is bench's sameRanking rule. MaxScore's term partitioning
// depends on the threshold, so sharing can reorder a score's
// floating-point additions by a final ULP and swap two hits that tie
// within it.
func sameRanking(got, want []Hit) bool {
	if len(got) != len(want) {
		return false
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }
	for i := 0; i < len(want); {
		j := i + 1
		for j < len(want) && near(want[j-1].Score, want[j].Score) {
			j++
		}
		for r := i; r < j; r++ {
			found := j == len(want)
			for _, w := range want[i:j] {
				found = found || (got[r].Key == w.Key && got[r].Doc == w.Doc)
			}
			if !found || !near(got[r].Score, want[r].Score) {
				return false
			}
		}
		i = j
	}
	return true
}

// TestSearchIntoReusesBuffer: SearchInto appends into the caller's
// buffer and matches Search exactly, so serving paths can recycle one
// buffer across queries.
func TestSearchIntoReusesBuffer(t *testing.T) {
	li := NewIndex(Config{MemtableMaxDocs: 32})
	defer li.Close()
	for i := 0; i < 100; i++ {
		if err := li.Add(fmt.Sprintf("k%d", i), "title", fmt.Sprintf("common word%d", i%7), 0); err != nil {
			t.Fatal(err)
		}
	}
	var buf []Hit
	for _, raw := range []string{"common", "word1", "word2 common", "missing"} {
		want := li.Search(raw, search.ModeOr, 10)
		buf = li.SearchInto(raw, search.ModeOr, 10, buf[:0])
		if len(buf) != len(want) {
			t.Fatalf("query %q: SearchInto %d hits, Search %d", raw, len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("query %q: hit %d = %+v, want %+v", raw, i, buf[i], want[i])
			}
		}
	}
	// The buffer grows once and is reused; capacity must survive resets.
	if cap(buf) == 0 {
		t.Fatal("buffer never grew")
	}
}
