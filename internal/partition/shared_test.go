package partition

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"websearchbench/internal/search"
	"websearchbench/internal/search/exec"
)

// sharedVariant is one pruning-strategy configuration of the
// shared-threshold property sweep.
type sharedVariant struct {
	name string
	opts search.Options
}

func sharedVariants(stats *search.CollectionStats) []sharedVariant {
	return []sharedVariant{
		{"blockmax", search.Options{TopK: 10, UseMaxScore: true, Stats: stats}},
		{"maxscore", search.Options{TopK: 10, UseMaxScore: true, DisableBlockMax: true, Stats: stats}},
		{"nopruning", search.Options{TopK: 10, Stats: stats}},
	}
}

// TestSharedThresholdIdenticalTopK is the tentpole's correctness
// property: for every partition count, evaluation strategy, query mode
// and statistics source, cross-partition threshold sharing returns the
// byte-identical top-k of independent per-partition heaps — sequentially
// and on the bounded executor — while scanning no more postings.
func TestSharedThresholdIdenticalTopK(t *testing.T) {
	pool := exec.New(4)
	defer pool.Close()
	for _, parts := range []int{1, 2, 4, 8} {
		idx, _, vocab := buildBoth(t, parts)
		for _, useGlobal := range []bool{false, true} {
			var stats *search.CollectionStats
			statsName := "local"
			if useGlobal {
				stats = GlobalStats(idx)
				statsName = "global"
			}
			for _, v := range sharedVariants(stats) {
				t.Run(fmt.Sprintf("p%d/%s/%s", parts, statsName, v.name), func(t *testing.T) {
					indep := NewSearcher(idx, v.opts, false)
					indep.SetSharedPruning(false)
					shared := NewSearcher(idx, v.opts, false)
					par := NewSearcher(idx, v.opts, true)
					par.SetExecutor(pool)

					rng := rand.New(rand.NewSource(int64(parts)))
					var indepPostings, sharedPostings int64
					for trial := 0; trial < 40; trial++ {
						nTerms := 1 + rng.Intn(3)
						terms := make([]string, nTerms)
						for i := range terms {
							terms[i] = vocab.Word(rng.Intn(300))
						}
						raw := strings.Join(terms, " ")
						mode := search.ModeOr
						if trial%3 == 0 {
							mode = search.ModeAnd
						}
						q := search.ParseQuery(indep.Analyzer(), raw, mode)

						want := indep.Search(q)
						got := shared.Search(q)
						gotPar := par.Search(q)
						indepPostings += want.PostingsScanned
						sharedPostings += got.PostingsScanned
						assertSameHits(t, "shared", raw, mode, got.Hits, want.Hits)
						assertSameHits(t, "parallel", raw, mode, gotPar.Hits, want.Hits)
					}
					if sharedPostings > indepPostings {
						t.Errorf("shared pruning scanned MORE postings: %d vs %d",
							sharedPostings, indepPostings)
					}
					if parts > 1 && v.name != "nopruning" && sharedPostings == indepPostings {
						// Not an invariant (a degenerate corpus could tie),
						// but on this corpus sharing should actually save
						// work; log so a silent regression is visible.
						t.Logf("shared pruning saved nothing (%d postings)", sharedPostings)
					}
				})
			}
		}
	}
}

// assertSameHits requires identical ranked documents. Scores carry the
// repo-wide 1e-9 tolerance (as in TestPartitionedEqualsUnpartitioned):
// MaxScore's essential/non-essential split depends on the threshold, so
// a raised shared floor can legally reorder the floating-point additions
// of a fully-scored document by a final ULP.
func assertSameHits(t *testing.T, label, raw string, mode search.Mode, got, want []search.Hit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s query %q (%v): %d hits vs %d", label, raw, mode, len(got), len(want))
	}
	for i := range want {
		if got[i].Doc != want[i].Doc || math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			t.Fatalf("%s query %q (%v): hit %d = %+v, want %+v",
				label, raw, mode, i, got[i], want[i])
		}
	}
}

// TestCollectPartTimesOptIn: parallel (serving-path) searchers skip the
// per-partition timing allocation by default; sequential searchers and
// explicit opt-in collect it.
func TestCollectPartTimesOptIn(t *testing.T) {
	idx, _, vocab := buildBoth(t, 4)
	opts := search.Options{TopK: 10, UseMaxScore: true}
	q := search.ParseQuery(search.NewSearcher(idx.Segment(0), opts).Options().Analyzer,
		vocab.Word(1), search.ModeOr)

	seq := NewSearcher(idx, opts, false)
	if res := seq.Search(q); len(res.PartTimes) != 4 {
		t.Fatalf("sequential searcher collected %d part times, want 4", len(res.PartTimes))
	}

	par := NewSearcher(idx, opts, true)
	if res := par.Search(q); res.PartTimes != nil {
		t.Fatalf("parallel searcher collected part times by default: %v", res.PartTimes)
	}
	par.SetCollectPartTimes(true)
	res := par.Search(q)
	if len(res.PartTimes) != 4 || res.CriticalPath == 0 || res.TotalWork == 0 {
		t.Fatalf("opt-in timing incomplete: times=%d critical=%v work=%v",
			len(res.PartTimes), res.CriticalPath, res.TotalWork)
	}
}
