package experiments

import (
	"fmt"
	"sync"
	"time"

	"websearchbench/internal/corpus"
	"websearchbench/internal/live"
	"websearchbench/internal/metrics"
	"websearchbench/internal/partition"
	"websearchbench/internal/search"
	"websearchbench/internal/textproc"
)

// E24PruneRow is one partition count of the threshold-sharing sweep:
// postings scanned and per-query latency with independent per-partition
// heaps versus one shared pruning threshold, on otherwise identical
// sequential evaluations.
type E24PruneRow struct {
	Parts            int
	IndepPostings    int64
	SharedPostings   int64
	IndepNsPerQuery  float64
	SharedNsPerQuery float64
}

// E24LiveRow is one live-path configuration: sequential versus
// executor-parallel snapshot search while ingest churns segments.
type E24LiveRow struct {
	Name     string
	P50      time.Duration
	P99      time.Duration
	QPS      float64
	Segments int
}

// E24Result is the shared-threshold parallel execution experiment.
type E24Result struct {
	Prune []E24PruneRow
	Live  []E24LiveRow
}

// E24SharedExec measures the two pillars of the query execution engine.
// Part one: cross-partition threshold sharing on sequential evaluations —
// postings scanned must only ever drop (the shared floor is a lower
// bound on the global kth score, so it subsumes every local floor) while
// the merged top-k stays identical. Part two: the live path, sequential
// versus executor-parallel segment search during ingest churn. The
// executor's own dispatch cost is the repository benchmark's
// partition.fanout_us and exec.helper_share.
func (c *Context) E24SharedExec() E24Result {
	qs := c.Analyzed()
	res := E24Result{}

	// Part 1: postings scanned, shared vs independent pruning.
	for _, parts := range []int{1, 2, 4, 8} {
		idx, err := partition.Build(c.CorpusCfg, parts, partition.RoundRobin)
		if err != nil {
			panic(fmt.Sprintf("experiments: partition build failed: %v", err))
		}
		ps := partition.NewSearcher(idx, search.DefaultOptions(), false)
		ps.SetCollectPartTimes(false)
		row := E24PruneRow{Parts: parts}
		for _, shared := range []bool{false, true} {
			ps.SetSharedPruning(shared)
			var postings int64
			start := time.Now()
			for _, q := range qs {
				r := ps.Search(q)
				postings += r.PostingsScanned
			}
			ns := float64(time.Since(start)) / float64(len(qs))
			if shared {
				row.SharedPostings, row.SharedNsPerQuery = postings, ns
			} else {
				row.IndepPostings, row.IndepNsPerQuery = postings, ns
			}
		}
		res.Prune = append(res.Prune, row)
		name := fmt.Sprintf("p%d", parts)
		c.record("E24", name, "indep_postings", float64(row.IndepPostings))
		c.record("E24", name, "shared_postings", float64(row.SharedPostings))
		c.record("E24", name, "indep_ns_per_query", row.IndepNsPerQuery)
		c.record("E24", name, "shared_ns_per_query", row.SharedNsPerQuery)
	}

	// Part 2: live path, sequential vs executor-parallel segment search.
	res.Live = c.measureLiveExec(qs)
	for _, r := range res.Live {
		c.record("E24", r.Name, "p50_ns", float64(r.P50))
		c.record("E24", r.Name, "p99_ns", float64(r.P99))
		c.record("E24", r.Name, "qps", r.QPS)
		c.record("E24", r.Name, "segments", float64(r.Segments))
	}

	c.section("E24", "shared-threshold parallel execution: pruning, live path")
	w := c.table()
	fmt.Fprintf(w, "parts\tpostings(indep)\tpostings(shared)\tsaved\tns/q(indep)\tns/q(shared)\n")
	for _, r := range res.Prune {
		saved := 0.0
		if r.IndepPostings > 0 {
			saved = 100 * float64(r.IndepPostings-r.SharedPostings) / float64(r.IndepPostings)
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%.1f%%\t%.0f\t%.0f\n",
			r.Parts, r.IndepPostings, r.SharedPostings, saved,
			r.IndepNsPerQuery, r.SharedNsPerQuery)
	}
	w.Flush()
	fmt.Fprintf(c.Out, "live path under ingest churn:\n")
	w = c.table()
	fmt.Fprintf(w, "config\tp50\tp99\tqps\tsegs\n")
	for _, r := range res.Live {
		fmt.Fprintf(w, "%s\t%s\t%s\t%.0f\t%d\n", r.Name, ms(r.P50), ms(r.P99), r.QPS, r.Segments)
	}
	w.Flush()
	return res
}

// measureLiveExec seeds a multi-segment live index, then measures query
// latency with sequential and executor-parallel snapshot search while a
// writer churns updates (tombstoning old versions, feeding flushes and
// merges) — the live half of the execution engine under its intended
// conditions.
func (c *Context) measureLiveExec(qs []search.Query) []E24LiveRow {
	gen, err := corpus.NewGenerator(c.CorpusCfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: corpus generator failed: %v", err))
	}
	var docs []corpus.Document
	gen.GenerateFunc(func(d corpus.Document) { docs = append(docs, d) })
	analyzer := textproc.NewAnalyzer()
	const searchers = 2
	window := time.Duration(clamp(2*c.Scale, 0.15, 2) * float64(time.Second))
	// A small memtable spreads the corpus over many segments, giving the
	// parallel path per-query tasks to distribute.
	memDocs := len(docs) / 12
	if memDocs < 64 {
		memDocs = 64
	}

	var rows []E24LiveRow
	for _, run := range []struct {
		name     string
		parallel bool
	}{{"live_serial", false}, {"live_parallel", true}} {
		cfg := live.Config{
			Analyzer:        analyzer,
			MemtableMaxDocs: memDocs,
			Parallel:        run.parallel,
			RefreshEvery:    1 << 30, // bulk seeding: publish once below
		}
		li := live.NewIndex(cfg)
		for _, d := range docs {
			li.Add(d.URL, d.Title, d.Body, d.Quality)
		}
		li.SetRefreshEvery(64)
		li.Refresh()

		stop := make(chan struct{})
		var writers sync.WaitGroup
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				d := docs[i%len(docs)]
				li.Add(d.URL, d.Title, d.Body, d.Quality)
				if i%64 == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}()

		hists := make([]metrics.Histogram, searchers)
		counts := make([]int64, searchers)
		var pool sync.WaitGroup
		start := time.Now()
		deadline := start.Add(window)
		for g := 0; g < searchers; g++ {
			pool.Add(1)
			go func(g int) {
				defer pool.Done()
				var buf []live.Hit
				for i := g; time.Now().Before(deadline); i++ {
					q := qs[i%len(qs)]
					t0 := time.Now()
					buf = li.SearchQueryInto(q, 10, buf[:0])
					hists[g].Record(time.Since(t0))
					counts[g]++
				}
			}(g)
		}
		pool.Wait()
		elapsed := time.Since(start)
		close(stop)
		writers.Wait()
		st := li.Stats()
		li.Close()

		var lat metrics.Histogram
		var queries int64
		for g := range hists {
			lat.Merge(&hists[g])
			queries += counts[g]
		}
		snap := lat.Snapshot()
		rows = append(rows, E24LiveRow{
			Name:     run.name,
			P50:      snap.P50,
			P99:      snap.P99,
			QPS:      float64(queries) / elapsed.Seconds(),
			Segments: st.Segments,
		})
	}
	return rows
}
