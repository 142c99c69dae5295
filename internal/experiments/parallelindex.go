package experiments

import (
	"fmt"
	"sync"
	"time"

	"websearchbench/internal/corpus"
	"websearchbench/internal/index"
	"websearchbench/internal/index/pipeline"
	"websearchbench/internal/metrics"
	"websearchbench/internal/search"
	"websearchbench/internal/textproc"
)

// E23Row is one worker-count configuration of the parallel indexing
// pipeline, measured over a full build of the experiment corpus.
type E23Row struct {
	Workers     int
	DocsPerSec  float64
	MBPerSec    float64
	Elapsed     time.Duration
	SegmentsCut int64
}

// E23Result is the parallel-indexing experiment: the worker sweep plus
// the query-interference measurement (searcher latency against a serving
// segment, with and without a full pipeline rebuild running beside it).
type E23Result struct {
	Docs        int
	SegmentDocs int
	Rows        []E23Row
	// Interference: latency of a 2-goroutine searcher pool over the same
	// window, idle vs. sharing the machine with a continuous rebuild.
	BaselineP50, BaselineP99 time.Duration
	RebuildP50, RebuildP99   time.Duration
	BaselineQPS, RebuildQPS  float64
}

// E23ParallelIndexing measures the parallel indexing pipeline: build
// throughput (docs/s, MB/s) versus worker count over the streamed
// corpus, and the query-latency interference a background rebuild
// inflicts on a serving searcher pool.
// Every configuration produces byte-identical output (the pipeline's
// determinism contract), so the sweep varies only cost, not results.
func (c *Context) E23ParallelIndexing() E23Result {
	gen, err := corpus.NewGenerator(c.CorpusCfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: corpus generator failed: %v", err))
	}
	var docs []corpus.Document
	gen.GenerateFunc(func(d corpus.Document) { docs = append(docs, d) })
	var totalBytes int64
	for _, d := range docs {
		totalBytes += int64(len(d.Title) + len(d.Body))
	}

	// ~16 chunks regardless of corpus scale, so every worker count in the
	// sweep has parallel work available.
	segDocs := len(docs) / 16
	if segDocs < 64 {
		segDocs = 64
	}

	res := E23Result{Docs: len(docs), SegmentDocs: segDocs}
	for _, workers := range []int{1, 2, 4, 8} {
		p := pipeline.New(pipeline.Config{Workers: workers, SegmentDocs: segDocs})
		if _, err := p.Run(streamDocs(docs)); err != nil {
			panic(fmt.Sprintf("experiments: pipeline build failed: %v", err))
		}
		st := p.Stats()
		row := E23Row{
			Workers:     workers,
			DocsPerSec:  float64(st.DocsIndexed) / st.Elapsed.Seconds(),
			MBPerSec:    float64(st.BytesIndexed) / st.Elapsed.Seconds() / (1 << 20),
			Elapsed:     st.Elapsed,
			SegmentsCut: st.SegmentsCut,
		}
		res.Rows = append(res.Rows, row)
		name := fmt.Sprintf("w%d", workers)
		c.record("E23", name, "docs_per_sec", row.DocsPerSec)
		c.record("E23", name, "mb_per_sec", row.MBPerSec)
		c.record("E23", name, "segments_cut", float64(row.SegmentsCut))
	}

	c.measureRebuildInterference(docs, segDocs, &res)
	c.record("E23", "interference", "baseline_p99_ns", float64(res.BaselineP99))
	c.record("E23", "interference", "rebuild_p99_ns", float64(res.RebuildP99))
	c.record("E23", "interference", "baseline_qps", res.BaselineQPS)
	c.record("E23", "interference", "rebuild_qps", res.RebuildQPS)

	c.section("E23", "parallel indexing pipeline: throughput vs workers, rebuild interference")
	fmt.Fprintf(c.Out, "%d docs, %d docs/segment, merged once; identical output bytes at every worker count\n",
		res.Docs, res.SegmentDocs)
	w := c.table()
	fmt.Fprintf(w, "workers\tdocs/s\tMB/s\telapsed\tsegs\n")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%d\t%.0f\t%.1f\t%s\t%d\n",
			r.Workers, r.DocsPerSec, r.MBPerSec, ms(r.Elapsed), r.SegmentsCut)
	}
	w.Flush()
	w = c.table()
	fmt.Fprintf(w, "searchers\tp50\tp99\tqps\n")
	fmt.Fprintf(w, "idle machine\t%s\t%s\t%.0f\n", ms(res.BaselineP50), ms(res.BaselineP99), res.BaselineQPS)
	fmt.Fprintf(w, "during rebuild\t%s\t%s\t%.0f\n", ms(res.RebuildP50), ms(res.RebuildP99), res.RebuildQPS)
	w.Flush()
	return res
}

// measureRebuildInterference serves queries from a prebuilt segment with
// a small searcher pool for one window on an otherwise idle machine, and
// again while a pipeline rebuild of the full corpus loops beside it —
// the p99 delta is what an in-place reindex costs the serving path.
func (c *Context) measureRebuildInterference(docs []corpus.Document, segDocs int, res *E23Result) {
	b := index.NewBuilder()
	for _, d := range docs {
		b.AddCorpusDoc(d)
	}
	seg := b.Finalize()

	analyzer := textproc.NewAnalyzer()
	qs := make([]search.Query, 0, len(c.Stream()))
	for _, q := range c.Stream() {
		qs = append(qs, search.ParseQuery(analyzer, q.Text, q.Mode))
	}
	searcher := search.NewSearcher(seg, search.Options{TopK: 10, UseMaxScore: true, Analyzer: analyzer})

	const searchers = 2
	window := time.Duration(clamp(2*c.Scale, 0.15, 2) * float64(time.Second))

	measure := func() (p50, p99 time.Duration, qps float64) {
		hists := make([]metrics.Histogram, searchers)
		counts := make([]int64, searchers)
		var pool sync.WaitGroup
		start := time.Now()
		deadline := start.Add(window)
		for g := 0; g < searchers; g++ {
			pool.Add(1)
			go func(g int) {
				defer pool.Done()
				for i := g; time.Now().Before(deadline); i++ {
					q := qs[i%len(qs)]
					t0 := time.Now()
					searcher.Search(q)
					hists[g].Record(time.Since(t0))
					counts[g]++
				}
			}(g)
		}
		pool.Wait()
		elapsed := time.Since(start)
		var lat metrics.Histogram
		var queries int64
		for g := range hists {
			lat.Merge(&hists[g])
			queries += counts[g]
		}
		snap := lat.Snapshot()
		return snap.P50, snap.P99, float64(queries) / elapsed.Seconds()
	}

	res.BaselineP50, res.BaselineP99, res.BaselineQPS = measure()

	// Loop full rebuilds until the measurement window closes.
	stop := make(chan struct{})
	var rebuilds sync.WaitGroup
	rebuilds.Add(1)
	go func() {
		defer rebuilds.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			p := pipeline.New(pipeline.Config{SegmentDocs: segDocs})
			if _, err := p.Run(streamDocs(docs)); err != nil {
				panic(fmt.Sprintf("experiments: rebuild failed: %v", err))
			}
		}
	}()
	res.RebuildP50, res.RebuildP99, res.RebuildQPS = measure()
	close(stop)
	rebuilds.Wait()
}

// streamDocs yields an already-generated corpus in order, keeping
// generation cost out of the build measurement.
func streamDocs(docs []corpus.Document) func(func(corpus.Document)) {
	return func(yield func(corpus.Document)) {
		for _, d := range docs {
			yield(d)
		}
	}
}
