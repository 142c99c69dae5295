package main

import (
	"bytes"
	"runtime"
	"slices"
	"sort"
	"time"

	"websearchbench/internal/index"
	"websearchbench/internal/partition"
	"websearchbench/internal/search"
	"websearchbench/internal/search/exec"
	"websearchbench/internal/stats"
	"websearchbench/internal/textproc"
	"websearchbench/internal/workload"
)

func runEngineOr(o runOpts) (*result, error)  { return runEngine(o, search.ModeOr) }
func runEngineAnd(o runOpts) (*result, error) { return runEngine(o, search.ModeAnd) }

// runEngine is engine-or and engine-and: one partitioned index searched
// directly (parallel, shared threshold), no HTTP, no cache.
func runEngine(o runOpts, mode search.Mode) (*result, error) {
	sz := o.sz
	docs, vocab, err := genDocs(o.seed, sz.Docs, sz)
	if err != nil {
		return nil, err
	}
	orPool := rankPool(o.seed+1, sz.EnginePool, sz.OrTerms, sz.OrRankLo, sz.OrRankHi, search.ModeOr, vocab)
	andPool := rankPool(o.seed+2, sz.EnginePool, sz.AndTerms, sz.AndRankLo, sz.AndRankHi, search.ModeAnd, vocab)
	pool := orPool
	if mode == search.ModeAnd {
		pool = andPool
	}
	res := &result{Metrics: map[string]float64{}}

	base := heapMB()
	var idx *partition.Index
	var s *partition.Searcher
	setup, _, err := timedSetups(sz.SetupRepeats, func() (func(), error) {
		var err error
		if idx, err = buildIndex(docs, sz.Partitions); err != nil {
			return nil, err
		}
		s = partition.NewSearcher(idx, search.DefaultOptions(), true)
		return func() { idx, s = nil, nil }, nil
	})
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setup)
	res.set("heap_mb", heapMB()-base)
	res.set("index.build_docs_per_s", float64(len(docs))/setup)
	bpd, err := indexBytesPerDoc(idx)
	if err != nil {
		return nil, err
	}
	res.set("index_bytes_per_doc", bpd)

	oracle := engineOracle(idx, pool, sz.TopK)
	if o.corruptOracle {
		corruptHits(oracle)
	}

	tr := o.tr
	if tr != nil {
		s.SetCollectPartTimes(true)
	}
	analyzer := textproc.NewAnalyzer()
	parts := make([][]partStat, sz.Clients) // one slice per worker
	do := func(w, i int) bool {
		q := pool[i%len(pool)]
		if !tr.on() {
			return sameHits(s.ParseAndSearch(q.Text, q.Mode).Hits, oracle[i%len(pool)])
		}
		// Traced: parse and search are timed apart, and the searcher's
		// own per-partition times become child spans.
		req := tr.newID()
		t0 := tr.now()
		pq := search.ParseQuery(analyzer, q.Text, q.Mode)
		t1 := tr.now()
		r := s.Search(pq)
		t2 := tr.now()
		root := tr.record("engine.query", t0, t2, 0, req)
		tr.record("textproc.parse", t0, t1, root, req)
		sp := tr.record("partition.search", t1, t2, root, req)
		tr.record("partition.critical_path", t1, t1+int64(r.CriticalPath), sp, req)
		tr.record("partition.merge", t2-int64(r.MergeTime), t2, sp, req)
		parts[w] = append(parts[w], partStat{span: t2 - t1, crit: r.CriticalPath, merge: r.MergeTime, total: r.TotalWork, n: len(r.PartTimes)})
		return sameHits(r.Hits, oracle[i%len(pool)])
	}

	var ex0 exec.Stats
	ph := measure(o, do, sz.OpenRate[o.name], hooks{traceStart: func() { ex0, _ = exec.DefaultStats() }})
	ph.report(o, res, nil)

	if tr != nil {
		res.spans = tr.take()
		ex1, _ := exec.DefaultStats()
		partitionMetrics(res, parts, ex0, ex1, idx.NumPartitions())
		res.set("textproc.parse_us", parseProbe(pool, sz.ProbeQueries))
		indexProbes(res, idx, sz)
		searchProbes(res, idx, orPool, andPool, sz)
	}
	return res, nil
}

// partStat is the partition layer's own account of one traced query.
type partStat struct {
	span               int64 // ns in Searcher.Search
	crit, merge, total time.Duration
	n                  int // partitions
}

// partitionMetrics derives the fan-out rung from the traced queries.
func partitionMetrics(res *result, parts [][]partStat, ex0, ex1 exec.Stats, nparts int) {
	var fanout, merge, imbalance []float64
	for _, p := range slices.Concat(parts...) {
		fanout = append(fanout, float64(p.span-int64(p.crit)-int64(p.merge))/1e3)
		merge = append(merge, float64(p.merge)/1e3)
		if p.total > 0 && p.n > 0 {
			imbalance = append(imbalance, float64(p.crit)/(float64(p.total)/float64(p.n)))
		}
	}
	res.set("partition.fanout_us", stats.Mean(fanout))
	res.set("partition.merge_us", stats.Mean(merge))
	res.set("partition.imbalance", stats.Mean(imbalance))
	res.set("exec.helper_share", div(float64(ex1.Submitted-ex0.Submitted), float64((ex1.InlineMaps-ex0.InlineMaps)*int64(nparts-1))))
}

// medianOf runs f n times and returns the median of its results.
func medianOf(n int, f func() float64) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// indexProbes measures the index rungs on partition 0: iterator Next and
// SkipTo over the longest posting lists, bytes per posting, and the
// ReadSegment rate.
func indexProbes(res *result, idx *partition.Index, sz sizing) {
	seg := idx.Segment(0)
	type list struct {
		id int32
		df int32
	}
	var lists []list
	for _, t := range seg.Terms() {
		ti, _ := seg.Term(t)
		lists = append(lists, list{ti.ID, ti.DocFreq})
	}
	sort.Slice(lists, func(i, j int) bool {
		if lists[i].df != lists[j].df {
			return lists[i].df > lists[j].df
		}
		return lists[i].id < lists[j].id
	})
	if len(lists) > sz.ProbeLists {
		lists = lists[:sz.ProbeLists]
	}

	// Each walk takes milliseconds, so it is repeated and the median kept.
	res.set("index.next_ns_per_posting", medianOf(5, func() float64 {
		var postings int64
		start := time.Now()
		for _, l := range lists {
			it := seg.PostingsByID(l.id)
			for it.Next() {
				postings++
			}
		}
		return div(float64(time.Since(start).Nanoseconds()), float64(postings))
	}))
	// SkipTo in strides of 97 documents: most calls land in a new
	// 64-posting block of a long list, as a conjunction's do.
	res.set("index.skipto_ns_per_call", medianOf(5, func() float64 {
		var calls int64
		start := time.Now()
		for _, l := range lists {
			it := seg.PostingsByID(l.id)
			for target := int32(0); it.SkipTo(target); target = it.Doc() + 97 {
				calls++
			}
		}
		return div(float64(time.Since(start).Nanoseconds()), float64(calls))
	}))

	var pbytes, ptotal int64
	for p := 0; p < idx.NumPartitions(); p++ {
		pbytes += idx.Segment(p).PostingsBytes()
		ptotal += idx.Segment(p).TotalPostings()
	}
	res.set("index.bytes_per_posting", float64(pbytes)/float64(ptotal))

	var buf bytes.Buffer
	if _, err := seg.WriteTo(&buf); err == nil {
		n := buf.Len()
		start := time.Now()
		if _, err := index.ReadSegment(&buf); err == nil {
			res.set("index.read_mb_s", float64(n)/(1<<20)/time.Since(start).Seconds())
		}
	}
}

// searchProbes measures the single-segment rung: partition 0's segment,
// sequential, pre-parsed queries, default pruning.
func searchProbes(res *result, idx *partition.Index, orPool, andPool []workload.Query, sz sizing) {
	seg := idx.Segment(0)
	s := search.NewSearcher(seg, search.DefaultOptions())
	analyzer := s.Options().Analyzer
	parse := func(pool []workload.Query) []search.Query {
		n := min(sz.ProbeQueries, len(pool))
		qs := make([]search.Query, n)
		for i := range qs {
			qs[i] = search.ParseQuery(analyzer, pool[i].Text, pool[i].Mode)
		}
		return qs
	}
	var allocs uint64
	var queries int
	probe := func(tag string, qs []search.Query) {
		var r search.Result
		var postings, listed int64
		for _, q := range qs { // warm the scratch pools and count list lengths
			s.SearchInto(q, &r)
			for _, t := range q.Terms {
				if ti, ok := seg.Term(t); ok {
					listed += int64(ti.DocFreq)
				}
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for _, q := range qs {
			s.SearchInto(q, &r)
			postings += r.PostingsScanned
		}
		el := time.Since(start)
		runtime.ReadMemStats(&m1)
		allocs += m1.Mallocs - m0.Mallocs
		queries += len(qs)
		n := float64(len(qs))
		res.set("search."+tag+"_us", float64(el.Nanoseconds())/1e3/n)
		res.set("search.postings_per_query."+tag, float64(postings)/n)
		res.set("search.ns_per_posting."+tag, div(float64(el.Nanoseconds()), float64(postings)))
		if tag == "or" {
			res.set("search.pruned_share.or", 1-div(float64(postings), float64(listed)))
		}
	}
	probe("or", parse(orPool))
	probe("and", parse(andPool))
	res.set("search.allocs_per_query", float64(allocs)/float64(queries))

	// Postings saved by the shared threshold: the same OR queries over
	// all partitions, sequentially so the count repeats exactly.
	count := func(shared bool) int64 {
		ps := partition.NewSearcher(idx, search.DefaultOptions(), false)
		ps.SetSharedPruning(shared)
		ps.SetCollectPartTimes(false)
		var n int64
		for _, q := range parse(orPool) {
			n += ps.Search(q).PostingsScanned
		}
		return n
	}
	res.set("partition.shared_saving", 1-div(float64(count(true)), float64(count(false))))
}
