package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"websearchbench/internal/blob"
	"websearchbench/internal/index"
	"websearchbench/internal/partition"
	"websearchbench/internal/search"
)

// timedStore wraps a blob.Store to count and time ranged reads in a
// traced run.
type timedStore struct {
	blob.Store
	tr    *tracer
	calls atomic.Int64
	bytes atomic.Int64
	nanos atomic.Int64
}

func (t *timedStore) GetRange(key string, off, n int64) ([]byte, error) {
	if !t.tr.on() {
		return t.Store.GetRange(key, off, n)
	}
	t0 := t.tr.now()
	data, err := t.Store.GetRange(key, off, n)
	t1 := t.tr.now()
	// The fetch runs on whichever goroutine evaluates the partition, so
	// its request cannot be told from here: no parent, no request ID.
	t.tr.record("blob.getrange", t0, t1, 0, 0)
	t.calls.Add(1)
	t.bytes.Add(int64(len(data)))
	t.nanos.Add(t1 - t0)
	return data, err
}

// blobSystem is one cold-opened searcher over a published index.
type blobSystem struct {
	src       *blob.CachedSegmentSource
	timed     *timedStore // nil in an untraced run
	searcher  *partition.Searcher
	store     *blob.MemStore
	published int64         // bytes of the published segment blobs
	open      time.Duration // LoadSnapshot
	ready     time.Duration // LoadSnapshot + building the searcher
}

// openBlob publishes idx's segments to a fresh in-memory store with
// injected latency and opens them the way searchd -blob-store does: a
// CachedSegmentSource, partition.FromSegments, exhaustive parallel
// evaluation.
func openBlob(idx *partition.Index, sz sizing, tr *tracer) (*blobSystem, error) {
	st := blob.NewMemStore()
	st.Latency = sz.BlobLatency
	segs := make([]blob.PubSegment, idx.NumPartitions())
	var postings int64
	for p := range segs {
		segs[p] = blob.PubSegment{ID: uint64(p + 1), Seg: idx.Segment(p)}
		postings += idx.Segment(p).PostingsBytes()
	}
	pub := &blob.Publisher{Store: st, CreatedBy: "bench"}
	m, err := pub.Publish(segs)
	if err != nil {
		return nil, fmt.Errorf("publish: %w", err)
	}
	var published int64
	for _, ref := range m.Segments {
		published += ref.Size
	}
	var store blob.Store = st
	var timed *timedStore
	if tr != nil {
		timed = &timedStore{Store: st, tr: tr}
		store = timed
	}
	start := time.Now()
	src := blob.NewCachedSegmentSource(store, blob.NewBlockCache(postings/int64(sz.BlobCacheShare)))
	snap, ok, err := src.LoadSnapshot()
	if err != nil || !ok {
		return nil, fmt.Errorf("load snapshot: published = %v: %w", ok, err)
	}
	b := &blobSystem{src: src, timed: timed, store: st, published: published, open: time.Since(start)}
	b.searcher = partition.NewSearcher(partition.FromSegments(snap.Segments), search.Options{TopK: sz.TopK}, true)
	// The traced run divides fetch time by the partitions' own times.
	b.searcher.SetCollectPartTimes(tr != nil)
	b.ready = time.Since(start)
	return b, nil
}

// runBlobCold serves the engine-or index from a blob store through a
// block cache an eighth the size of its postings.
func runBlobCold(o runOpts) (*result, error) {
	sz := o.sz
	docs, vocab, err := genDocs(o.seed, sz.Docs, sz)
	if err != nil {
		return nil, err
	}
	pool, err := defaultPool(o.seed+1, sz.BlobPool, vocab)
	if err != nil {
		return nil, err
	}
	// The published index is built once, untimed: its cost is engine-or's
	// setup_s. This workload's set-up is publish plus cold open.
	idx, err := buildIndex(docs, sz.Partitions)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]float64{}}

	base := heapMB()
	// Set-up is publish plus cold open. Each opened system then answers
	// its first query, a different one each time: how many blocks a cold
	// query fetches varies by two orders of magnitude, so blob.ttfq_ms is
	// the median over the set-ups, and setup_s leaves the query out.
	var sys *blobSystem
	var firsts [][]search.Hit // the cold first answers, by pool index
	var secs, ttfq []float64
	for rep := 0; rep < sz.BlobSetupRepeats; rep++ {
		start := time.Now()
		if sys, err = openBlob(idx, sz, o.tr); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		start = time.Now()
		firsts = append(firsts, sys.searcher.ParseAndSearch(pool[rep].Text, pool[rep].Mode).Hits)
		ttfq = append(ttfq, float64(sys.ready+time.Since(start))/1e6)
	}
	openRead := sys.store.Counters().BytesRead // of the last system, up to its first answer
	res.set("setup_s", median(secs))
	res.set("blob.ttfq_ms", median(ttfq))
	res.set("heap_mb", heapMB()-base)
	res.set("index_bytes_per_doc", float64(sys.published)/float64(idx.NumDocs()))

	// The oracle reads the same segments from memory, in the arrangement
	// FromSegments gives the lazy ones.
	segs := make([]*index.Segment, idx.NumPartitions())
	for p := range segs {
		segs[p] = idx.Segment(p)
	}
	oracle := engineOracle(partition.FromSegments(segs), pool, sz.TopK)
	if o.corruptOracle {
		corruptHits(oracle)
	}
	for i, first := range firsts {
		res.Attempted++
		if !sameHits(first, oracle[i]) {
			res.Failed++
		}
	}

	tr := o.tr
	var workNanos atomic.Int64 // summed partition evaluation time of the traced queries
	do := func(w, i int) bool {
		// The head of the pool went to the cold first queries; the loops
		// cycle the rest in order, so the working set is the whole pool.
		qi := sz.BlobSetupRepeats + i%(len(pool)-sz.BlobSetupRepeats)
		if !tr.on() {
			return sameHits(sys.searcher.ParseAndSearch(pool[qi].Text, pool[qi].Mode).Hits, oracle[qi])
		}
		t0 := tr.now()
		r := sys.searcher.ParseAndSearch(pool[qi].Text, pool[qi].Mode)
		tr.record("blob.query", t0, tr.now(), 0, tr.newID())
		workNanos.Add(int64(r.TotalWork))
		return sameHits(r.Hits, oracle[qi])
	}
	var s0 blob.SourceStats
	ph := measure(o, do, sz.OpenRate[o.name], hooks{traceStart: func() { s0 = sys.src.Stats() }})
	ph.report(o, res, nil)

	if tr != nil {
		res.spans = tr.take()
		ts := sys.src.Stats()
		st := sys.timed
		res.set("blob.cache_hit_rate", div(float64(ts.Hits-s0.Hits), float64(ts.Hits-s0.Hits+ts.Misses-s0.Misses)))
		// The timed store counts only while the tracer is on; the
		// source's own counters also ran through the untraced slices.
		traced := float64(len(ph.closed.samples) + len(ph.open.samples))
		res.set("blob.bytes_per_query", div(float64(st.bytes.Load()), traced))
		res.set("blob.getrange_per_query", div(float64(st.calls.Load()), traced))
		res.set("blob.evictions_per_query", div(float64(ts.Evictions-s0.Evictions), traced+float64(len(ph.ref.samples))))
		res.set("blob.getrange_us", div(float64(st.nanos.Load())/1e3, float64(st.calls.Load())))
		// Every fetch happens inside one partition's evaluation, so the
		// share is of the summed partition times (TotalWork), not of the
		// query spans, which the parallel partitions overlap in.
		res.set("blob.stall_share", div(float64(st.nanos.Load()), float64(workNanos.Load())))
		res.set("blob.fetch_retries", float64(ts.FetchRetries-s0.FetchRetries))
		res.set("blob.fetch_failures", float64(ts.FetchFailures-s0.FetchFailures))
		res.set("blob.open_ms", float64(sys.open)/1e6)
		res.set("blob.open_bytes", float64(openRead))
		res.set("textproc.parse_us", parseProbe(pool, sz.ProbeQueries))
	}
	return res, nil
}
