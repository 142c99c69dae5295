package experiments

import (
	"fmt"
	"time"

	"websearchbench/internal/index"
	"websearchbench/internal/profilephase"
	"websearchbench/internal/search"
	"websearchbench/internal/stats"
	"websearchbench/internal/workload"
)

// E1Result is the benchmark/index characterization table.
type E1Result struct {
	Stats index.Stats
}

// E1Characterization builds the index and reports its anatomy (the
// paper's benchmark-characterization table).
func (c *Context) E1Characterization() E1Result {
	res := E1Result{Stats: c.Segment().ComputeStats(10)}
	c.section("E1", "index characterization")
	w := c.table()
	st := res.Stats
	fmt.Fprintf(w, "documents\t%d\n", st.NumDocs)
	fmt.Fprintf(w, "distinct terms\t%d\n", st.NumTerms)
	fmt.Fprintf(w, "postings\t%d\n", st.TotalPostings)
	fmt.Fprintf(w, "term occurrences\t%d\n", st.TotalTermOccs)
	fmt.Fprintf(w, "avg doc length\t%.1f terms\n", st.AvgDocLen)
	fmt.Fprintf(w, "doc length p50/p99/max\t%d / %d / %d\n", st.DocLenP50, st.DocLenP99, st.DocLenMax)
	fmt.Fprintf(w, "doc freq mean/p50/p99/max\t%.1f / %d / %d / %d\n",
		st.MeanDocFreq, st.P50DocFreq, st.P99DocFreq, st.MaxDocFreq)
	fmt.Fprintf(w, "postings bytes (packed)\t%d\n", st.PostingsBytes)
	fmt.Fprintf(w, "postings bytes (raw)\t%d\n", st.RawPostingsBytes)
	fmt.Fprintf(w, "compression ratio\t%.2fx\n", st.CompressionRatio)
	fmt.Fprintf(w, "doc store bytes\t%d\n", st.StoredBytes)
	w.Flush()
	fmt.Fprintf(c.Out, "top terms by collection frequency:\n")
	w = c.table()
	for _, tc := range st.TopTerms {
		fmt.Fprintf(w, "  %s\t%d\n", tc.Term, tc.Count)
	}
	w.Flush()
	return res
}

// E2Result is the query-workload characterization table.
type E2Result struct {
	Char workload.Characterization
	// MatchRate is the fraction of queries returning at least one hit.
	MatchRate float64
	// MeanMatches is the mean number of scored documents per query.
	MeanMatches float64
}

// E2Workload characterizes the query stream against the index.
func (c *Context) E2Workload() E2Result {
	res := E2Result{Char: workload.Characterize(c.Stream())}
	searcher := search.NewSearcher(c.Segment(), search.Options{TopK: 10, UseMaxScore: false})
	matched := 0
	var totalMatches int64
	for _, q := range c.Analyzed() {
		r := searcher.Search(q)
		if len(r.Hits) > 0 {
			matched++
		}
		totalMatches += int64(r.Matches)
	}
	n := len(c.Analyzed())
	if n > 0 {
		res.MatchRate = float64(matched) / float64(n)
		res.MeanMatches = float64(totalMatches) / float64(n)
	}

	c.section("E2", "query workload characterization")
	w := c.table()
	ch := res.Char
	fmt.Fprintf(w, "queries\t%d\n", ch.Queries)
	fmt.Fprintf(w, "unique queries\t%d\n", ch.UniqueQueries)
	fmt.Fprintf(w, "mean terms/query\t%.2f\n", ch.MeanLen)
	fmt.Fprintf(w, "top-10 query share\t%.1f%%\n", ch.TopShare*100)
	fmt.Fprintf(w, "AND queries\t%d\n", ch.AndQueries)
	fmt.Fprintf(w, "match rate\t%.1f%%\n", res.MatchRate*100)
	fmt.Fprintf(w, "mean docs scored/query\t%.0f\n", res.MeanMatches)
	w.Flush()
	fmt.Fprintf(c.Out, "query length histogram:\n")
	w = c.table()
	for i, n := range ch.LenHistogram {
		fmt.Fprintf(w, "  %d terms\t%d\n", i+1, n)
	}
	w.Flush()
	return res
}

// E3Result is the per-phase service-time breakdown.
type E3Result struct {
	Breakdown profilephase.Breakdown
	Shares    []profilephase.PhaseShare
}

// E3PhaseBreakdown measures where query time goes in the real engine.
func (c *Context) E3PhaseBreakdown() E3Result {
	searcher := search.NewSearcher(c.Segment(), search.DefaultOptions())
	var b profilephase.Breakdown
	for _, q := range c.Stream() {
		r := searcher.ParseAndSearch(q.Text, q.Mode)
		b.Add(r.Phases)
	}
	res := E3Result{Breakdown: b, Shares: b.Shares()}
	c.section("E3", "per-phase service-time breakdown")
	w := c.table()
	for _, s := range res.Shares {
		fmt.Fprintf(w, "%s\t%.1f%%\t%v per query\n", s.Phase, s.Fraction*100, s.PerQuery)
	}
	fmt.Fprintf(w, "total\t100.0%%\t%v per query\n",
		b.Total()/time.Duration(max(1, b.Queries)))
	w.Flush()
	return res
}

// E4Result is the service-time anatomy.
type E4Result struct {
	ByTerms    []profilephase.BucketStat
	ByPostings []profilephase.BucketStat
	Fit        stats.LinearFit
	Service    stats.Summary         // seconds
	samples    []profilephase.Sample // one per query, in Analyzed order
}

// E4ServiceTimeAnatomy correlates service time with query properties.
func (c *Context) E4ServiceTimeAnatomy() E4Result {
	searcher := search.NewSearcher(c.Segment(), search.Options{TopK: 10, UseMaxScore: false})
	var a profilephase.Anatomy
	for _, q := range c.Analyzed() {
		start := time.Now()
		r := searcher.Search(q)
		a.Add(profilephase.Sample{
			Terms:    len(q.Terms),
			Postings: r.PostingsScanned,
			Matches:  r.Matches,
			Service:  time.Since(start),
		})
	}
	fit, _ := a.CorrelatePostings()
	secs := make([]float64, len(a.Samples))
	for i, s := range a.Samples {
		secs[i] = s.Service.Seconds()
	}
	res := E4Result{
		ByTerms:    a.ByTerms(),
		ByPostings: a.ByPostings(6),
		Fit:        fit,
		Service:    stats.Summarize(secs),
		samples:    a.Samples,
	}
	c.section("E4", "service-time anatomy")
	fmt.Fprintf(c.Out, "service time by query length:\n")
	w := c.table()
	for _, b := range res.ByTerms {
		fmt.Fprintf(w, "  %s\tn=%d\tmean=%v\tp99=%v\n", b.Label, b.Count, b.Mean, b.P99)
	}
	w.Flush()
	fmt.Fprintf(c.Out, "service time by postings scanned:\n")
	w = c.table()
	for _, b := range res.ByPostings {
		fmt.Fprintf(w, "  %s\tn=%d\tmean=%v\tp99=%v\n", b.Label, b.Count, b.Mean, b.P99)
	}
	w.Flush()
	fmt.Fprintf(c.Out, "latency vs postings linear fit: R2=%.3f slope=%.1fns/posting\n",
		res.Fit.R2, res.Fit.Slope*1e9)
	fmt.Fprintf(c.Out, "service time: mean=%.3fms p50=%.3fms p99=%.3fms max=%.3fms (CV=%.2f)\n",
		res.Service.Mean*1e3, res.Service.P50*1e3, res.Service.P99*1e3, res.Service.Max*1e3,
		res.Service.StdDev/res.Service.Mean)
	return res
}
