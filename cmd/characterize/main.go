// Command characterize inspects a serialized index segment (built by
// cmd/indexer): it prints the index-anatomy table and, given a query
// trace, the workload characterization and per-phase service-time
// breakdown — the offline counterpart of experiments E1–E4.
//
// Usage:
//
//	characterize -index index.seg
//	characterize -index index.seg -trace queries.txt
//	characterize -index index.seg -term websearch
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"
	"time"

	"websearchbench/internal/index"
	"websearchbench/internal/profilephase"
	"websearchbench/internal/search"
	"websearchbench/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("characterize: ")

	var (
		indexPath = flag.String("index", "index.seg", "segment file to inspect")
		tracePath = flag.String("trace", "", "query trace to characterize against the index")
		term      = flag.String("term", "", "print one term's dictionary entry and exit")
		topN      = flag.Int("top", 10, "most frequent terms to list")
	)
	flag.Parse()

	f, err := os.Open(*indexPath)
	if err != nil {
		log.Fatal(err)
	}
	seg, err := index.ReadSegment(f)
	f.Close()
	if err != nil {
		log.Fatalf("reading %s: %v", *indexPath, err)
	}

	if *term != "" {
		lookupTerm(seg, *term)
		return
	}

	printStats(seg, *topN)
	if *tracePath != "" {
		characterizeTrace(seg, *tracePath)
	}
}

func lookupTerm(seg *index.Segment, term string) {
	ti, ok := seg.Term(term)
	if !ok {
		fmt.Printf("term %q: not in dictionary\n", term)
		return
	}
	fmt.Printf("term %q: df=%d cf=%d idf=%.4f maxScore=%.4f\n",
		term, ti.DocFreq, ti.CollFreq, seg.IDF(term), ti.MaxScore)
	it, _ := seg.Postings(term)
	n := 0
	for it.Next() && n < 10 {
		doc := seg.Doc(it.Doc())
		fmt.Printf("  doc %d (tf=%d): %s\n", it.Doc(), it.Freq(), doc.URL)
		n++
	}
	if int32(n) < ti.DocFreq {
		fmt.Printf("  ... and %d more documents\n", ti.DocFreq-int32(n))
	}
}

func printStats(seg *index.Segment, topN int) {
	st := seg.ComputeStats(topN)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "documents\t%d\n", st.NumDocs)
	fmt.Fprintf(w, "distinct terms\t%d\n", st.NumTerms)
	fmt.Fprintf(w, "postings\t%d\n", st.TotalPostings)
	fmt.Fprintf(w, "term occurrences\t%d\n", st.TotalTermOccs)
	fmt.Fprintf(w, "avg doc length\t%.1f terms\n", st.AvgDocLen)
	fmt.Fprintf(w, "compression\t%.2fx vs raw\n", st.CompressionRatio)
	fmt.Fprintf(w, "positional\t%v\n", seg.HasPositions())
	fmt.Fprintf(w, "postings bytes\t%d\n", st.PostingsBytes)
	fmt.Fprintf(w, "doc store bytes\t%d\n", st.StoredBytes)
	w.Flush()
	if topN > 0 {
		fmt.Println("top terms:")
		w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		for _, tc := range st.TopTerms {
			fmt.Fprintf(w, "  %s\t%d\n", tc.Term, tc.Count)
		}
		w.Flush()
	}
}

func characterizeTrace(seg *index.Segment, path string) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	queries, err := workload.ReadTrace(f)
	f.Close()
	if err != nil {
		log.Fatalf("reading trace %s: %v", path, err)
	}
	if len(queries) == 0 {
		log.Fatal("empty trace")
	}

	ch := workload.Characterize(queries)
	fmt.Printf("\ntrace: %d queries, %d unique, mean %.2f terms, top-10 share %.1f%%\n",
		ch.Queries, ch.UniqueQueries, ch.MeanLen, ch.TopShare*100)

	searcher := search.NewSearcher(seg, search.DefaultOptions())
	var breakdown profilephase.Breakdown
	var anatomy profilephase.Anatomy
	matched := 0
	for _, q := range queries {
		start := time.Now()
		res := searcher.ParseAndSearch(q.Text, q.Mode)
		breakdown.Add(res.Phases)
		anatomy.Add(profilephase.Sample{
			Terms:    len(searcher.Options().Analyzer.AnalyzeQuery(q.Text)),
			Postings: res.PostingsScanned,
			Matches:  res.Matches,
			Service:  time.Since(start),
		})
		if len(res.Hits) > 0 {
			matched++
		}
	}
	fmt.Printf("match rate: %.1f%%\n", 100*float64(matched)/float64(len(queries)))

	fmt.Println("\nper-phase breakdown:")
	for _, s := range breakdown.Shares() {
		fmt.Printf("  %s\n", s)
	}
	fmt.Println("\nservice time by postings scanned:")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for _, b := range anatomy.ByPostings(6) {
		fmt.Fprintf(w, "  %s\tn=%d\tmean=%v\tp99=%v\n", b.Label, b.Count, b.Mean, b.P99)
	}
	w.Flush()
	if fit, err := anatomy.CorrelatePostings(); err == nil {
		fmt.Printf("latency vs postings: R2=%.3f slope=%.1fns/posting\n", fit.R2, fit.Slope*1e9)
	}
}
