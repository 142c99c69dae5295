// Command indexer generates the synthetic web corpus and builds an index
// segment file, optionally alongside a query trace.
//
// Usage:
//
//	indexer -docs 20000 -vocab 30000 -out index.seg -trace queries.txt
//
// Builds run through the parallel indexing pipeline: the corpus is
// streamed into -workers build workers (default all CPUs), each building
// whole chunks of -segment-docs documents, and the chunks are merged once
// into a single segment. Output is byte-identical for any worker count
// and chunk size; -workers 1 with the default -segment-docs streams the
// corpus into one builder and merges nothing. Progress (docs/s, MB/s) is
// reported every few seconds on stderr.
//
// With -publish the finished segment is also uploaded to a blob store
// (a blobd URL or a shared directory) and committed as a manifest
// generation, ready for stateless searchd -blob-store nodes:
//
//	indexer -docs 20000 -out index.seg -publish http://127.0.0.1:9300
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"time"

	"websearchbench/internal/blob"
	"websearchbench/internal/corpus"
	"websearchbench/internal/durable"
	"websearchbench/internal/index/pipeline"
	"websearchbench/internal/workload"
)

// startProgress launches a ticker that reports build progress (docs/s,
// MB/s, elapsed) on stderr until the returned stop
// function is called. A zero interval disables reporting.
func startProgress(p *pipeline.Pipeline, every time.Duration) (stop func()) {
	if every <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(every)
		defer t.Stop()
		var lastDocs, lastBytes int64
		for {
			select {
			case <-done:
				return
			case <-t.C:
			}
			st := p.Stats()
			log.Printf("progress: %d docs (%.0f docs/s, %.1f MB/s), %d segments cut, %.1fs elapsed",
				st.DocsIndexed,
				float64(st.DocsIndexed-lastDocs)/every.Seconds(),
				float64(st.BytesIndexed-lastBytes)/every.Seconds()/(1<<20),
				st.SegmentsCut, st.Elapsed.Seconds())
			lastDocs, lastBytes = st.DocsIndexed, st.BytesIndexed
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("indexer: ")

	var (
		docs     = flag.Int("docs", 20000, "number of documents to generate")
		vocab    = flag.Int("vocab", 30000, "vocabulary size")
		meanLen  = flag.Int("meanlen", 250, "mean document length in terms")
		seed     = flag.Int64("seed", 1, "corpus seed")
		out      = flag.String("out", "index.seg", "output segment file")
		publish  = flag.String("publish", "", "also publish the segment to this blob store (blobd URL or directory)")
		trace    = flag.String("trace", "", "also write a query trace to this file")
		timed    = flag.String("timed", "", "also write a timed (replayable) trace to this file")
		rate     = flag.Float64("rate", 100, "arrival rate for the timed trace (qps)")
		queries  = flag.Int("queries", 10000, "queries to write to the trace")
		workers  = flag.Int("workers", runtime.NumCPU(), "parallel build workers")
		segDocs  = flag.Int("segment-docs", 0, "documents per chunk (0 = one chunk at -workers 1, else 2048)")
		progress = flag.Duration("progress", 3*time.Second, "progress report interval (0 disables)")
	)
	flag.Parse()

	cfg := corpus.DefaultConfig()
	cfg.NumDocs = *docs
	cfg.VocabSize = *vocab
	cfg.MeanBodyTerms = *meanLen
	cfg.Seed = *seed

	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		log.Fatal(err)
	}
	p := pipeline.New(pipeline.Config{Workers: *workers, SegmentDocs: *segDocs})
	stopProgress := startProgress(p, *progress)
	seg, err := p.Run(gen.GenerateFunc)
	stopProgress()
	if err != nil {
		log.Fatal(err)
	}
	bs := p.Stats()
	log.Printf("built %d docs in %.2fs (%.0f docs/s, %.1f MB/s): %d segments cut",
		bs.DocsIndexed, bs.Elapsed.Seconds(),
		float64(bs.DocsIndexed)/bs.Elapsed.Seconds(),
		float64(bs.BytesIndexed)/bs.Elapsed.Seconds()/(1<<20),
		bs.SegmentsCut)
	// Write-temp-fsync-rename so a crashed or interrupted indexer never
	// leaves a half-written file under the output name.
	var n int64
	err = durable.WriteFileAtomic(durable.NewOSFS(), *out, func(w io.Writer) error {
		var werr error
		n, werr = seg.WriteTo(w)
		return werr
	})
	if err != nil {
		log.Fatal(err)
	}
	st := seg.ComputeStats(5)
	fmt.Printf("wrote %s: %d docs, %d terms, %d postings, %d bytes (compression %.2fx)\n",
		*out, st.NumDocs, st.NumTerms, st.TotalPostings, n, st.CompressionRatio)

	if *publish != "" {
		bst, err := blob.Open(*publish)
		if err != nil {
			log.Fatal(err)
		}
		pub := &blob.Publisher{Store: bst, CreatedBy: "indexer", Retain: 3}
		m, err := pub.Publish([]blob.PubSegment{{ID: 1, Seg: seg}})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("published generation %d to %s (%d segment blobs)\n",
			m.Generation, *publish, len(m.Segments))
	}

	if *trace != "" || *timed != "" {
		gen, err := workload.NewGenerator(workload.DefaultConfig(), corpus.NewVocabulary(*vocab))
		if err != nil {
			log.Fatal(err)
		}
		if *trace != "" {
			tf, err := os.Create(*trace)
			if err != nil {
				log.Fatal(err)
			}
			if err := workload.WriteTrace(tf, gen.Generate(*queries)); err != nil {
				log.Fatal(err)
			}
			if err := tf.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s: %d queries\n", *trace, *queries)
		}
		if *timed != "" {
			tt, err := gen.GenerateTimed(*queries, *rate, nil)
			if err != nil {
				log.Fatal(err)
			}
			tf, err := os.Create(*timed)
			if err != nil {
				log.Fatal(err)
			}
			if err := workload.WriteTimedTrace(tf, tt); err != nil {
				log.Fatal(err)
			}
			if err := tf.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s: %d timed queries at %.0f qps\n", *timed, *queries, *rate)
		}
	}
}
