// Command indexer generates the synthetic web corpus and builds an index
// segment file, optionally alongside a query trace.
//
// Usage:
//
//	indexer -docs 20000 -vocab 30000 -out index.seg -trace queries.txt
//
// Builds run through the parallel indexing pipeline: -workers analyze/
// build workers (default all CPUs) consume the streamed corpus, cutting
// segments every -segment-docs documents while a background tier merges
// them, and the result is compacted to a single segment. Output is
// byte-identical for any worker count; -workers 1 with the default
// -segment-docs is the plain single-builder path. Progress (docs/s,
// MB/s) is reported every few seconds on stderr.
//
// With -live the corpus is streamed through the near-real-time ingest
// path (memtable, flushes, tiered merges) and compacted to a single
// segment before serialization — exercising exactly the machinery a
// live searchd node runs, and proving the two paths produce equivalent
// on-disk indexes. Live segments carry no positions.
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
	"websearchbench/internal/index"
	"websearchbench/internal/index/pipeline"
	"websearchbench/internal/live"
	"websearchbench/internal/workload"
)

// startProgress launches a ticker that reports build progress (docs/s,
// MB/s, elapsed, merge backlog) on stderr until the returned stop
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
			log.Printf("progress: %d docs (%.0f docs/s, %.1f MB/s), %d segments cut, %d merges, backlog %d, %.1fs elapsed",
				st.DocsIndexed,
				float64(st.DocsIndexed-lastDocs)/every.Seconds(),
				float64(st.BytesIndexed-lastBytes)/every.Seconds()/(1<<20),
				st.SegmentsCut, st.Merges, st.MergeBacklog, st.Elapsed.Seconds())
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
		liveMode = flag.Bool("live", false, "build through the live-ingest path, then compact")
		out      = flag.String("out", "index.seg", "output segment file")
		publish  = flag.String("publish", "", "also publish the segment to this blob store (blobd URL or directory)")
		trace    = flag.String("trace", "", "also write a query trace to this file")
		timed    = flag.String("timed", "", "also write a timed (replayable) trace to this file")
		rate     = flag.Float64("rate", 100, "arrival rate for the timed trace (qps)")
		queries  = flag.Int("queries", 10000, "queries to write to the trace")
		workers  = flag.Int("workers", runtime.NumCPU(), "parallel analyze/build workers (1 = serial single-builder path)")
		segDocs  = flag.Int("segment-docs", 0, "documents per intermediate segment (0 = auto; ignored with -workers 1)")
		progress = flag.Duration("progress", 3*time.Second, "progress report interval (0 disables)")
	)
	flag.Parse()

	cfg := corpus.DefaultConfig()
	cfg.NumDocs = *docs
	cfg.VocabSize = *vocab
	cfg.MeanBodyTerms = *meanLen
	cfg.Seed = *seed

	var seg *index.Segment
	if *liveMode {
		gen, err := corpus.NewGenerator(cfg)
		if err != nil {
			log.Fatal(err)
		}
		li := live.NewIndex(live.Config{RefreshEvery: 1 << 30})
		gen.GenerateFunc(func(d corpus.Document) {
			if err := li.Add(d.URL, d.Title, d.Body, d.Quality); err != nil {
				log.Fatal(err)
			}
		})
		if err := li.Compact(); err != nil {
			log.Fatal(err)
		}
		seg = li.Segment()
		li.Close()
		if seg == nil {
			log.Fatal("live compaction did not converge to a single segment")
		}
	} else {
		gen, err := corpus.NewGenerator(cfg)
		if err != nil {
			log.Fatal(err)
		}
		p := pipeline.New(pipeline.Config{
			Workers:     *workers,
			SegmentDocs: *segDocs,
			Compact:     true,
		})
		stopProgress := startProgress(p, *progress)
		// Stream generated documents through a bounded channel: generation
		// runs concurrently with indexing and blocks when the workers fall
		// behind (backpressure), instead of materializing the corpus.
		ch := make(chan pipeline.Doc, 4*p.Config().Workers)
		go func() {
			defer close(ch)
			gen.GenerateFunc(func(d corpus.Document) {
				ch <- pipeline.Doc{Title: d.Title, Body: d.Body, URL: d.URL, Quality: d.Quality}
			})
		}()
		res, err := p.Run(pipeline.FromChan(ch))
		stopProgress()
		if err != nil {
			log.Fatal(err)
		}
		seg = res.Segments[0]
		st := p.Stats()
		log.Printf("built %d docs in %.2fs (%.0f docs/s, %.1f MB/s): %d segments cut, %d merges, first searchable after %.2fs",
			res.Docs, res.Elapsed.Seconds(),
			float64(res.Docs)/res.Elapsed.Seconds(),
			float64(res.Bytes)/res.Elapsed.Seconds()/(1<<20),
			st.SegmentsCut, st.Merges, res.TimeToFirstSegment.Seconds())
	}
	// Write-temp-fsync-rename so a crashed or interrupted indexer never
	// leaves a half-written file under the output name.
	var n int64
	err := durable.WriteFileAtomic(durable.NewOSFS(), *out, func(w io.Writer) error {
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
