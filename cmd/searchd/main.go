// Command searchd serves an index over HTTP: one index-serving node of
// the benchmark's cluster tier, with intra-server partitioning.
//
// Usage:
//
//	searchd -addr :8081 -docs 20000 -partitions 8 -parallel
//
// searchd builds its slice of the synthetic corpus in memory on startup
// (deterministic for a given seed), so multi-node clusters are started by
// giving each node its shard via -shard/-shards. Replicated tiers start
// several nodes with the same -shard (identical slices) and distinct
// -replica labels, then list them as one replica group in the
// front-end's -topology flag:
//
//	searchd -addr :8081 -shard 0 -shards 2 -replica 0
//	searchd -addr :8082 -shard 0 -shards 2 -replica 1
//
// For resilience experiments a node can injure itself with the -fault-*
// flags (deterministic latency/error/blackhole injection in front of the
// handler), letting a live cluster be tested against stragglers and
// failures without external tooling:
//
//	searchd -addr :8082 -shard 1 -shards 2 -fault-latency 50ms -fault-latency-prob 0.05
//
// With -live the node serves a near-real-time mutable index instead of
// an immutable one: POST /docs and POST /delete mutate it while queries
// run, GET /metrics reports the latency histogram and live-index shape,
// and -live-ingest starts a background self-ingest loop (docs/sec) for
// observing query latency under write pressure:
//
//	searchd -addr :8081 -live -live-ingest 500
//
// With -blob-store the node is stateless: it builds nothing and holds
// no index files, serving instead from the manifest published to a blob
// store (a blobd URL or a shared directory). Segment metadata loads
// eagerly; posting blocks are fetched on demand through a block cache
// of -block-cache-mb megabytes, and a background poller swaps in new
// manifest generations as publishers commit them:
//
//	searchd -addr :8081 -blob-store http://127.0.0.1:9300 -block-cache-mb 64
//
// A live node can be the publisher feeding such searchers: with
// -blob-publish every flush and merge uploads the post-change segment
// set as a new generation (content-addressed, so unchanged segments are
// not re-uploaded):
//
//	searchd -addr :8081 -live -data-dir /data/n0 -blob-publish http://127.0.0.1:9300
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"websearchbench/internal/blob"
	"websearchbench/internal/cluster"
	"websearchbench/internal/cluster/resilience"
	"websearchbench/internal/corpus"
	"websearchbench/internal/durable"
	"websearchbench/internal/index"
	"websearchbench/internal/live"
	"websearchbench/internal/partition"
	"websearchbench/internal/search"
	"websearchbench/internal/search/exec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("searchd: ")

	var (
		addr     = flag.String("addr", "127.0.0.1:8081", "listen address")
		name     = flag.String("name", "node-0", "node name")
		docs     = flag.Int("docs", 20000, "corpus documents (whole collection)")
		vocab    = flag.Int("vocab", 30000, "vocabulary size")
		seed     = flag.Int64("seed", 1, "corpus seed")
		parts    = flag.Int("partitions", 4, "intra-server partitions")
		parallel = flag.Bool("parallel", true, "search partitions with parallel workers")
		shard    = flag.Int("shard", 0, "this node's shard number")
		shards   = flag.Int("shards", 1, "total shards in the cluster")
		replica  = flag.Int("replica", 0, "this node's replica number within its shard (labeling only; replicas of a shard serve identical slices)")
		topK     = flag.Int("topk", 10, "results per query")
		drain    = flag.Duration("drain", 5*time.Second, "graceful-shutdown drain timeout")

		execWorkers = flag.Int("exec-workers", 0, "bounded search executor workers shared by all queries (0 = GOMAXPROCS)")
		sharedTh    = flag.Bool("shared-threshold", true, "share the top-k pruning threshold across a query's partitions")

		// Live (near-real-time) serving.
		liveMode    = flag.Bool("live", false, "serve a mutable live index (enables POST /docs and /delete)")
		liveIngest  = flag.Float64("live-ingest", 0, "with -live: background self-ingest rate in docs/sec")
		liveMemDocs = flag.Int("live-memtable", 1024, "with -live: memtable flush threshold in docs")
		liveSegs    = flag.Int("live-max-segments", 8, "with -live: segment-count budget before merging")
		liveRefresh = flag.Int("live-refresh", 1, "with -live: publish a snapshot every N mutations")

		// Durability: with -data-dir the live index journals every
		// mutation to a write-ahead log, persists flushed segments with
		// checksums, and recovers its state across restarts and crashes.
		dataDir       = flag.String("data-dir", "", "with -live: durable storage directory (empty = in-memory only)")
		fsyncPolicy   = flag.String("fsync", "always", "with -data-dir: WAL fsync policy: always, interval or none")
		fsyncInterval = flag.Duration("fsync-interval", 100*time.Millisecond, "with -fsync interval: background sync period")

		// Disaggregated storage: serve from (or publish to) a blob store.
		blobStore    = flag.String("blob-store", "", "serve statelessly from this blob store (blobd URL or directory) instead of building an index")
		blockCacheMB = flag.Int("block-cache-mb", 64, "with -blob-store: posting-block cache budget in MiB")
		blobPoll     = flag.Duration("blob-poll", 2*time.Second, "with -blob-store: manifest poll interval")
		blobPublish  = flag.String("blob-publish", "", "with -live: publish every flush/merge to this blob store")
		blobRetain   = flag.Int("blob-retain", 3, "with -blob-publish: manifest generations retained by the post-publish sweep")

		// Fault injection, for resilience experiments against a live
		// node: searchd can make itself a straggler, an error source,
		// or a blackhole.
		faultLatency   = flag.Duration("fault-latency", 0, "injected latency per faulted request")
		faultLatProb   = flag.Float64("fault-latency-prob", 0, "probability of injecting latency")
		faultErrProb   = flag.Float64("fault-error-prob", 0, "probability of injecting a 503")
		faultBlackProb = flag.Float64("fault-blackhole-prob", 0, "probability of swallowing a request")
		faultSeed      = flag.Int64("fault-seed", 1, "fault-injection random seed")
	)
	flag.Parse()
	if *shard < 0 || *shards <= 0 || *shard >= *shards {
		log.Fatalf("invalid shard %d of %d", *shard, *shards)
	}
	if *liveMode && *blobStore != "" {
		log.Fatal("-live and -blob-store are mutually exclusive (a live node publishes with -blob-publish)")
	}
	if *blobPublish != "" && !*liveMode {
		log.Fatal("-blob-publish requires -live (offline builds publish via indexer -publish)")
	}
	if *replica < 0 {
		log.Fatalf("invalid replica %d", *replica)
	}
	if *replica > 0 && *name == "node-0" {
		// Default name: make replicas of a shard distinguishable in logs
		// and /stats without requiring an explicit -name per process.
		*name = fmt.Sprintf("node-%d-r%d", *shard, *replica)
	}
	if *execWorkers > 0 {
		exec.SetDefaultWorkers(*execWorkers)
	}

	cfg := corpus.DefaultConfig()
	cfg.NumDocs = *docs
	cfg.VocabSize = *vocab
	cfg.Seed = *seed
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// newSearcher builds the read path of a static or blob-served node,
	// pruned like the facade's and the live views'.
	newSearcher := func(idx *partition.Index) *partition.Searcher {
		sr := partition.NewSearcher(idx, search.Options{TopK: *topK, UseMaxScore: true}, *parallel)
		sr.SetSharedPruning(*sharedTh)
		return sr
	}
	var node *cluster.Node
	var serving string
	var store *durable.Store
	if *liveMode {
		lcfg := live.Config{
			MemtableMaxDocs: *liveMemDocs,
			MaxSegments:     *liveSegs,
			RefreshEvery:    *liveRefresh,
			Parallel:        *parallel,
		}
		var li *live.Index
		if *dataDir != "" {
			policy, err := durable.ParseFsyncPolicy(*fsyncPolicy)
			if err != nil {
				log.Fatal(err)
			}
			li, store, err = durable.OpenIndex(*dataDir, lcfg, durable.Options{
				Fsync:         policy,
				FsyncInterval: *fsyncInterval,
			})
			if err != nil {
				log.Fatal(err)
			}
			rs := store.RecoveryStats()
			fmt.Printf("%s recovered %s: generation %d, %d segments (%d quarantined), %d WAL records replayed (%d bytes, %d truncated) in %v\n",
				*name, *dataDir, rs.ManifestGeneration, rs.SegmentsLoaded, rs.SegmentsQuarantined,
				rs.ReplayedRecords, rs.ReplayedBytes, rs.TruncatedBytes, rs.RecoveryTime.Round(time.Millisecond))
		} else {
			lcfg.RefreshEvery = 1 << 30 // bulk seeding: publish once below
			li = live.NewIndex(lcfg)
		}
		defer li.Close()
		// Seed the corpus unless a previous run durably completed it. The
		// recovered doc count alone cannot gate this: a crash partway
		// through the initial seed leaves a durable index holding a
		// partial corpus, so completion is tracked by a marker file
		// written only after the seed is flushed. Re-seeding is
		// idempotent — existing keys update in place.
		seedMarker := ""
		needSeed := true
		if store != nil {
			seedMarker = filepath.Join(*dataDir, "SEEDED")
			if _, err := os.Stat(seedMarker); err == nil {
				needSeed = false
			} else if n := li.Stats().LiveDocs; n > 0 {
				expected := (*docs - *shard + *shards - 1) / *shards
				log.Printf("warning: recovered %d docs but no seed-complete marker (expected %d for shard %d/%d); re-seeding",
					n, expected, *shard, *shards)
			}
		}
		if needSeed {
			li.SetRefreshEvery(1 << 30) // bulk seeding: publish once below
			i := 0
			gen.GenerateFunc(func(d corpus.Document) {
				if i%*shards == *shard {
					if err := li.Add(d.URL, d.Title, d.Body, d.Quality); err != nil {
						log.Fatal(err)
					}
				}
				i++
			})
			if store != nil {
				// The seed is only complete once it is durable: flush it
				// (persisting segments and rotating the WAL), then drop
				// the marker atomically.
				if err := li.Flush(); err != nil {
					log.Fatal(err)
				}
				err := durable.WriteFileAtomic(durable.NewOSFS(), seedMarker, func(w io.Writer) error {
					_, err := fmt.Fprintf(w, "seeded %d docs (shard %d/%d, seed %d)\n",
						li.Stats().LiveDocs, *shard, *shards, *seed)
					return err
				})
				if err != nil {
					log.Fatal(err)
				}
			}
		}
		li.SetRefreshEvery(*liveRefresh)
		li.Refresh()
		if *blobPublish != "" {
			pst, err := blob.Open(*blobPublish)
			if err != nil {
				log.Fatal(err)
			}
			pub := &blob.Publisher{Store: pst, CreatedBy: "live", Retain: *blobRetain}
			sink := live.Sink(blob.NewLiveSink(pub))
			if store != nil {
				sink = live.MultiSink{store, sink}
			}
			li.SetDurableSink(sink)
			// Make the current state visible to stateless searchers now:
			// flush captures any seeded memtable, and if that was a no-op
			// (recovered index, empty memtable) re-emit the segment set.
			if err := li.Flush(); err != nil {
				log.Fatal(err)
			}
			if _, ok, err := blob.LoadManifest(pst); err != nil {
				log.Fatal(err)
			} else if !ok {
				if err := li.PublishCommit(); err != nil {
					log.Fatal(err)
				}
			}
		}
		if *liveIngest > 0 {
			go selfIngest(li, cfg, *liveIngest)
		}
		node = cluster.NewLiveNode(*name, li, *topK)
		serving = fmt.Sprintf("%d live docs (memtable %d, max %d segments)",
			li.Stats().LiveDocs, *liveMemDocs, *liveSegs)
		if store != nil {
			serving += fmt.Sprintf(", durable in %s (fsync %s)", *dataDir, *fsyncPolicy)
		}
		if *blobPublish != "" {
			serving += fmt.Sprintf(", publishing to %s", *blobPublish)
		}
	} else if *blobStore != "" {
		st, err := blob.Open(*blobStore)
		if err != nil {
			log.Fatal(err)
		}
		cache := blob.NewBlockCache(int64(*blockCacheMB) << 20)
		src := blob.NewCachedSegmentSource(st, cache)
		makeSearcher := func(snap *blob.Snapshot) *partition.Searcher {
			segs := snap.Segments
			if len(segs) == 0 {
				// An empty manifest still needs a servable searcher.
				segs = []*index.Segment{index.NewBuilder().Finalize()}
			}
			sr := newSearcher(partition.FromSegments(segs))
			for p, data := range snap.Tombs {
				if len(data) == 0 {
					continue
				}
				t, err := live.UnmarshalTombstones(data)
				if err != nil {
					log.Printf("warning: partition %d tombstones: %v (serving without deletes)", p, err)
					continue
				}
				if t.Count() > 0 {
					sr.SetPartitionDeleted(p, t.Has)
				}
			}
			return sr
		}
		// Block until a publisher has committed a first manifest.
		var snap *blob.Snapshot
		for logged := false; ; time.Sleep(500 * time.Millisecond) {
			s, ok, err := src.LoadSnapshot()
			if err != nil {
				log.Fatal(err)
			}
			if ok {
				snap = s
				break
			}
			if !logged {
				log.Printf("waiting for a manifest in %s", *blobStore)
				logged = true
			}
		}
		node = cluster.NewNodeFromSearcher(*name, makeSearcher(snap), *topK)
		poller := &blob.Poller{
			Source:   src,
			Interval: *blobPoll,
			Logf:     log.Printf,
			OnSwap:   func(s *blob.Snapshot) { node.SetSearcher(makeSearcher(s)) },
		}
		poller.SetGeneration(snap.Manifest.Generation)
		node.SetBlobMetrics(func() *cluster.BlobMetrics {
			return &cluster.BlobMetrics{SourceStats: src.Stats(), Generation: poller.Generation()}
		})
		go poller.Run(context.Background())
		docs := 0
		for _, seg := range snap.Segments {
			docs += seg.NumDocs()
		}
		serving = fmt.Sprintf("generation %d from %s (%d segments, %d docs, %d MiB block cache)",
			snap.Manifest.Generation, *blobStore, len(snap.Segments), docs, *blockCacheMB)
	} else {
		b, err := partition.NewBuilder(*parts, partition.RoundRobin, 0)
		if err != nil {
			log.Fatal(err)
		}
		i := 0
		gen.GenerateFunc(func(d corpus.Document) {
			if i%*shards == *shard {
				b.AddCorpusDoc(d)
			}
			i++
		})
		idx := b.Finalize()
		node = cluster.NewNodeFromSearcher(*name, newSearcher(idx), *topK)
		serving = fmt.Sprintf("%d docs in %d partitions", idx.NumDocs(), idx.NumPartitions())
	}
	node.SetDrainTimeout(*drain)
	var wrap func(http.Handler) http.Handler
	injecting := *faultLatProb > 0 || *faultErrProb > 0 || *faultBlackProb > 0
	if injecting {
		cfg := resilience.FaultConfig{
			Latency:       *faultLatency,
			LatencyProb:   *faultLatProb,
			ErrorProb:     *faultErrProb,
			BlackholeProb: *faultBlackProb,
			Seed:          *faultSeed,
		}
		wrap = func(h http.Handler) http.Handler { return resilience.NewFaultInjector(h, cfg) }
	}
	bound, err := node.StartWith(*addr, wrap)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s serving %s on http://%s (shard %d/%d, replica %d)\n",
		*name, serving, bound, *shard, *shards, *replica)
	if *liveMode && *liveIngest > 0 {
		fmt.Printf("%s self-ingesting %.0f docs/sec\n", *name, *liveIngest)
	}
	if injecting {
		fmt.Printf("%s injecting faults: latency %v@%.0f%%, errors %.0f%%, blackholes %.0f%%\n",
			*name, *faultLatency, *faultLatProb*100, *faultErrProb*100, *faultBlackProb*100)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	if err := node.Close(); err != nil {
		log.Fatal(err)
	}
	if store != nil {
		// Graceful shutdown: flush the memtable (persisting it and
		// rotating the WAL down to empty) so the next startup replays
		// nothing. A crash skips this — that is what the WAL is for.
		if li := node.Live(); li != nil {
			if err := li.Flush(); err != nil {
				log.Printf("final flush: %v", err)
			}
		}
		if err := store.Close(); err != nil {
			log.Fatal(err)
		}
	}
}

// selfIngest re-ingests corpus documents into li at the given rate,
// cycling keys so every pass after the first is a stream of updates
// (tombstoning the prior versions and exercising merges). It runs until
// the process exits.
func selfIngest(li *live.Index, cfg corpus.Config, rate float64) {
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		return
	}
	var docs []corpus.Document
	gen.GenerateFunc(func(d corpus.Document) { docs = append(docs, d) })
	if len(docs) == 0 {
		return
	}
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for i := 0; ; i++ {
		<-tick.C
		d := docs[i%len(docs)]
		li.Add(d.URL, d.Title, d.Body, d.Quality)
	}
}
