package websearchbench

// End-to-end integration tests across subsystem boundaries: the flows a
// downstream user strings together (index to disk and back, parallel
// building, trace replay against a live HTTP cluster).

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"websearchbench/internal/cluster"
	"websearchbench/internal/corpus"
	"websearchbench/internal/index"
	"websearchbench/internal/index/pipeline"
	"websearchbench/internal/loadgen"
	"websearchbench/internal/partition"
	"websearchbench/internal/search"
	"websearchbench/internal/workload"
)

func smallCorpusCfg() corpus.Config {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 400
	cfg.VocabSize = 1500
	cfg.MeanBodyTerms = 40
	return cfg
}

// Build an index, write it to disk, read it back, and verify queries
// return identical results — the indexer -> searchd handoff.
func TestE2EIndexFileRoundTrip(t *testing.T) {
	cfg := smallCorpusCfg()
	seg, err := index.BuildFromCorpus(cfg, index.WithPositions())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.seg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := index.ReadSegment(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	s1 := search.NewSearcher(seg, search.DefaultOptions())
	s2 := search.NewSearcher(loaded, search.DefaultOptions())
	gen, _ := workload.NewGenerator(workload.DefaultConfig(), corpus.NewVocabulary(cfg.VocabSize))
	for _, q := range gen.Generate(100) {
		a := s1.ParseAndSearch(q.Text, q.Mode)
		b := s2.ParseAndSearch(q.Text, q.Mode)
		if !reflect.DeepEqual(a.Hits, b.Hits) {
			t.Fatalf("query %q differs after disk round trip", q.Text)
		}
	}
	// Phrases survive the round trip too (positions preserved).
	title := loaded.Doc(0).Title
	res := s2.ParseAndSearch(`"`+title+`"`, search.ModeOr)
	if len(res.Hits) == 0 {
		t.Errorf("phrase %q matched nothing after round trip", title)
	}
}

// A parallel chunked build, merged once, yields the same search results
// as a one-shot build.
func TestE2EIncrementalIndexing(t *testing.T) {
	cfg := smallCorpusCfg()
	direct, err := index.BuildFromCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := pipeline.New(pipeline.Config{Workers: 2, SegmentDocs: 64}).Run(gen.GenerateFunc)
	if err != nil {
		t.Fatal(err)
	}
	s1 := search.NewSearcher(direct, search.DefaultOptions())
	s2 := search.NewSearcher(merged, search.DefaultOptions())
	qgen, _ := workload.NewGenerator(workload.DefaultConfig(), corpus.NewVocabulary(cfg.VocabSize))
	for _, q := range qgen.Generate(80) {
		a := s1.ParseAndSearch(q.Text, q.Mode)
		b := s2.ParseAndSearch(q.Text, q.Mode)
		if !reflect.DeepEqual(a.Hits, b.Hits) {
			t.Fatalf("query %q: incremental index differs from direct build", q.Text)
		}
	}
}

// Replay a timed trace against a live loopback cluster with a caching
// front-end: the full production-shaped pipeline.
func TestE2ETraceReplayOverCluster(t *testing.T) {
	cfg := smallCorpusCfg()
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := partition.NewBuilder(2, partition.RoundRobin, 0)
	if err != nil {
		t.Fatal(err)
	}
	gen.GenerateFunc(func(d corpus.Document) { b.AddCorpusDoc(d) })
	node := cluster.NewNode("n0", b.Finalize(), search.Options{TopK: 10}, true)
	addr, err := node.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	fe, err := cluster.NewFrontend([]string{"http://" + addr}, 10)
	if err != nil {
		t.Fatal(err)
	}
	fe.EnableCache(64)
	feAddr, err := fe.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()

	qgen, err := workload.NewGenerator(workload.DefaultConfig(), gen.Vocabulary())
	if err != nil {
		t.Fatal(err)
	}
	trace, err := qgen.GenerateTimed(150, 1500, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := loadgen.RunReplay(loadgen.ReplayConfig{
		QoS: loadgen.QoS{Percentile: 90, Target: time.Second},
	}, trace, cluster.NewClient("http://"+feAddr, 10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 150 {
		t.Errorf("Completed = %d, want 150", res.Completed)
	}
	if res.Errors != 0 {
		t.Errorf("Errors = %d", res.Errors)
	}
	// The Zipf stream repeats queries, so the front-end cache must see
	// hits.
	if fe.CacheHitRate() <= 0 {
		t.Error("front-end cache saw no hits on a Zipf stream")
	}
}
