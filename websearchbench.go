// Package websearchbench is a from-scratch reproduction of the web search
// benchmark characterized by Hadjilambrou, Kleanthous and Sazeides
// (ISPASS 2015): a complete search engine (analyzer, compressed inverted
// index, BM25 top-k retrieval with MaxScore pruning), intra-server index
// partitioning, a distributed front-end/index-node tier, a Faban-style
// load driver, and a calibrated discrete-event server simulator used for
// the paper's partitioning and low-power-server studies.
//
// This file is the high-level facade: build an engine over a synthetic
// web corpus and search it. The full machinery lives under internal/
// (see DESIGN.md for the map) and the paper's evaluation is regenerated
// by cmd/benchrunner.
package websearchbench

import (
	"fmt"
	"slices"

	"websearchbench/internal/corpus"
	"websearchbench/internal/index"
	"websearchbench/internal/live"
	"websearchbench/internal/partition"
	"websearchbench/internal/qcache"
	"websearchbench/internal/search"
	"websearchbench/internal/textproc"
)

// Config configures an Engine.
type Config struct {
	// Docs is the synthetic corpus size (default 20000).
	Docs int
	// VocabSize is the number of distinct terms (default 30000).
	VocabSize int
	// Seed makes the corpus reproducible (default 1).
	Seed int64
	// Partitions is the intra-server partition count (default 1).
	Partitions int
	// Parallel searches partitions (or, with Live, segments) with
	// concurrent workers on the process-wide bounded search executor.
	Parallel bool
	// TopK is the number of results per query (default 10).
	TopK int
	// GlobalStats enables distributed-IDF scoring so results are
	// identical regardless of the partition count.
	GlobalStats bool
	// Conjunctive makes Search require all query terms (AND semantics).
	Conjunctive bool
	// Positions stores term positions in the index, enabling quoted
	// phrase queries ("tail latency").
	Positions bool
	// CacheSize, when positive, adds a frequency-admitted (W-TinyLFU)
	// result cache in front of the engine: repeated queries (which
	// dominate real web streams) are answered without touching the
	// index. With Live the cache is generation-stamped: every published
	// mutation batch starts a new generation, so a result cached before a
	// delete is never served after it.
	CacheSize int
	// Live routes the engine through a near-real-time mutable index
	// (internal/live) seeded with the synthetic corpus: Add, Update and
	// Delete become available and are promptly visible to Search. Live
	// indexes do not store positions, so it cannot be combined with
	// Positions, and the Partitions/GlobalStats knobs do not apply.
	Live bool
	// LiveConfig tunes the live index when Live is set; the zero value
	// selects the live package's defaults.
	LiveConfig live.Config
}

// Result is one search hit.
type Result struct {
	URL     string
	Title   string
	Snippet string
	// Highlighted is the snippet with query terms wrapped in <b> tags.
	Highlighted string
	Score       float64
}

// Engine is an in-process web search engine over a partitioned or live
// index. It is safe for concurrent use.
type Engine struct {
	cfg  Config
	mode search.Mode
	// acquire returns the immutable view set a query runs against and
	// the generation it was published at; the query Releases it when
	// done. A static engine always returns its one searcher, at
	// generation 0; a live engine returns the current snapshot's.
	acquire func() (*partition.Searcher, uint64)
	// cache is keyed by generation, so a result computed before a
	// mutation batch can never be replayed against the newer index state.
	cache *qcache.Generational[[]Result]
	// idx is the static engine's index and live the live engine's; the
	// other is nil.
	idx  *partition.Index
	live *live.Index
	// analyzer is stateless and shared across queries, so the facade
	// does not rebuild the stopword set per search.
	analyzer *textproc.Analyzer
}

// New builds an Engine: it generates the synthetic corpus and indexes it
// into the configured number of partitions.
func New(cfg Config) (*Engine, error) {
	// Zero means "use the default"; negative values are configuration
	// errors rather than silently repaired.
	if cfg.Docs < 0 || cfg.VocabSize < 0 || cfg.Partitions < 0 || cfg.TopK < 0 {
		return nil, fmt.Errorf("websearchbench: negative config value in %+v", cfg)
	}
	if cfg.Docs == 0 {
		cfg.Docs = 20000
	}
	if cfg.VocabSize == 0 {
		cfg.VocabSize = 30000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Partitions == 0 {
		cfg.Partitions = 1
	}
	if cfg.TopK == 0 {
		cfg.TopK = 10
	}
	ccfg := corpus.DefaultConfig()
	ccfg.NumDocs = cfg.Docs
	ccfg.VocabSize = cfg.VocabSize
	ccfg.Seed = cfg.Seed
	e := &Engine{cfg: cfg, mode: search.ModeOr, analyzer: textproc.NewAnalyzer()}
	if cfg.Conjunctive {
		e.mode = search.ModeAnd
	}
	if cfg.CacheSize > 0 {
		e.cache = qcache.NewGenerational[[]Result](cfg.CacheSize)
	}
	if cfg.Live {
		if err := e.seedLive(ccfg); err != nil {
			return nil, err
		}
		return e, nil
	}
	var bopts []index.BuilderOption
	if cfg.Positions {
		bopts = append(bopts, index.WithPositions())
	}
	idx, err := partition.Build(ccfg, cfg.Partitions, partition.RoundRobin, bopts...)
	if err != nil {
		return nil, fmt.Errorf("websearchbench: %w", err)
	}
	opts := search.Options{TopK: cfg.TopK, UseMaxScore: true}
	if cfg.GlobalStats {
		opts.Stats = partition.GlobalStats(idx)
	}
	sr := partition.NewSearcher(idx, opts, cfg.Parallel)
	e.idx = idx
	e.acquire = func() (*partition.Searcher, uint64) { return sr, 0 }
	return e, nil
}

// seedLive makes e a live-mode engine: the synthetic corpus is streamed
// into a mutable live index (keyed by URL) instead of immutable
// partitions.
func (e *Engine) seedLive(ccfg corpus.Config) error {
	if e.cfg.Positions {
		return fmt.Errorf("websearchbench: Live does not support Positions (live segments carry no positional postings)")
	}
	gen, err := corpus.NewGenerator(ccfg)
	if err != nil {
		return fmt.Errorf("websearchbench: %w", err)
	}
	lcfg := e.cfg.LiveConfig
	lcfg.Parallel = lcfg.Parallel || e.cfg.Parallel
	seedRefresh := lcfg.RefreshEvery
	// Seeding publishes once at the end, not once per document.
	lcfg.RefreshEvery = 1 << 30
	li := live.NewIndex(lcfg)
	gen.GenerateFunc(func(d corpus.Document) {
		li.Add(d.URL, d.Title, d.Body, d.Quality)
	})
	li.SetRefreshEvery(seedRefresh)
	li.Refresh()
	e.live = li
	e.acquire = func() (*partition.Searcher, uint64) {
		snap := li.Acquire()
		return snap.Searcher(), snap.Generation()
	}
	return nil
}

// Search evaluates a free-text query and returns the ranked results.
// The slice is the caller's: editing it changes no later answer.
func (e *Engine) Search(query string) []Result {
	sr, gen := e.acquire()
	defer sr.Release()
	if e.cache != nil {
		if cached, ok := e.cache.GetAt(gen, query); ok {
			return slices.Clone(cached)
		}
	}
	q := search.ParseQuery(e.analyzer, query, e.mode)
	sc := partition.GetScratch()
	defer partition.PutScratch(sc)
	sr.SearchInto(q, e.cfg.TopK, sc)
	// Highlighting matches loose terms and phrase members alike; without
	// phrases the parsed terms are used as-is.
	highlightTerms := q.Terms
	if len(q.Phrases) > 0 {
		highlightTerms = append([]string(nil), q.Terms...)
		for _, p := range q.Phrases {
			highlightTerms = append(highlightTerms, p...)
		}
	}
	out := make([]Result, 0, len(sc.Hits))
	for _, h := range sc.Hits {
		doc := sr.Doc(h.Doc)
		snip := search.MakeSnippet(e.analyzer, doc.Snippet, highlightTerms, 0)
		out = append(out, Result{
			URL:         doc.URL,
			Title:       doc.Title,
			Snippet:     doc.Snippet,
			Highlighted: snip.HTML(),
			Score:       h.Score,
		})
	}
	if e.cache != nil && !sc.Incomplete {
		e.cache.PutAt(gen, query, slices.Clone(out))
	}
	return out
}

// mustLive guards the mutation API against static engines.
func (e *Engine) mustLive() *live.Index {
	if e.live == nil {
		panic("websearchbench: engine not configured with Live")
	}
	return e.live
}

// Add ingests (or replaces) a document in a live engine. The key doubles
// as the result URL. It panics on an engine built without Config.Live.
// The error is always nil for in-memory engines; with a durable sink it
// reports journaling or flush-persistence failures.
func (e *Engine) Add(key, title, body string, quality float64) error {
	return e.mustLive().Add(key, title, body, quality)
}

// Update replaces the document stored under key in a live engine.
func (e *Engine) Update(key, title, body string, quality float64) error {
	return e.mustLive().Update(key, title, body, quality)
}

// Delete removes a document from a live engine, reporting whether the
// key existed.
func (e *Engine) Delete(key string) (bool, error) { return e.mustLive().Delete(key) }

// Live exposes the underlying live index (nil for static engines).
func (e *Engine) Live() *live.Index { return e.live }

// LiveStats reports the live index's shape; ok is false for static
// engines.
func (e *Engine) LiveStats() (stats live.Stats, ok bool) {
	if e.live == nil {
		return live.Stats{}, false
	}
	return e.live.Stats(), true
}

// Close releases background resources (the live index's merge
// scheduler). It is a no-op for static engines.
func (e *Engine) Close() {
	if e.live != nil {
		e.live.Close()
	}
}

// CacheHitRate reports the engine result cache's lifetime hit rate (0
// when no cache is configured).
func (e *Engine) CacheHitRate() float64 {
	if e.cache == nil {
		return 0
	}
	return e.cache.HitRate()
}

// NumDocs returns the number of indexed (live) documents.
func (e *Engine) NumDocs() int {
	sr, _ := e.acquire()
	defer sr.Release()
	return sr.NumDocs()
}

// NumPartitions returns the intra-server partition count (1 for live
// engines, whose sharding is segment-based rather than partition-based).
func (e *Engine) NumPartitions() int {
	if e.live != nil {
		return 1
	}
	return e.idx.NumPartitions()
}

// Index exposes the underlying partitioned index for advanced use (the
// examples use it to serve HTTP nodes). It is nil for live engines.
func (e *Engine) Index() *partition.Index { return e.idx }
