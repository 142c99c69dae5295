package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"websearchbench"
	"websearchbench/internal/blob"
	"websearchbench/internal/corpus"
	"websearchbench/internal/live"
	"websearchbench/internal/partition"
	"websearchbench/internal/search"
)

// answer is what the backends of TestNodeBackendsAgree are compared on.
// matches is -1 where the backend does not report it (the facade).
type answer struct {
	urls    []string
	scores  []float64
	matches int
}

// backend is one way of serving a segment set.
type backend struct {
	name   string
	search func(string, search.Mode) answer
}

// postSearch sends req to a node handler and returns the status and,
// on 200, the decoded response.
func postSearch(t *testing.T, h http.Handler, req SearchRequest) (int, SearchResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)))
	var resp SearchResponse
	if rec.Code == http.StatusOK {
		if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
	}
	return rec.Code, resp
}

// nodeBackend queries a node over its HTTP handler.
func nodeBackend(t *testing.T, n *Node) func(string, search.Mode) answer {
	return func(q string, mode search.Mode) answer {
		code, resp := postSearch(t, n.Handler(), SearchRequest{Query: q, Mode: mode.String()})
		if code != http.StatusOK {
			t.Fatalf("%s: /search %q status %d", n.name, q, code)
		}
		a := answer{matches: resp.Matches}
		for _, h := range resp.Hits {
			a.urls = append(a.urls, h.URL)
			a.scores = append(a.scores, h.Score)
		}
		return a
	}
}

// facadeBackend queries a pair of engines, one per mode (the facade
// fixes the mode at construction).
func facadeBackend(or, and *websearchbench.Engine) func(string, search.Mode) answer {
	return func(q string, mode search.Mode) answer {
		e := or
		if mode == search.ModeAnd {
			e = and
		}
		a := answer{matches: -1}
		for _, r := range e.Search(q) {
			a.urls = append(a.urls, r.URL)
			a.scores = append(a.scores, r.Score)
		}
		return a
	}
}

// TestNodeBackendsAgree: the one read path answers identically however
// the segments are held. Scores come from per-segment statistics, so
// exact agreement is defined over identical segmentation: a 4-partition
// static node against the same partitions served lazily from a blob
// store, and a one-segment live index (through the node and the facade)
// against a one-partition static index over the same documents. Matches
// counts documents scored and so depends on the pruning strategy; every
// static backend here uses the options live snapshots search their
// segments with.
func TestNodeBackendsAgree(t *testing.T) {
	const docs, vocabSize, seed = 300, 1500, 1
	cfg := corpus.DefaultConfig()
	cfg.NumDocs, cfg.VocabSize, cfg.Seed = docs, vocabSize, seed
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	corpusDocs := gen.Generate()
	vocab := gen.Vocabulary()
	opts := search.Options{TopK: 10, UseMaxScore: true}

	// Range assignment gives the static partitions the docIDs
	// FromSegments gives the blob-served ones, so score ties break alike.
	parted, err := partition.Build(cfg, 4, partition.Range)
	if err != nil {
		t.Fatal(err)
	}
	st := blob.NewMemStore()
	pub := make([]blob.PubSegment, parted.NumPartitions())
	for p := range pub {
		pub[p] = blob.PubSegment{ID: uint64(p + 1), Seg: parted.Segment(p)}
	}
	if _, err := (&blob.Publisher{Store: st, CreatedBy: "test"}).Publish(pub); err != nil {
		t.Fatal(err)
	}
	snap, ok, err := blob.NewCachedSegmentSource(st, blob.NewBlockCache(1<<20)).LoadSnapshot()
	if err != nil || !ok {
		t.Fatalf("load snapshot: ok=%v err=%v", ok, err)
	}
	blobNode := NewNodeFromSearcher("blob-4", partition.NewSearcher(partition.FromSegments(snap.Segments), opts, false), 10)

	single, err := partition.Build(cfg, 1, partition.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	li := live.NewIndex(live.Config{MemtableMaxDocs: 2 * docs})
	defer li.Close()
	for _, d := range corpusDocs {
		if err := li.Add(d.URL, d.Title, d.Body, d.Quality); err != nil {
			t.Fatal(err)
		}
	}
	if err := li.Flush(); err != nil {
		t.Fatal(err)
	}
	if s := li.Stats(); s.Segments != 1 || s.MemtableDocs != 0 {
		t.Fatalf("live index not one flushed segment: %+v", s)
	}

	engine := func(c websearchbench.Config) *websearchbench.Engine {
		c.Docs, c.VocabSize, c.Seed = docs, vocabSize, seed
		e, err := websearchbench.New(c)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		if c.Live {
			if err := e.Live().Flush(); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	liveCfg := live.Config{MemtableMaxDocs: 2 * docs}

	groups := []struct {
		name     string
		backends []backend
	}{
		{"partitioned", []backend{
			{"static", nodeBackend(t, NewNode("static-4", parted, opts, false))},
			{"blob", nodeBackend(t, blobNode)},
		}},
		{"one-segment", []backend{
			{"static", nodeBackend(t, NewNode("static-1", single, opts, false))},
			{"live", nodeBackend(t, NewLiveNode("live-1", li, 10))},
			{"facade-static", facadeBackend(
				engine(websearchbench.Config{}),
				engine(websearchbench.Config{Conjunctive: true}))},
			{"facade-live", facadeBackend(
				engine(websearchbench.Config{Live: true, LiveConfig: liveCfg}),
				engine(websearchbench.Config{Live: true, LiveConfig: liveCfg, Conjunctive: true}))},
		}},
	}
	var queries []string
	for i := 0; i < 40; i += 3 {
		queries = append(queries, vocab.Word(i), vocab.Word(i)+" "+vocab.Word(i+7), vocab.Word(i+1)+" "+vocab.Word(i+30)+" "+vocab.Word(2*i))
	}
	for _, g := range groups {
		hits := 0
		for _, q := range queries {
			for _, mode := range []search.Mode{search.ModeOr, search.ModeAnd} {
				want := g.backends[0].search(q, mode)
				hits += len(want.urls)
				if want.matches < len(want.urls) {
					t.Errorf("%s/static %q (%v): matches %d < %d hits", g.name, q, mode, want.matches, len(want.urls))
				}
				for _, b := range g.backends[1:] {
					got := b.search(q, mode)
					if fmt.Sprint(got.urls, got.scores) != fmt.Sprint(want.urls, want.scores) {
						t.Errorf("%s/%s %q (%v):\n got %v %v\nwant %v %v", g.name, b.name, q, mode,
							got.urls, got.scores, want.urls, want.scores)
					}
					if got.matches >= 0 && got.matches != want.matches {
						t.Errorf("%s/%s %q (%v): matches %d, want %d", g.name, b.name, q, mode, got.matches, want.matches)
					}
				}
			}
		}
		if hits < len(queries) {
			t.Errorf("%s: %d queries returned only %d hits; the comparison is vacuous", g.name, len(queries), hits)
		}
	}

	// A live index with several segments, a populated memtable and
	// tombstones cannot agree on scores with any static segmentation, but
	// it must hide every deleted or superseded document, and for queries
	// matching at most k documents return the static node's URL set.
	t.Run("multi-view live", func(t *testing.T) {
		mv := live.NewIndex(live.Config{MemtableMaxDocs: 64})
		defer mv.Close()
		final := make(map[string]corpus.Document)
		deleted := make(map[string]bool)
		for i, d := range corpusDocs {
			if err := mv.Add(d.URL, d.Title, d.Body, d.Quality); err != nil {
				t.Fatal(err)
			}
			final[d.URL] = d
			switch {
			case i%7 == 3: // delete an earlier document
				victim := corpusDocs[i/2].URL
				if _, err := mv.Delete(victim); err != nil {
					t.Fatal(err)
				}
				delete(final, victim)
				deleted[victim] = true
			case i%5 == 2: // supersede an earlier document with this body
				old := corpusDocs[i/3]
				if deleted[old.URL] {
					break
				}
				old.Body = d.Body
				if err := mv.Add(old.URL, old.Title, old.Body, old.Quality); err != nil {
					t.Fatal(err)
				}
				final[old.URL] = old
			}
		}
		mv.Refresh()
		s := mv.Stats()
		if s.Segments < 2 || s.MemtableDocs == 0 || s.Tombstones == 0 {
			t.Fatalf("want several segments, a memtable and tombstones, got %+v", s)
		}
		b, err := partition.NewBuilder(1, partition.RoundRobin, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range final {
			b.AddCorpusDoc(d)
		}
		static := NewNode("static", b.Finalize(), opts, false).Handler()
		liveNode := NewLiveNode("live", mv, 10).Handler()
		urlSet := func(h http.Handler, q string, mode search.Mode) []string {
			// MaxTopK exceeds the corpus, so every match is returned.
			code, resp := postSearch(t, h, SearchRequest{Query: q, Mode: mode.String(), TopK: MaxTopK})
			if code != http.StatusOK {
				t.Fatalf("/search %q status %d", q, code)
			}
			if resp.Matches < len(resp.Hits) {
				t.Errorf("%s %q: matches %d < %d hits", resp.Node, q, resp.Matches, len(resp.Hits))
			}
			urls := make([]string, len(resp.Hits))
			for i, h := range resp.Hits {
				urls[i] = h.URL
			}
			sort.Strings(urls)
			return urls
		}
		for _, q := range queries {
			for _, mode := range []search.Mode{search.ModeOr, search.ModeAnd} {
				got := urlSet(liveNode, q, mode)
				for _, u := range got {
					if deleted[u] {
						t.Errorf("%q (%v): live node returned tombstoned key %s", q, mode, u)
					}
				}
				if want := urlSet(static, q, mode); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%q (%v): live URL set %v, static %v", q, mode, got, want)
				}
			}
		}
	})
}

// TestSearchTopKValidation: TopK is outside input with one rule on
// every node — 0 selects the node default, 1..MaxTopK are honored per
// call, anything else is a 400 — and the front-end applies it too.
func TestSearchTopKValidation(t *testing.T) {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs, cfg.VocabSize = 300, 1500
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	li := live.NewIndex(live.Config{MemtableMaxDocs: 64})
	defer li.Close()
	b, err := partition.NewBuilder(2, partition.RoundRobin, 0)
	if err != nil {
		t.Fatal(err)
	}
	gen.GenerateFunc(func(d corpus.Document) {
		b.AddCorpusDoc(d)
		if err := li.Add(d.URL, d.Title, d.Body, d.Quality); err != nil {
			t.Fatal(err)
		}
	})
	static := NewNode("static", b.Finalize(), search.Options{TopK: 5}, false)
	addr, err := static.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer static.Close()
	fe, err := NewFrontend([]string{"http://" + addr}, 5)
	if err != nil {
		t.Fatal(err)
	}
	// The most common word matches far more than 20 documents.
	q := gen.Vocabulary().Word(0)
	for _, h := range []struct {
		name    string
		handler http.Handler
	}{
		{"static", static.Handler()},
		{"live", NewLiveNode("live", li, 5).Handler()},
		{"frontend", fe.Handler()},
	} {
		for _, c := range []struct {
			topK, status, hits int
		}{
			{0, http.StatusOK, 5},
			{20, http.StatusOK, 20},
			{MaxTopK, http.StatusOK, -1},
			{-1, http.StatusBadRequest, 0},
			{MaxTopK + 1, http.StatusBadRequest, 0},
			{1e9, http.StatusBadRequest, 0},
		} {
			code, resp := postSearch(t, h.handler, SearchRequest{Query: q, TopK: c.topK})
			if code != c.status {
				t.Errorf("%s topK=%d: status %d, want %d", h.name, c.topK, code, c.status)
			}
			if c.hits >= 0 && len(resp.Hits) != c.hits {
				t.Errorf("%s topK=%d: %d hits, want %d", h.name, c.topK, len(resp.Hits), c.hits)
			}
		}
	}
}
