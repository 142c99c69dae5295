package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"websearchbench/internal/corpus"
	"websearchbench/internal/live"
	"websearchbench/internal/loadgen"
	"websearchbench/internal/partition"
	"websearchbench/internal/qcache"
	"websearchbench/internal/search"
	"websearchbench/internal/workload"
)

// buildCluster starts n nodes over disjoint corpus slices plus a frontend.
// Cleanup is registered on t.
func buildCluster(t *testing.T, n int, partsPerNode int) (*Frontend, []string, *corpus.Vocabulary) {
	t.Helper()
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 400
	cfg.VocabSize = 1500
	cfg.MeanBodyTerms = 40
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	builders := make([]*partition.Builder, n)
	for i := range builders {
		b, err := partition.NewBuilder(partsPerNode, partition.RoundRobin, 0)
		if err != nil {
			t.Fatal(err)
		}
		builders[i] = b
	}
	i := 0
	gen.GenerateFunc(func(d corpus.Document) {
		builders[i%n].AddCorpusDoc(d)
		i++
	})
	urls := make([]string, n)
	for i, b := range builders {
		node := NewNode(nodeName(i), b.Finalize(), search.Options{TopK: 10}, false)
		addr, err := node.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		urls[i] = "http://" + addr
	}
	fe, err := NewFrontend(urls, 10)
	if err != nil {
		t.Fatal(err)
	}
	return fe, urls, gen.Vocabulary()
}

func nodeName(i int) string { return "node-" + string(rune('a'+i)) }

func TestClusterSearch(t *testing.T) {
	fe, _, vocab := buildCluster(t, 3, 2)
	resp, err := fe.Search(SearchRequest{Query: vocab.Word(0) + " " + vocab.Word(5)})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Hits) == 0 {
		t.Fatal("no hits from cluster")
	}
	if len(resp.Hits) > 10 {
		t.Errorf("got %d hits, topK is 10", len(resp.Hits))
	}
	for i := 1; i < len(resp.Hits); i++ {
		if resp.Hits[i].Score > resp.Hits[i-1].Score {
			t.Error("merged hits not sorted by score")
		}
	}
	for _, h := range resp.Hits {
		if h.URL == "" || h.Title == "" {
			t.Errorf("hit missing fields: %+v", h)
		}
	}
	if resp.Matches == 0 {
		t.Error("Matches not aggregated")
	}
}

func TestClusterMergesAcrossNodes(t *testing.T) {
	fe, urls, vocab := buildCluster(t, 2, 1)
	// A frequent term must match documents on both nodes; verify by
	// querying nodes individually and checking the merged result is the
	// top-k of the union.
	q := SearchRequest{Query: vocab.Word(0), TopK: 10}
	var union []WireHit
	for _, u := range urls {
		c := NewClient(u, 10)
		r, err := c.Search(q.Query, search.ModeOr)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Hits) == 0 {
			t.Fatalf("node %s returned no hits for frequent term", u)
		}
		union = append(union, r.Hits...)
	}
	merged, err := fe.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	// Every merged hit must appear in the union.
	inUnion := make(map[string]bool)
	for _, h := range union {
		inUnion[h.URL] = true
	}
	for _, h := range merged.Hits {
		if !inUnion[h.URL] {
			t.Errorf("merged hit %s not from any node", h.URL)
		}
	}
	// And the merged top hit is the union's best score.
	best := union[0].Score
	for _, h := range union {
		if h.Score > best {
			best = h.Score
		}
	}
	if merged.Hits[0].Score != best {
		t.Errorf("merged top score %v, union best %v", merged.Hits[0].Score, best)
	}
}

func TestNodeHandlerErrors(t *testing.T) {
	idx, err := partition.Build(func() corpus.Config {
		c := corpus.DefaultConfig()
		c.NumDocs = 50
		c.VocabSize = 500
		c.MeanBodyTerms = 20
		return c
	}(), 1, partition.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	node := NewNode("n", idx, search.Options{TopK: 5}, false)
	ts := httptest.NewServer(node.Handler())
	defer ts.Close()

	// Bad JSON.
	resp, err := http.Post(ts.URL+"/search", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON status = %d", resp.StatusCode)
	}
	// Bad mode.
	body, _ := json.Marshal(SearchRequest{Query: "x", Mode: "XOR"})
	resp, err = http.Post(ts.URL+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad mode status = %d", resp.StatusCode)
	}
	// GET on /search: method not matched by the POST route.
	resp, err = http.Get(ts.URL + "/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("GET /search should not be OK")
	}
}

func TestNodeStats(t *testing.T) {
	fe, urls, _ := buildCluster(t, 2, 4)
	_ = fe
	c := NewClient(urls[0], 10)
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Docs != 200 {
		t.Errorf("node docs = %d, want 200", st.Docs)
	}
	if st.Partitions != 4 {
		t.Errorf("node partitions = %d, want 4", st.Partitions)
	}
	if st.AvgDocLen <= 0 {
		t.Errorf("AvgDocLen = %v", st.AvgDocLen)
	}
}

func TestFrontendDegradedAndFailed(t *testing.T) {
	fe, urls, vocab := buildCluster(t, 2, 1)
	// Add a dead node to the pool: frontend should still answer from the
	// live ones.
	deadFE, err := NewFrontend(append(urls, "http://127.0.0.1:1"), 10)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := deadFE.Search(SearchRequest{Query: vocab.Word(0)})
	if err != nil {
		t.Fatalf("degraded search failed: %v", err)
	}
	if len(resp.Hits) == 0 {
		t.Error("degraded search returned no hits")
	}
	_ = fe
	// All nodes dead: error.
	allDead, err := NewFrontend([]string{"http://127.0.0.1:1"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := allDead.Search(SearchRequest{Query: vocab.Word(0)}); err == nil {
		t.Error("all-dead cluster should error")
	}
}

func TestNewFrontendValidation(t *testing.T) {
	if _, err := NewFrontend(nil, 10); err == nil {
		t.Error("empty node list accepted")
	}
}

func TestFrontendHTTPEndpoint(t *testing.T) {
	fe, _, vocab := buildCluster(t, 2, 2)
	addr, err := fe.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fe.Close() })
	c := NewClient("http://"+addr, 5)
	resp, err := c.Search(vocab.Word(0), search.ModeOr)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Hits) == 0 || len(resp.Hits) > 5 {
		t.Errorf("hits = %d, want 1..5", len(resp.Hits))
	}
	if resp.Node != "frontend" {
		t.Errorf("Node = %q", resp.Node)
	}
}

// End to end: the Faban-like load driver pushing HTTP traffic through the
// frontend tier.
func TestLoadgenOverHTTP(t *testing.T) {
	fe, _, vocab := buildCluster(t, 2, 2)
	addr, err := fe.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fe.Close() })
	client := NewClient("http://"+addr, 10)
	stream := []workload.Query{
		{Text: vocab.Word(0)},
		{Text: vocab.Word(1) + " " + vocab.Word(2)},
		{Text: vocab.Word(10)},
	}
	res, err := loadgen.RunClosedLoop(loadgen.ClosedLoopConfig{
		Clients: 2,
		Measure: 150 * time.Millisecond,
		QoS:     loadgen.QoS{Percentile: 90, Target: time.Second},
		Seed:    1,
	}, stream, client)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("no queries completed over HTTP")
	}
	if res.Errors != 0 {
		t.Errorf("%d HTTP errors", res.Errors)
	}
}

func TestFrontendCache(t *testing.T) {
	fe, _, vocab := buildCluster(t, 2, 1)
	fe.EnableCache(16)
	req := SearchRequest{Query: vocab.Word(0)}
	first, err := fe.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	if fe.CacheHitRate() != 0 {
		t.Errorf("hit rate after one miss = %v", fe.CacheHitRate())
	}
	second, err := fe.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Node != "frontend-cache" {
		t.Errorf("second response not served from cache: %q", second.Node)
	}
	if len(second.Hits) != len(first.Hits) {
		t.Errorf("cached hits differ: %d vs %d", len(second.Hits), len(first.Hits))
	}
	for i := range first.Hits {
		if second.Hits[i] != first.Hits[i] {
			t.Errorf("cached hit %d differs", i)
		}
	}
	if fe.CacheHitRate() != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", fe.CacheHitRate())
	}
	// Different TopK is a different cache entry.
	third, err := fe.Search(SearchRequest{Query: vocab.Word(0), TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if third.Node == "frontend-cache" {
		t.Error("different TopK should not hit the cache")
	}
	if len(third.Hits) > 3 {
		t.Errorf("TopK=3 returned %d hits", len(third.Hits))
	}
}

func TestParseModeUnknown(t *testing.T) {
	if _, err := (SearchRequest{Mode: "nope"}).ParseMode(); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestTook(t *testing.T) {
	r := SearchResponse{TookMicros: 1500}
	if r.Took() != 1500*time.Microsecond {
		t.Errorf("Took = %v", r.Took())
	}
}

func TestNodeStartBadAddress(t *testing.T) {
	idx, err := partition.Build(func() corpus.Config {
		c := corpus.DefaultConfig()
		c.NumDocs = 20
		c.VocabSize = 200
		c.MeanBodyTerms = 10
		return c
	}(), 1, partition.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	node := NewNode("n", idx, search.Options{}, false)
	if _, err := node.Start("999.999.999.999:1"); err == nil {
		t.Error("bad listen address accepted")
	}
	// Closing a never-started node is a no-op.
	if err := node.Close(); err != nil {
		t.Errorf("Close on unstarted node: %v", err)
	}
}

func TestFrontendStartBadAddress(t *testing.T) {
	fe, err := NewFrontend([]string{"http://127.0.0.1:1"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fe.Start("999.999.999.999:1"); err == nil {
		t.Error("bad listen address accepted")
	}
	if err := fe.Close(); err != nil {
		t.Errorf("Close on unstarted frontend: %v", err)
	}
}

func TestClientErrorPaths(t *testing.T) {
	// Server that always 500s.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	c := NewClient(ts.URL, 0) // zero topK defaults
	if c.topK != 10 {
		t.Errorf("default topK = %d", c.topK)
	}
	if _, err := c.Search("x", search.ModeOr); err == nil {
		t.Error("500 response accepted")
	}
	if err := c.Do(workload.Query{Text: "x"}); err == nil {
		t.Error("Do swallowed the error")
	}
	if _, err := c.Stats(); err == nil {
		t.Error("Stats accepted 500")
	}
	// Unreachable host.
	dead := NewClient("http://127.0.0.1:1", 10)
	if _, err := dead.Search("x", search.ModeOr); err == nil {
		t.Error("unreachable host accepted")
	}
	if _, err := dead.Stats(); err == nil {
		t.Error("unreachable Stats accepted")
	}
}

func TestClientBadJSONResponse(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{not json"))
	}))
	defer ts.Close()
	c := NewClient(ts.URL, 10)
	if _, err := c.Search("x", search.ModeOr); err == nil {
		t.Error("garbage JSON accepted")
	}
	if _, err := c.Stats(); err == nil {
		t.Error("garbage Stats JSON accepted")
	}
}

func TestFrontendBadRequests(t *testing.T) {
	fe, _, _ := buildCluster(t, 1, 1)
	ts := httptest.NewServer(fe.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/search", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON status = %d", resp.StatusCode)
	}
	body, _ := json.Marshal(SearchRequest{Query: "x", Mode: "XOR"})
	resp, err = http.Post(ts.URL+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad mode status = %d", resp.StatusCode)
	}
}

// TestLiveNodeHTTP exercises the mutable node end to end over HTTP:
// ingest via POST /docs, search the fresh document, delete it via
// POST /delete, and read the live stats back from GET /metrics.
func TestLiveNodeHTTP(t *testing.T) {
	li := live.NewIndex(live.Config{})
	defer li.Close()
	node := NewLiveNode("live-a", li, 10)
	ts := httptest.NewServer(node.Handler())
	defer ts.Close()

	post := func(path string, body any) *http.Response {
		t.Helper()
		b, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := post("/docs", AddDocRequest{Key: "k1", Title: "ephemeral news", Body: "an ephemeral body of text", Quality: 0.5})
	var mut MutateResponse
	if err := json.NewDecoder(resp.Body).Decode(&mut); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if mut.Generation == 0 {
		t.Fatal("add did not advance the generation")
	}

	resp = post("/search", SearchRequest{Query: "ephemeral"})
	var sr SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(sr.Hits) != 1 || sr.Hits[0].URL != "k1" {
		t.Fatalf("live search returned %+v", sr.Hits)
	}

	resp = post("/delete", DeleteDocRequest{Key: "k1"})
	mut = MutateResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&mut); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !mut.Found {
		t.Fatal("delete of an existing key reported Found=false")
	}

	resp = post("/search", SearchRequest{Query: "ephemeral"})
	sr = SearchResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(sr.Hits) != 0 {
		t.Fatalf("deleted doc still served: %+v", sr.Hits)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mr MetricsResponse
	if err := json.NewDecoder(mresp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mr.Search.Count != 2 {
		t.Errorf("metrics counted %d searches, want 2", mr.Search.Count)
	}
	if mr.Live == nil || mr.Live.Generation == 0 {
		t.Fatalf("live stats missing from /metrics: %+v", mr.Live)
	}
	if mr.Live.LiveDocs != 0 {
		t.Errorf("live stats report %d docs after delete, want 0", mr.Live.LiveDocs)
	}
}

// TestMetricsEndpoints checks the static node's and the front-end's
// /metrics histograms count served queries.
func TestMetricsEndpoints(t *testing.T) {
	fe, urls, vocab := buildCluster(t, 2, 1)
	for i := 0; i < 3; i++ {
		if _, err := fe.Search(SearchRequest{Query: vocab.Word(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Node metrics: every scatter touched each node at least once.
	resp, err := http.Get(urls[0] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mr MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if mr.Search.Count < 3 || mr.Live != nil {
		t.Errorf("node metrics = %+v", mr)
	}

	// Frontend metrics only count HTTP-served queries.
	ts := httptest.NewServer(fe.Handler())
	defer ts.Close()
	body, _ := json.Marshal(SearchRequest{Query: vocab.Word(0)})
	hresp, err := http.Post(ts.URL+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	fresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mr = MetricsResponse{}
	if err := json.NewDecoder(fresp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	fresp.Body.Close()
	if mr.Search.Count != 1 || mr.Node != "frontend" {
		t.Errorf("frontend metrics = %+v", mr)
	}
	if mr.Cache != nil {
		t.Errorf("front-end without a cache reports cache counters %+v", mr.Cache)
	}
}

// TestMetricsReportCache: a caching front-end's /metrics carries the
// result cache's counters, admission rejections included.
func TestMetricsReportCache(t *testing.T) {
	fe, _, vocab := buildCluster(t, 2, 1)
	fe.EnableCache(2) // one window slot, one main slot
	ts := httptest.NewServer(fe.Handler())
	defer ts.Close()
	// w0 twice: a miss, then a hit. w1 pushes w0 from the window into the
	// main LRU; w2 pushes w1 out of the window, and w1, asked once, loses
	// to w0, asked twice.
	for _, i := range []int{0, 0, 1, 2} {
		body, _ := json.Marshal(SearchRequest{Query: vocab.Word(i)})
		resp, err := http.Post(ts.URL+"/search", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mr MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	want := qcache.Stats{Hits: 1, Misses: 3, Rejected: 1, Len: 2}
	if mr.Cache == nil || *mr.Cache != want {
		t.Errorf("cache metrics = %+v, want %+v", mr.Cache, want)
	}
}
