package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"websearchbench/internal/live"
	"websearchbench/internal/metrics"
	"websearchbench/internal/partition"
	"websearchbench/internal/search"
	"websearchbench/internal/search/exec"
)

// Node is one index-serving server: it owns a slice of the document
// collection and answers /search requests from the current immutable
// view set over it — a partition.Searcher, whether the set is a static
// partitioned index, a blob-store generation or a live index's snapshot.
// Every node exposes its search-latency histogram on GET /metrics; nodes
// over a live index additionally accept POST /docs and POST /delete
// mutations.
type Node struct {
	name string
	// acquire returns the view set one request runs against; the request
	// Releases it when done.
	acquire func() *partition.Searcher
	// searcher is what acquire loads on nodes without a live index. It is
	// atomic so a blob-manifest poller can swap in a newly opened
	// generation while queries are in flight: each request loads the
	// pointer once and runs entirely against that view set.
	searcher atomic.Pointer[partition.Searcher]
	// live is the writer behind the mutation routes, nil on read-only
	// nodes.
	live *live.Index
	topK int
	mux  *http.ServeMux
	hist metrics.ConcurrentHistogram

	// blobMetrics, when set, contributes block-cache and manifest
	// gauges to GET /metrics (stateless blob-serving nodes).
	blobMetrics func() *BlobMetrics

	drain time.Duration
	srv   *http.Server
	ln    net.Listener
}

// newNode builds a node serving li's snapshots when li is non-nil and
// the swappable searcher s otherwise. topK is the default result count.
func newNode(name string, s *partition.Searcher, li *live.Index, topK int) *Node {
	if topK <= 0 {
		topK = 10
	}
	n := &Node{
		name:  name,
		live:  li,
		topK:  topK,
		mux:   http.NewServeMux(),
		drain: defaultDrainTimeout,
	}
	n.searcher.Store(s)
	n.acquire = n.searcher.Load
	if li != nil {
		n.acquire = func() *partition.Searcher { return li.Acquire().Searcher() }
		n.mux.HandleFunc("POST /docs", n.handleAddDoc)
		n.mux.HandleFunc("POST /delete", n.handleDeleteDoc)
	}
	n.mux.HandleFunc("POST /search", n.handleSearch)
	n.mux.HandleFunc("GET /stats", n.handleStats)
	n.mux.HandleFunc("GET /metrics", n.handleMetrics)
	return n
}

// NewNode creates a serving node over idx. Queries are evaluated with
// opts across the node's intra-server partitions (in parallel when
// parallel is set).
func NewNode(name string, idx *partition.Index, opts search.Options, parallel bool) *Node {
	return newNode(name, partition.NewSearcher(idx, opts, parallel), nil, opts.TopK)
}

// NewNodeFromSearcher creates a serving node over an already-built
// searcher — one the caller has tuned, or the stateless blob-serving
// path, where the caller constructs searchers from manifest snapshots
// and swaps them in with SetSearcher as generations advance.
func NewNodeFromSearcher(name string, s *partition.Searcher, topK int) *Node {
	return newNode(name, s, nil, topK)
}

// NewLiveNode creates a serving node over a live (mutable) index:
// /search answers from the current snapshot, POST /docs and POST /delete
// mutate, and /metrics reports the live index's shape alongside the
// latency histogram.
func NewLiveNode(name string, li *live.Index, topK int) *Node {
	return newNode(name, nil, li, topK)
}

// SetSearcher atomically replaces the searcher of a node built by
// NewNode or NewNodeFromSearcher. In-flight requests finish against the
// searcher they started with.
func (n *Node) SetSearcher(s *partition.Searcher) { n.searcher.Store(s) }

// SetBlobMetrics installs the hook contributing blob-serving gauges
// (block cache, manifest generation) to GET /metrics.
func (n *Node) SetBlobMetrics(f func() *BlobMetrics) { n.blobMetrics = f }

// Handler returns the node's HTTP handler, for in-process serving or
// tests.
func (n *Node) Handler() http.Handler { return n.mux }

// SetDrainTimeout bounds how long Close waits for in-flight requests
// before forcing connections shut.
func (n *Node) SetDrainTimeout(d time.Duration) { n.drain = d }

// handleSearch evaluates one query. It honors request-context
// cancellation: when the front-end's deadline fires or a hedged duplicate
// wins the race, the handler returns immediately instead of holding the
// connection until the evaluation finishes.
func (n *Node) handleSearch(w http.ResponseWriter, r *http.Request) {
	sc := getScratch()
	req, mode, _, err := readSearchRequest(r, sc)
	if err != nil {
		putScratch(sc)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	k := req.TopK
	if k == 0 {
		k = n.topK
	}
	ctx := r.Context()
	if ctx.Err() != nil {
		putScratch(sc)
		return
	}
	// The evaluation goroutine owns sc until it sends it back holding the
	// encoded response.
	done := make(chan error, 1)
	go func() {
		start := time.Now()
		sr := n.acquire()
		defer sr.Release()
		psc := partition.GetScratch()
		defer partition.PutScratch(psc)
		sr.SearchInto(search.ParseQuery(sr.Analyzer(), req.Query, mode), k, psc)
		took := time.Since(start)
		n.hist.Record(took)
		if sc.hits = sc.hits[:0]; sc.hits == nil {
			sc.hits = []WireHit{} // a node that matched nothing answers "hits":[]
		}
		for _, h := range psc.Hits {
			url, title := sr.URLTitle(h.Doc)
			sc.hits = append(sc.hits, WireHit{URL: url, Title: title, Score: h.Score})
		}
		var err error
		sc.buf, err = appendSearchResponse(sc.buf[:0], &SearchResponse{
			Hits:       sc.hits,
			Matches:    psc.Matches,
			TookMicros: took.Microseconds(),
			Node:       n.name,
			Degraded:   psc.Incomplete,
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		} else {
			writeWire(w, sc.buf)
		}
		putScratch(sc)
	case <-ctx.Done():
		// Caller gave up (deadline, hedge win, or disconnect); the
		// evaluation goroutine finishes into the buffered channel and
		// its result, sc with it, is dropped.
	}
}

// readSearchRequest reads and validates the /search body of r, using sc's
// buffer for the bytes. body is the text read; it and the request's
// strings do not point into sc.
func readSearchRequest(r *http.Request, sc *wireScratch) (req SearchRequest, mode search.Mode, body string, err error) {
	if body, err = sc.readText(r.Body, r.ContentLength); err == nil {
		err = decodeSearchRequest(body, &req)
	}
	if err != nil {
		return req, 0, "", fmt.Errorf("bad request: %w", err)
	}
	mode, err = req.Validate()
	return req, mode, body, err
}

// jsonContentType is the Content-Type header value of every response,
// shared so that setting it does not allocate.
var jsonContentType = []string{"application/json"}

// writeWire sends an encoded /search response in one Write, which is what
// lets a middleware see a whole response at once.
func writeWire(w http.ResponseWriter, wire []byte) {
	w.Header()["Content-Type"] = jsonContentType
	// Headers are already out on an error; nothing to do but drop the conn.
	_, _ = w.Write(wire)
}

// Live returns the node's live index (nil for read-only nodes).
func (n *Node) Live() *live.Index { return n.live }

// handleAddDoc ingests one document into a live node.
func (n *Node) handleAddDoc(w http.ResponseWriter, r *http.Request) {
	var req AddDocRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	if req.Key == "" {
		http.Error(w, "bad request: empty key", http.StatusBadRequest)
		return
	}
	if err := n.live.Add(req.Key, req.Title, req.Body, req.Quality); err != nil {
		http.Error(w, fmt.Sprintf("ingest failed: %v", err), http.StatusInternalServerError)
		return
	}
	writeJSON(w, MutateResponse{Generation: n.live.Generation(), Found: true})
}

// handleDeleteDoc removes one document from a live node.
func (n *Node) handleDeleteDoc(w http.ResponseWriter, r *http.Request) {
	var req DeleteDocRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	found, err := n.live.Delete(req.Key)
	if err != nil {
		http.Error(w, fmt.Sprintf("delete failed: %v", err), http.StatusInternalServerError)
		return
	}
	writeJSON(w, MutateResponse{Generation: n.live.Generation(), Found: found})
}

// handleMetrics reports the node's latency histogram and, on live nodes,
// the live index's shape.
func (n *Node) handleMetrics(w http.ResponseWriter, r *http.Request) {
	resp := MetricsResponse{Node: n.name, Search: n.hist.Snapshot().JSON()}
	if n.live != nil {
		st := n.live.Stats()
		resp.Live = &st
	}
	if es, ok := exec.DefaultStats(); ok {
		resp.Exec = &es
	}
	if n.blobMetrics != nil {
		resp.Blob = n.blobMetrics()
	}
	writeJSON(w, resp)
}

// handleStats reports the shape of the node's current view set.
func (n *Node) handleStats(w http.ResponseWriter, r *http.Request) {
	sr := n.acquire()
	defer sr.Release()
	writeJSON(w, StatsResponse{
		Node:       n.name,
		Docs:       sr.NumDocs(),
		Partitions: sr.NumViews(),
		AvgDocLen:  sr.AvgDocLen(),
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already out; nothing to do but drop the conn.
		return
	}
}

// Start listens on addr ("127.0.0.1:0" picks a free port) and serves in
// the background. It returns the bound address.
func (n *Node) Start(addr string) (string, error) {
	return n.StartWith(addr, nil)
}

// StartWith is Start with an optional middleware wrapped around the
// node's handler — the hook fault-injection tests and experiments use to
// put a resilience.FaultInjector in front of a live node.
func (n *Node) StartWith(addr string, wrap func(http.Handler) http.Handler) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("cluster: node %s listen: %w", n.name, err)
	}
	n.ln = ln
	var h http.Handler = n.mux
	if wrap != nil {
		h = wrap(h)
	}
	n.srv = &http.Server{Handler: h}
	go func() {
		// Serve exits with ErrServerClosed on Shutdown/Close; other
		// errors mean the listener died, which tests will observe as
		// conn refused.
		_ = n.srv.Serve(ln)
	}()
	return ln.Addr().String(), nil
}

// Close shuts the node down gracefully: the listener stops accepting
// immediately, in-flight requests get up to the drain timeout to finish,
// then remaining connections are forced shut.
func (n *Node) Close() error {
	if n.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.drain)
	defer cancel()
	if err := n.srv.Shutdown(ctx); err != nil {
		return n.srv.Close()
	}
	return nil
}
