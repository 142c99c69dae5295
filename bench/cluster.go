package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"websearchbench/internal/cluster"
	"websearchbench/internal/corpus"
	"websearchbench/internal/partition"
	"websearchbench/internal/search"
	"websearchbench/internal/stats"
)

// clusterSystem is one serve-cluster instance: shard nodes on loopback
// HTTP behind a caching front-end served by the benchmark's own
// http.Server (so middleware can wrap Frontend.Handler).
type clusterSystem struct {
	nodes   []*cluster.Node
	indexes []*partition.Index
	fe      *cluster.Frontend
	srv     *http.Server
	base    string
}

func (c *clusterSystem) close() {
	if c.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if c.srv.Shutdown(ctx) != nil {
			c.srv.Close()
		}
		cancel()
	}
	for _, n := range c.nodes {
		n.Close()
	}
}

// startCluster builds and starts the system. cm is nil in an untraced
// run; otherwise its middleware wraps the node and front-end handlers.
func startCluster(docs []corpus.Document, sz sizing, cm *clusterMiddleware) (*clusterSystem, error) {
	c := &clusterSystem{}
	var urls []string
	for s := 0; s < sz.Shards; s++ {
		b, err := partition.NewBuilder(sz.Partitions, partition.RoundRobin, 0)
		if err != nil {
			return nil, err
		}
		for i, d := range docs {
			if i%sz.Shards == s {
				b.AddCorpusDoc(d)
			}
		}
		idx := b.Finalize()
		node := cluster.NewNode(fmt.Sprintf("node-%d", s), idx, search.DefaultOptions(), true)
		var wrap func(http.Handler) http.Handler
		if cm != nil {
			wrap = cm.node
		}
		addr, err := node.StartWith("127.0.0.1:0", wrap)
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, node)
		c.indexes = append(c.indexes, idx)
		urls = append(urls, "http://"+addr)
	}
	fe, err := cluster.NewFrontend(urls, sz.TopK)
	if err != nil {
		c.close()
		return nil, err
	}
	fe.EnableCache(sz.ServeCache)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.close()
		return nil, err
	}
	h := fe.Handler()
	if cm != nil {
		h = cm.frontend(h)
	}
	c.fe, c.srv, c.base = fe, &http.Server{Handler: h}, "http://"+ln.Addr().String()
	go func() { _ = c.srv.Serve(ln) }() // returns once close shuts the server down
	return c, nil
}

// clusterOracle is the expected front-end answer of every pool query:
// each shard's unpruned sequential top-k, merged the way the front-end
// merges (score descending, then URL).
func clusterOracle(indexes []*partition.Index, pool []string, k int) [][]ranked[string] {
	searchers := make([]*partition.Searcher, len(indexes))
	for i, idx := range indexes {
		searchers[i] = oracleSearcher(idx, k)
	}
	out := make([][]ranked[string], len(pool))
	for qi, q := range pool {
		var hits []ranked[string]
		for i, s := range searchers {
			for _, h := range s.ParseAndSearch(q, search.ModeOr).Hits {
				hits = append(hits, ranked[string]{indexes[i].Doc(h.Doc).URL, h.Score})
			}
		}
		sort.SliceStable(hits, func(a, b int) bool {
			if hits[a].score != hits[b].score {
				return hits[a].score > hits[b].score
			}
			return hits[a].key < hits[b].key
		})
		if len(hits) > k {
			hits = hits[:k]
		}
		out[qi] = hits
	}
	return out
}

// sameWire is sameRanking over a front-end response, allocating only on
// a mismatch.
func sameWire(got []cluster.WireHit, want []ranked[string]) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].URL != want[i].key || !closeScore(got[i].Score, want[i].score) {
			conv := make([]ranked[string], len(got))
			for i, h := range got {
				conv[i] = ranked[string]{h.URL, h.Score}
			}
			return sameRanking(conv, want)
		}
	}
	return true
}

// runServeCluster is the paper's request path: client -> front-end
// (result cache, scatter-gather) -> shard nodes -> partitioned search.
func runServeCluster(o runOpts) (*result, error) {
	sz := o.sz
	docs, vocab, err := genDocs(o.seed, sz.Docs, sz)
	if err != nil {
		return nil, err
	}
	queries, err := defaultPool(o.seed+1, sz.ServeUnique, vocab)
	if err != nil {
		return nil, err
	}
	pool := make([]string, len(queries))
	for i, q := range queries {
		pool[i] = q.Text
	}
	// The request stream draws pool indices with the generator's Zipf
	// popularity, so each request knows its oracle entry.
	popularity := corpus.NewZipf(rand.New(rand.NewSource(o.seed+2)), len(pool), 0.85)
	stream := make([]int32, sz.ServeStream)
	for i := range stream {
		stream[i] = int32(popularity.Sample())
	}
	res := &result{Metrics: map[string]float64{}}

	var cm *clusterMiddleware
	if o.tr != nil {
		cm = &clusterMiddleware{tr: o.tr, cur: make([]atomic.Pointer[reqCtx], sz.Clients),
			inflight: map[string]*flight{}, ambiguous: map[int64]bool{}, took: map[int64]int64{}}
	}
	base := heapMB()
	var sys *clusterSystem
	setup, teardown, err := timedSetups(sz.SetupRepeats, func() (func(), error) {
		var err error
		if sys, err = startCluster(docs, sz, cm); err != nil {
			return nil, err
		}
		return sys.close, nil
	})
	if err != nil {
		return nil, err
	}
	closeSystem := sync.OnceFunc(teardown)
	defer closeSystem()
	res.set("setup_s", setup)
	res.set("heap_mb", heapMB()-base)
	var bytesPerDoc float64
	for _, idx := range sys.indexes {
		b, err := indexBytesPerDoc(idx)
		if err != nil {
			return nil, err
		}
		bytesPerDoc += b * float64(idx.NumDocs()) / float64(len(docs))
	}
	res.set("index_bytes_per_doc", bytesPerDoc)

	oracle := clusterOracle(sys.indexes, pool, sz.TopK)
	if o.corruptOracle {
		// The most popular query is certain to be asked.
		oracle[0] = append([]ranked[string]{{key: "wrong"}}, oracle[0]...)
	}

	tr := o.tr
	clients := make([]*cluster.Client, sz.Clients)
	for w := range clients {
		b := sys.base
		if cm != nil {
			// The worker's index rides in the path; the front-end
			// middleware strips it and so knows which request it serves.
			b += "/w" + strconv.Itoa(w)
		}
		clients[w] = cluster.NewClient(b, sz.TopK)
	}
	clientSpans := make([][]span, sz.Clients)
	do := func(w, i int) bool {
		qi := stream[i%len(stream)]
		if !tr.on() {
			resp, err := clients[w].Search(pool[qi], search.ModeOr)
			return err == nil && !resp.Degraded && sameWire(resp.Hits, oracle[qi])
		}
		rc := &reqCtx{req: tr.newID(), span: tr.newID()}
		cm.cur[w].Store(rc)
		t0 := tr.now()
		resp, err := clients[w].Search(pool[qi], search.ModeOr)
		t1 := tr.now()
		cm.cur[w].Store(nil)
		clientSpans[w] = append(clientSpans[w], span{Name: "cluster.client", Start: t0, End: t1, ID: rc.span, Req: rc.req})
		return err == nil && !resp.Degraded && sameWire(resp.Hits, oracle[qi])
	}

	var rs0 cluster.ResilienceStats
	ph := measure(o, do, sz.OpenRate[o.name], hooks{traceStart: func() { rs0 = sys.fe.ResilienceStats() }})
	ph.report(o, res, nil)

	// Shutting the servers down waits for every handler, and so for the
	// last middleware spans.
	closeSystem()
	if tr != nil {
		spans := tr.take()
		for _, cs := range clientSpans {
			spans = append(spans, cs...)
		}
		res.spans = spans
		cm.metrics(o, res, spans)
		rs1 := sys.fe.ResilienceStats()
		q := float64(rs1.Queries - rs0.Queries)
		res.set("cluster.hedges_per_1k", div(1000*float64(rs1.Hedges-rs0.Hedges), q))
		res.set("cluster.retries_per_1k", div(1000*float64(rs1.Retries-rs0.Retries), q))
		res.set("qcache.hit_rate", sys.fe.CacheHitRate())
		res.set("cluster.degraded_share", div(float64(cm.degraded.Load()), float64(res.Attempted)))
		res.set("textproc.parse_us", parseProbe(queries, sz.ProbeQueries))
	}
	return res, nil
}

// reqCtx ties the spans of one client request together.
type reqCtx struct{ req, span int64 }

// clusterMiddleware records the front-end and node spans of a traced
// run from outside the cluster package.
type clusterMiddleware struct {
	tr *tracer
	// cur[w] is the request worker w has in flight; each worker sends
	// one request at a time.
	cur      []atomic.Pointer[reqCtx]
	degraded atomic.Int64

	mu sync.Mutex
	// inflight maps a query text to the front-end span now serving it,
	// which is how a node span finds its parent: the front-end's own
	// sub-requests carry nothing but the query. When two workers have the
	// same query in flight, their node spans cannot be told apart, and
	// both requests are left out of the self-time tree (ambiguous).
	inflight  map[string]*flight
	ambiguous map[int64]bool // by request ID
	// What the spans alone do not carry: each node span's self-reported
	// search time, and the front-end's response sizes.
	took      map[int64]int64 // node span ID -> TookMicros
	respBytes []int
}

// flight is the front-end request(s) now serving one query text.
type flight struct {
	first reqCtx
	n     int
}

// enter registers a front-end span as serving query; leave undoes it.
func (m *clusterMiddleware) enter(query string, rc reqCtx) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.inflight[query]
	if f == nil {
		m.inflight[query] = &flight{first: rc, n: 1}
		return
	}
	f.n++
	m.ambiguous[f.first.req], m.ambiguous[rc.req] = true, true
}

func (m *clusterMiddleware) leave(query string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f := m.inflight[query]; f != nil {
		if f.n--; f.n == 0 {
			delete(m.inflight, query)
		}
	}
}

// parentOf is the front-end span a node request for query belongs to.
func (m *clusterMiddleware) parentOf(query string) reqCtx {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f := m.inflight[query]; f != nil {
		return f.first
	}
	return reqCtx{}
}

// capture notes what the middleware wants from a handler's response
// without copying it: its size, the node's self-reported search time and
// whether the front-end marked it degraded. The handlers write a response
// in one call, so each field lies within one p.
type capture struct {
	http.ResponseWriter
	n          int
	tookMicros int64
	degraded   bool
}

func (c *capture) Write(p []byte) (int, error) {
	c.n += len(p)
	if t, err := strconv.ParseInt(jsonField(p, `"tookMicros":`, ','), 10, 64); err == nil {
		c.tookMicros = t
	}
	c.degraded = c.degraded || bytes.Contains(p, []byte(`"degraded":true`))
	return c.ResponseWriter.Write(p)
}

// jsonField returns the bytes between the first occurrence of prefix and
// the next end byte. It stands in for a JSON decoder on the two flat
// fields the middleware reads, whose values hold no escapes (queries are
// synthetic words, tookMicros a number), at a fraction of the cost.
func jsonField(body []byte, prefix string, end byte) string {
	i := bytes.Index(body, []byte(prefix))
	if i < 0 {
		return ""
	}
	rest := body[i+len(prefix):]
	if j := bytes.IndexByte(rest, end); j >= 0 {
		rest = rest[:j]
	}
	return string(rest)
}

func (m *clusterMiddleware) frontend(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Path is /w<worker>/search.
		rest := strings.TrimPrefix(r.URL.Path, "/w")
		slash := strings.IndexByte(rest, '/')
		worker, err := strconv.Atoi(rest[:max(slash, 0)])
		if slash < 0 || err != nil || worker >= len(m.cur) {
			http.NotFound(w, r)
			return
		}
		r.URL.Path = rest[slash:]
		rc := m.cur[worker].Load()
		if rc == nil || !m.tr.on() {
			next.ServeHTTP(w, r)
			return
		}
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		query := jsonField(body, `"query":"`, '"')
		id := m.tr.newID()
		m.enter(query, reqCtx{req: rc.req, span: id})
		cw := &capture{ResponseWriter: w}
		t0 := m.tr.now()
		next.ServeHTTP(cw, r)
		t1 := m.tr.now()
		m.leave(query)
		m.tr.add(span{Name: "cluster.frontend", Start: t0, End: t1, ID: id, Parent: rc.span, Req: rc.req})
		if cw.degraded {
			m.degraded.Add(1)
		}
		m.mu.Lock()
		m.respBytes = append(m.respBytes, cw.n)
		m.mu.Unlock()
	})
}

func (m *clusterMiddleware) node(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !m.tr.on() || r.URL.Path != "/search" {
			next.ServeHTTP(w, r)
			return
		}
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		parent := m.parentOf(jsonField(body, `"query":"`, '"'))
		cw := &capture{ResponseWriter: w}
		t0 := m.tr.now()
		next.ServeHTTP(cw, r)
		t1 := m.tr.now()
		id := m.tr.record("cluster.node", t0, t1, parent.span, parent.req)
		m.mu.Lock()
		m.took[id] = cw.tookMicros
		m.mu.Unlock()
	})
}

// metrics derives the cluster and qcache rungs from the spans and prints
// the per-request self-time tree. By construction
//
//	client latency = client_overhead + frontend span
//	frontend span  = frontend_self + longest node span (none on a cache hit)
//	node span      = node_handler_overhead + node_search
//
// so the four means, each taken over all requests, sum to the mean
// client latency.
func (m *clusterMiddleware) metrics(o runOpts, res *result, spans []span) {
	var respBytes float64
	for _, n := range m.respBytes {
		respBytes += float64(n)
	}
	var clientLat, clientOver, feSelf, nodeOver, nodeSearch, skew, hitUs []float64
	for _, group := range byReq(spans) {
		var client, fe *span
		var longest, shortest *span
		for i := range group {
			sp := &group[i]
			switch sp.Name {
			case "cluster.client":
				client = sp
			case "cluster.frontend":
				fe = sp
			case "cluster.node":
				if longest == nil || sp.durUs() > longest.durUs() {
					longest = sp
				}
				if shortest == nil || sp.durUs() < shortest.durUs() {
					shortest = sp
				}
			}
		}
		if client == nil || fe == nil || m.ambiguous[client.Req] {
			continue
		}
		clientLat = append(clientLat, client.durUs())
		clientOver = append(clientOver, client.durUs()-fe.durUs())
		if longest == nil { // answered from the result cache
			hitUs = append(hitUs, fe.durUs())
			feSelf = append(feSelf, fe.durUs())
			nodeOver = append(nodeOver, 0)
			nodeSearch = append(nodeSearch, 0)
			continue
		}
		feSelf = append(feSelf, fe.durUs()-longest.durUs())
		took := float64(m.took[longest.ID])
		nodeSearch = append(nodeSearch, took)
		nodeOver = append(nodeOver, longest.durUs()-took)
		skew = append(skew, longest.durUs()-shortest.durUs())
	}
	parts := []struct {
		name string
		us   float64
	}{
		{"cluster.client_overhead_us", stats.Mean(clientOver)},
		{"cluster.frontend_self_us", stats.Mean(feSelf)},
		{"cluster.node_handler_overhead_us", stats.Mean(nodeOver)},
		{"cluster.node_search_us", stats.Mean(nodeSearch)},
	}
	var sum float64
	o.logf("self-time tree, mean per request over %d traced requests (%d cache hits; %d left out, their query being in flight twice):", len(clientLat), len(hitUs), len(m.ambiguous))
	for depth, p := range parts {
		res.set(p.name, p.us)
		sum += p.us
		o.logf("  %s%-34s %9.1f us", strings.Repeat("  ", depth), p.name, p.us)
	}
	o.logf("  sum %.1f us; mean client latency %.1f us", sum, stats.Mean(clientLat))
	res.set("cluster.fanout_skew_us", stats.Mean(skew))
	res.set("qcache.hit_us", stats.Mean(hitUs))
	res.set("cluster.resp_bytes_per_query", div(respBytes, float64(len(m.respBytes))))
}
