// Package cluster implements the benchmark's distributed serving
// architecture: index-serving nodes (each holding a document-partitioned
// slice of the collection, itself intra-server partitioned) behind a
// front-end that scatters each query to every node, gathers the per-node
// top-k lists, and merges them — the Nutch-style tier structure the paper
// characterizes. Transport is HTTP with JSON bodies over the standard
// library.
package cluster

import (
	"fmt"
	"time"

	"websearchbench/internal/blob"
	"websearchbench/internal/live"
	"websearchbench/internal/metrics"
	"websearchbench/internal/qcache"
	"websearchbench/internal/search"
	"websearchbench/internal/search/exec"
)

// SearchRequest is the wire form of a query.
type SearchRequest struct {
	Query string `json:"query"`
	Mode  string `json:"mode,omitempty"` // "OR" (default) or "AND"
	TopK  int    `json:"topK,omitempty"`
}

// ParseMode converts the wire mode string.
func (r SearchRequest) ParseMode() (search.Mode, error) {
	switch r.Mode {
	case "", "OR", "or":
		return search.ModeOr, nil
	case "AND", "and":
		return search.ModeAnd, nil
	default:
		return 0, fmt.Errorf("cluster: unknown mode %q", r.Mode)
	}
}

// MaxTopK is the largest result count a request may ask for. TopK is
// outside input: without a ceiling one request could make a node
// serialize every matching document.
const MaxTopK = 1000

// Validate checks a request that arrived over the wire and returns its
// parsed mode. TopK 0 selects the server's default and 1..MaxTopK are
// honored as given; anything else is an error.
func (r SearchRequest) Validate() (search.Mode, error) {
	if r.TopK < 0 || r.TopK > MaxTopK {
		return 0, fmt.Errorf("cluster: topK %d outside [0, %d]", r.TopK, MaxTopK)
	}
	return r.ParseMode()
}

// WireHit is one result on the wire. Documents are identified by URL so
// the front-end can merge without sharing doc-store state with nodes.
type WireHit struct {
	URL   string  `json:"url"`
	Title string  `json:"title"`
	Score float64 `json:"score"`
}

// SearchResponse is the wire form of a result list.
type SearchResponse struct {
	Hits    []WireHit `json:"hits"`
	Matches int       `json:"matches"`
	// TookMicros is the node-side service time in microseconds.
	TookMicros int64 `json:"tookMicros"`
	// Node identifies the responding node, for debugging.
	Node string `json:"node,omitempty"`
	// NodesAnswered is how many shards contributed to a merged front-end
	// response (0 on single-node responses). A shard counts once no
	// matter how many of its replicas were raced or retried.
	NodesAnswered int `json:"nodesAnswered,omitempty"`
	// Degraded marks an answer that may miss hits: on a front-end
	// response, at least one shard failed on every replica, was skipped
	// by its circuit breakers or itself answered degraded; on a node
	// response, a posting-block read from the blob store failed after
	// its retries. Degraded responses are never cached by the front-end.
	Degraded bool `json:"degraded,omitempty"`
}

// Took returns the node-side service time.
func (r SearchResponse) Took() time.Duration {
	return time.Duration(r.TookMicros) * time.Microsecond
}

// StatsResponse describes a node's slice of the index.
type StatsResponse struct {
	Node       string  `json:"node"`
	Docs       int     `json:"docs"`
	Partitions int     `json:"partitions"`
	AvgDocLen  float64 `json:"avgDocLen"`
}

// AddDocRequest ingests (or replaces) one document on a live node.
type AddDocRequest struct {
	Key     string  `json:"key"`
	Title   string  `json:"title"`
	Body    string  `json:"body"`
	Quality float64 `json:"quality,omitempty"`
}

// DeleteDocRequest removes one document from a live node.
type DeleteDocRequest struct {
	Key string `json:"key"`
}

// MutateResponse acknowledges a live mutation. Generation is the index
// generation after the mutation published; Found reports whether a
// delete's key existed. When the mutation flows through the front-end's
// consistent-hash fan-out, Shard names the ring-owning shard and
// Acked/Replicas report how many of its replicas acknowledged (the
// write succeeds with any Acked >= 1); a node answering directly leaves
// them zero.
type MutateResponse struct {
	Generation uint64 `json:"generation"`
	Found      bool   `json:"found,omitempty"`
	Shard      int    `json:"shard,omitempty"`
	Replicas   int    `json:"replicas,omitempty"`
	Acked      int    `json:"acked,omitempty"`
}

// ReplicaBalanceStats is one replica's balancer view: selection counts,
// load gauges, the latency estimate (peak-EWMA policies only), and the
// circuit breaker's position.
type ReplicaBalanceStats struct {
	URL        string `json:"url"`
	Picks      int64  `json:"picks"`
	InFlight   int64  `json:"inFlight"`
	EWMAMicros int64  `json:"ewmaMicros,omitempty"`
	Breaker    string `json:"breaker"`
}

// ShardBalanceStats is one replica group's balancer state.
type ShardBalanceStats struct {
	Shard    int                   `json:"shard"`
	Policy   string                `json:"policy"`
	Replicas []ReplicaBalanceStats `json:"replicas"`
}

// BlobMetrics is the blob-serving section of a node's /metrics: the
// block cache's hit/miss/bytes gauges, the fetch retry/failure
// counters, and the manifest generation being served.
type BlobMetrics struct {
	blob.SourceStats
	Generation uint64 `json:"generation"`
}

// MetricsResponse is the wire form of a server's /metrics endpoint: the
// search-latency histogram summary plus, on live nodes, the live index's
// shape, on blob-serving nodes the block-cache gauges, and, on the
// front-end, per-shard replica-balancer state.
type MetricsResponse struct {
	Node   string               `json:"node,omitempty"`
	Search metrics.JSONSnapshot `json:"search"`
	Live   *live.Stats          `json:"live,omitempty"`
	// Exec reports the process-wide bounded search executor's gauges
	// (queue depth, in-flight tasks); omitted until a parallel search
	// has started the pool.
	Exec    *exec.Stats         `json:"exec,omitempty"`
	Blob    *BlobMetrics        `json:"blob,omitempty"`
	Balance []ShardBalanceStats `json:"balance,omitempty"`
	// Cache is the front-end result cache's counters; omitted by nodes
	// and by a front-end without a cache.
	Cache *qcache.Stats `json:"cache,omitempty"`
}
