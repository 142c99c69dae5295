package cluster

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"websearchbench/internal/cluster/balance"
	"websearchbench/internal/cluster/resilience"
	"websearchbench/internal/metrics"
	"websearchbench/internal/qcache"
	"websearchbench/internal/search"
)

// ErrCircuitOpen marks a shard sub-request skipped because every
// replica's circuit breaker is open: the whole group is presumed down
// and not contacted.
var ErrCircuitOpen = errors.New("circuit open")

// defaultHedgeDelay is the hedge delay used before a replica has enough
// latency history for an adaptive p95.
const defaultHedgeDelay = 10 * time.Millisecond

// defaultDrainTimeout bounds how long Close waits for in-flight requests.
const defaultDrainTimeout = 5 * time.Second

// Frontend scatters queries to index-serving shards and merges their
// responses, like the benchmark's Tomcat front-end tier. Each shard is a
// replica group: one replica is selected per request by the configured
// balance.Selector, hedges race a *different* replica of the same group,
// and retries move to another replica — so a shard answers as long as
// any replica answers. The scatter path applies the configured
// resilience.Policy: per-query deadlines, hedged requests against
// stragglers, budgeted retries for transient transport errors, and a
// per-replica circuit breaker. Live-index writes (POST /docs, /delete)
// are routed through a consistent-hash ring to every replica of the
// key-owning shard, so ingest follows the serving topology.
type Frontend struct {
	groups [][]string // shard -> replica base URLs
	// targets holds each replica's /search endpoint, aligned with groups.
	targets [][]postTarget
	client  *http.Client
	topK    int
	mux     *http.ServeMux
	// cache maps cacheKey to a complete response's wire bytes, encoded
	// once at insert the way a hit reports itself (node "frontend-cache",
	// tookMicros 0), so serving a hit over HTTP is one Write.
	cache *qcache.Generational[[]byte]
	hist  metrics.ConcurrentHistogram
	ring  *balance.Ring

	// state bundles the policy with everything derived from it (health
	// trackers, selectors, retry budget) so SetPolicy swaps are atomic
	// with respect to in-flight scatters.
	state   atomic.Pointer[feState]
	queries atomic.Int64
	hedges  atomic.Int64
	retries atomic.Int64
	writes  atomic.Int64

	// rng feeds the jittered retry backoff; it is shared by the parallel
	// shard goroutines and therefore only used under rngMu.
	rngMu sync.Mutex
	rng   *rand.Rand

	drain time.Duration
	srv   *http.Server
	ln    net.Listener
}

// feState is the serving state derived from one (policy, balancer)
// configuration. It is immutable once published: SetPolicy and
// SetBalancer build a fresh feState and swap the pointer, so a scatter
// that loaded the old state keeps a consistent view to completion.
type feState struct {
	policy    resilience.Policy
	balancer  string
	health    [][]*resilience.NodeHealth // per shard, per replica
	selectors []balance.Selector         // per shard
	budget    *resilience.Budget
}

// NewFrontend creates a front-end over the given node base URLs
// (e.g. "http://127.0.0.1:8081"), one single-replica shard per URL, with
// the default resilience policy. topK caps merged results (default 10).
func NewFrontend(nodeURLs []string, topK int) (*Frontend, error) {
	groups := make([][]string, len(nodeURLs))
	for i, u := range nodeURLs {
		groups[i] = []string{u}
	}
	return NewReplicatedFrontend(groups, topK)
}

// NewReplicatedFrontend creates a front-end over replica groups: shard i
// is served by any of groups[i]. Replica selection defaults to
// round-robin; configure it with SetBalancer. topK caps merged results
// (default 10).
func NewReplicatedFrontend(groups [][]string, topK int) (*Frontend, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("cluster: frontend needs at least one shard")
	}
	for s, group := range groups {
		if len(group) == 0 {
			return nil, fmt.Errorf("cluster: shard %d has no replicas", s)
		}
		for _, u := range group {
			if u == "" {
				return nil, fmt.Errorf("cluster: shard %d has an empty replica URL", s)
			}
		}
	}
	if topK <= 0 {
		topK = 10
	}
	copied := make([][]string, len(groups))
	targets := make([][]postTarget, len(groups))
	for i, g := range groups {
		copied[i] = append([]string(nil), g...)
		for _, u := range g {
			targets[i] = append(targets[i], newPostTarget(u+"/search"))
		}
	}
	f := &Frontend{
		groups:  copied,
		targets: targets,
		client:  newHTTPClient(),
		topK:    topK,
		mux:     http.NewServeMux(),
		ring:    balance.NewRing(len(groups), balance.DefaultVirtualNodes),
		rng:     rand.New(rand.NewSource(rand.Int63())),
		drain:   defaultDrainTimeout,
	}
	f.state.Store(f.buildState(resilience.DefaultPolicy(), balance.RoundRobin))
	f.mux.HandleFunc("POST /search", f.handleSearch)
	f.mux.HandleFunc("POST /docs", f.handleAddDoc)
	f.mux.HandleFunc("POST /delete", f.handleDeleteDoc)
	f.mux.HandleFunc("GET /metrics", f.handleMetrics)
	return f, nil
}

// buildState derives fresh serving state (health trackers, selectors,
// retry budget) for one policy/balancer pair. balancer must already be
// validated.
func (f *Frontend) buildState(p resilience.Policy, balancer string) *feState {
	st := &feState{
		policy:    p,
		balancer:  balancer,
		health:    make([][]*resilience.NodeHealth, len(f.groups)),
		selectors: make([]balance.Selector, len(f.groups)),
		budget:    resilience.NewBudget(p.RetryBudgetRatio, 10),
	}
	for s, group := range f.groups {
		st.health[s] = make([]*resilience.NodeHealth, len(group))
		for r := range group {
			st.health[s][r] = resilience.NewNodeHealth(p.BreakerThreshold, p.BreakerCooldown)
		}
		sel, err := balance.New(balancer, len(group), int64(s)+1)
		if err != nil {
			// Balancer names are validated before they reach here.
			panic(fmt.Sprintf("cluster: %v", err))
		}
		st.selectors[s] = sel
	}
	return st
}

// SetPolicy installs a resilience policy, resetting per-replica health
// trackers, selector state, the retry budget, and the hedge/retry
// counters. The swap is atomic: queries in flight finish under the state
// they started with.
func (f *Frontend) SetPolicy(p resilience.Policy) {
	f.state.Store(f.buildState(p, f.state.Load().balancer))
	f.queries.Store(0)
	f.hedges.Store(0)
	f.retries.Store(0)
}

// SetBalancer installs the named replica-selection policy (see
// balance.Policies), resetting selector and health state like SetPolicy.
func (f *Frontend) SetBalancer(policy string) error {
	if _, err := balance.New(policy, 1, 0); err != nil {
		return err
	}
	f.state.Store(f.buildState(f.state.Load().policy, policy))
	f.queries.Store(0)
	f.hedges.Store(0)
	f.retries.Store(0)
	return nil
}

// Policy returns the active resilience policy.
func (f *Frontend) Policy() resilience.Policy { return f.state.Load().policy }

// Balancer returns the active replica-selection policy name.
func (f *Frontend) Balancer() string { return f.state.Load().balancer }

// Topology returns a copy of the shard -> replica URL layout.
func (f *Frontend) Topology() [][]string {
	out := make([][]string, len(f.groups))
	for i, g := range f.groups {
		out[i] = append([]string(nil), g...)
	}
	return out
}

// SetDrainTimeout bounds how long Close waits for in-flight requests
// before forcing connections shut.
func (f *Frontend) SetDrainTimeout(d time.Duration) { f.drain = d }

// Handler returns the front-end's HTTP handler.
func (f *Frontend) Handler() http.Handler { return f.mux }

// EnableCache adds a generation-stamped, frequency-admitted (W-TinyLFU)
// result cache of the given capacity in front of the scatter/gather path.
// Call before serving traffic. Only complete responses (every shard
// answered) are cached, so a transient outage can never poison the cache
// with partial result lists; a write routed through the front-end bumps
// the generation, making every cached result unreachable.
func (f *Frontend) EnableCache(capacity int) {
	f.cache = qcache.NewGenerational[[]byte](capacity)
}

// CacheStats reports the result cache's lifetime counters, and false
// when no cache is enabled.
func (f *Frontend) CacheStats() (qcache.Stats, bool) {
	if f.cache == nil {
		return qcache.Stats{}, false
	}
	return f.cache.Stats(), true
}

// CacheHitRate reports the result cache's lifetime hit rate (0 when no
// cache is enabled).
func (f *Frontend) CacheHitRate() float64 {
	st, _ := f.CacheStats()
	return st.HitRate()
}

// ResilienceStats summarizes the front-end's resilience counters.
type ResilienceStats struct {
	// Queries is the number of scatter/gather queries served (cache
	// hits excluded).
	Queries int64
	// Hedges is the number of hedge sub-requests issued.
	Hedges int64
	// Retries is the number of retry attempts issued.
	Retries int64
	// Writes is the number of mutations fanned out through the ring.
	Writes int64
	// HedgeRate is hedges per replica sub-request.
	HedgeRate float64
	// Nodes holds one health snapshot per replica in shard-major order
	// (shard 0's replicas first). With single-replica shards this is the
	// legacy one-entry-per-node layout.
	Nodes []resilience.HealthSnapshot
	// Balance holds per-shard balancer state, aligned with Topology().
	Balance []ShardBalanceStats
}

// ResilienceStats returns a point-in-time view of hedging, retry and
// per-replica health counters.
func (f *Frontend) ResilienceStats() ResilienceStats {
	st := f.state.Load()
	stats := ResilienceStats{
		Queries: f.queries.Load(),
		Hedges:  f.hedges.Load(),
		Retries: f.retries.Load(),
		Writes:  f.writes.Load(),
		Balance: f.balanceStats(st),
	}
	var subRequests int64
	for s := range st.health {
		for _, h := range st.health[s] {
			snap := h.Snapshot()
			stats.Nodes = append(stats.Nodes, snap)
			subRequests += snap.Requests
		}
	}
	if subRequests > 0 {
		stats.HedgeRate = float64(stats.Hedges) / float64(subRequests)
	}
	return stats
}

// BalanceStats returns per-shard, per-replica balancer state: pick
// counts, in-flight gauges, latency estimates and breaker positions.
func (f *Frontend) BalanceStats() []ShardBalanceStats {
	return f.balanceStats(f.state.Load())
}

func (f *Frontend) balanceStats(st *feState) []ShardBalanceStats {
	out := make([]ShardBalanceStats, len(f.groups))
	for s, group := range f.groups {
		snap := st.selectors[s].Snapshot()
		out[s] = ShardBalanceStats{
			Shard:    s,
			Policy:   st.balancer,
			Replicas: make([]ReplicaBalanceStats, len(group)),
		}
		for r, u := range group {
			out[s].Replicas[r] = ReplicaBalanceStats{
				URL:        u,
				Picks:      snap[r].Picks,
				InFlight:   snap[r].InFlight,
				EWMAMicros: snap[r].EWMA.Microseconds(),
				Breaker:    st.health[s][r].Breaker().State().String(),
			}
		}
	}
	return out
}

// cacheKey identifies a request for caching by what it means, not how it
// was spelled: the parsed mode, the effective top-k, the query text.
func cacheKey(mode search.Mode, topK int, query string) string {
	var buf [64]byte // room for most keys without a heap buffer
	b := append(buf[:0], byte(mode))
	b = strconv.AppendInt(b, int64(topK), 10)
	b = append(b, 0)
	b = append(b, query...)
	return string(b)
}

// Search scatters req to all shards and merges the responses, with no
// caller deadline beyond the policy's. It is the in-process API used by
// local clients; HTTP traffic flows through handleSearch with the
// request's context.
func (f *Frontend) Search(req SearchRequest) (SearchResponse, error) {
	return f.SearchContext(context.Background(), req)
}

// SearchContext scatters req to all shards and merges the responses,
// honoring ctx and the policy's per-query deadline (whichever is
// sooner). A partial merge — some shards failed or were breaker-skipped
// on every replica — is returned with Degraded set; total failure
// returns the join of every shard's error. The response is the caller's
// own: it shares no memory with the result cache or with later answers.
func (f *Frontend) SearchContext(ctx context.Context, req SearchRequest) (SearchResponse, error) {
	if req.TopK <= 0 {
		req.TopK = f.topK
	}
	mode, err := req.Validate()
	if err != nil {
		return SearchResponse{}, err
	}
	sc := getScratch()
	defer putScratch(sc)
	resp, wire, err := f.answer(ctx, mode, req, "", sc)
	if err != nil {
		return SearchResponse{}, err
	}
	if wire != nil {
		err = decodeSearchResponse(string(wire), &resp)
		return resp, err
	}
	resp.Hits = slices.Clone(resp.Hits)
	return resp, nil
}

// answer resolves one validated request whose TopK is set. Either it is
// in the result cache, and wire is the stored response, to be written or
// decoded as it is; or the shards are asked, and resp is the merge, its
// Hits in sc and valid until sc is released. body is req as it arrived
// over HTTP, "" when it did not or cannot be forwarded as it is.
func (f *Frontend) answer(ctx context.Context, mode search.Mode, req SearchRequest, body string, sc *wireScratch) (resp SearchResponse, wire []byte, err error) {
	var key string
	if f.cache != nil {
		key = cacheKey(mode, req.TopK, req.Query)
		if wire, ok := f.cache.Get(key); ok {
			return SearchResponse{}, wire, nil
		}
	}
	if body == "" {
		body = string(appendSearchRequest(sc.buf[:0], &req))
	}
	resp, err = f.scatter(ctx, req.TopK, body, sc)
	if err != nil || f.cache == nil || resp.Degraded {
		return resp, nil, err
	}
	hit := resp
	hit.Node, hit.TookMicros = "frontend-cache", 0
	if sc.buf, err = appendSearchResponse(sc.buf[:0], &hit); err == nil {
		f.cache.Put(key, bytes.Clone(sc.buf))
	}
	return resp, nil, nil
}

// shardResult is one shard's outcome in a scatter.
type shardResult struct {
	resp SearchResponse
	err  error
}

// scatter sends the encoded request body to every shard — shard 0 on the
// calling goroutine, the rest on their own — and merges the answers into
// sc.hits: score descending, URL ascending, cut to topK.
func (f *Frontend) scatter(ctx context.Context, topK int, body string, sc *wireScratch) (SearchResponse, error) {
	st := f.state.Load()
	if st.policy.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, st.policy.Deadline)
		defer cancel()
	}
	f.queries.Add(1)

	sc.shards = slices.Grow(sc.shards[:0], len(f.groups))[:len(f.groups)]
	results := sc.shards
	var wg sync.WaitGroup
	for s := 1; s < len(results); s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[s].resp, results[s].err = f.dispatchShard(ctx, st, s, body)
		}()
	}
	results[0].resp, results[0].err = f.dispatchShard(ctx, st, 0, body)
	wg.Wait()

	merged := SearchResponse{Node: "frontend"}
	hits := sc.hits[:0]
	var errs []error
	for s := range results {
		if results[s].err != nil {
			// Degraded results: the benchmark front-end answers with
			// whatever shards responded; total failure is an error.
			errs = append(errs, fmt.Errorf("cluster: shard %d (%s): %w",
				s, strings.Join(f.groups[s], " "), results[s].err))
			continue
		}
		r := &results[s].resp
		merged.NodesAnswered++
		merged.Degraded = merged.Degraded || r.Degraded
		hits = append(hits, r.Hits...)
		merged.Matches += r.Matches
		merged.TookMicros = max(merged.TookMicros, r.TookMicros)
	}
	sc.hits = hits
	if merged.NodesAnswered == 0 {
		return SearchResponse{}, errors.Join(errs...)
	}
	merged.Degraded = merged.Degraded || merged.NodesAnswered < len(f.groups)
	slices.SortStableFunc(hits, func(a, b WireHit) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return strings.Compare(a.URL, b.URL)
	})
	if len(hits) > 0 { // a merge of nothing stays nil: "hits":null
		merged.Hits = hits[:min(len(hits), topK)]
	}
	return merged, nil
}

// dispatchShard runs the full per-shard resilience ladder: replica
// selection, hedged attempt against a second replica, then budgeted
// retries (moved to a different replica when one is eligible) with
// jittered backoff for transient errors.
func (f *Frontend) dispatchShard(ctx context.Context, st *feState, shard int, body string) (SearchResponse, error) {
	st.budget.Deposit()
	var lastErr error
	prev := -1
	for attempt := 0; ; attempt++ {
		replica := f.pickReplica(st, shard, prev)
		if replica < 0 {
			if lastErr != nil {
				return SearchResponse{}, lastErr
			}
			return SearchResponse{}, ErrCircuitOpen
		}
		h := st.health[shard][replica]
		h.ObserveRequest()
		resp, err := f.hedgedQuery(ctx, st, shard, replica, body)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		prev = replica
		// Single-replica shards only re-send transient errors (a 500
		// would just repeat). With replicas, any error short of the
		// caller's context expiring is worth failing over to a different
		// machine: the fault may be local to the one we picked.
		retryable := transientErr(err)
		if len(st.health[shard]) > 1 && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			retryable = true
		}
		if attempt >= st.policy.MaxRetries || !retryable || ctx.Err() != nil {
			return SearchResponse{}, lastErr
		}
		if !st.budget.Withdraw() {
			return SearchResponse{}, fmt.Errorf("retry budget exhausted: %w", lastErr)
		}
		f.retries.Add(1)
		h.ObserveRetry()
		if delay := f.backoffDelay(st, attempt); delay > 0 {
			timer := time.NewTimer(delay)
			select {
			case <-ctx.Done():
				timer.Stop()
				return SearchResponse{}, lastErr
			case <-timer.C:
			}
		}
	}
}

// pickReplica chooses which replica of shard serves the next attempt,
// skipping open breakers. exclude is the replica a hedge or retry wants
// to avoid (-1 for none); it is only re-used when no alternative is
// admissible. Returns -1 when every replica's breaker rejects.
func (f *Frontend) pickReplica(st *feState, shard, exclude int) int {
	group := st.health[shard]
	if len(group) == 1 {
		if group[0].Breaker().Allow() {
			return 0
		}
		return -1
	}
	// A cooled-down open breaker gets its recovery probe first: healthy
	// replicas would otherwise absorb all traffic and the dead one could
	// never be observed healing. ProbeReady is a pure read, so only the
	// breaker actually dispatched to consumes its probe slot via Allow.
	for r, h := range group {
		if r != exclude && h.Breaker().ProbeReady() && h.Breaker().Allow() {
			return r
		}
	}
	candidates := make([]int, 0, len(group))
	for r, h := range group {
		if r != exclude && h.Breaker().State() == resilience.Closed {
			candidates = append(candidates, r)
		}
	}
	if len(candidates) > 0 {
		return st.selectors[shard].Pick(candidates)
	}
	// No closed breaker besides (possibly) the excluded replica: take
	// anything Allow admits, the excluded replica as the last resort.
	for r, h := range group {
		if r != exclude && h.Breaker().Allow() {
			return r
		}
	}
	if exclude >= 0 && group[exclude].Breaker().Allow() {
		return exclude
	}
	return -1
}

// backoffDelay draws the jittered backoff for one retry attempt. The
// shared rng is guarded by rngMu because shard goroutines retry in
// parallel (rand.Rand is not safe for concurrent use).
func (f *Frontend) backoffDelay(st *feState, attempt int) time.Duration {
	f.rngMu.Lock()
	defer f.rngMu.Unlock()
	return st.policy.RetryBackoff.Delay(attempt, f.rng)
}

// hedgedQuery issues one sub-request to the chosen replica and, when
// hedging is enabled and no answer arrived within the hedge delay, races
// a duplicate against it — sent to a different replica of the group when
// one is admissible, so a sick machine cannot straggle its own hedge.
// The first success wins; its latency feeds the serving replica's p95
// tracker (and hence the adaptive hedge delay).
func (f *Frontend) hedgedQuery(ctx context.Context, st *feState, shard, primary int, body string) (SearchResponse, error) {
	health := st.health[shard]
	if !st.policy.HedgeEnabled {
		start := time.Now()
		resp, err := f.queryReplica(ctx, st, shard, primary, body)
		if err == nil {
			health[primary].ObserveSuccess(time.Since(start))
			return resp, nil
		}
		health[primary].ObserveFailure()
		return SearchResponse{}, err
	}
	delay := st.policy.HedgeAfter
	if delay <= 0 {
		delay = health[primary].P95()
		if delay <= 0 {
			delay = defaultHedgeDelay
		}
		if delay < st.policy.HedgeMinDelay {
			delay = st.policy.HedgeMinDelay
		}
	}
	// The loser is canceled as soon as a winner returns, freeing the
	// replica (its handler honors request-context cancellation).
	subCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	type attemptResult struct {
		replica int
		resp    SearchResponse
		err     error
		lat     time.Duration
	}
	ch := make(chan attemptResult, 2)
	launch := func(replica int) {
		start := time.Now()
		resp, err := f.queryReplica(subCtx, st, shard, replica, body)
		ch <- attemptResult{replica, resp, err, time.Since(start)}
	}
	go launch(primary)
	launched := 1
	timer := time.NewTimer(delay)
	defer timer.Stop()
	var lastErr error
	for received := 0; received < launched; {
		select {
		case r := <-ch:
			received++
			if r.err == nil {
				health[r.replica].ObserveSuccess(r.lat)
				return r.resp, nil
			}
			health[r.replica].ObserveFailure()
			lastErr = r.err
		case <-timer.C:
			if launched == 1 {
				hedge := f.pickReplica(st, shard, primary)
				if hedge < 0 {
					hedge = primary // single replica or all breakers shut
				}
				launched++
				f.hedges.Add(1)
				health[hedge].ObserveHedge()
				go launch(hedge)
			}
		case <-ctx.Done():
			// The query deadline fired with attempts still in flight;
			// charge the primary so a blackholed replica trips its
			// breaker.
			health[primary].ObserveFailure()
			return SearchResponse{}, ctx.Err()
		}
	}
	return SearchResponse{}, lastErr
}

// queryReplica sends one sub-request to a replica, bracketing it with
// the shard selector's Start/Finish so load- and latency-aware policies
// see the traffic they routed.
func (f *Frontend) queryReplica(ctx context.Context, st *feState, shard, replica int, body string) (SearchResponse, error) {
	sel := st.selectors[shard]
	sel.Start(replica)
	start := time.Now()
	resp, err := f.targets[shard][replica].search(ctx, f.client, body)
	sel.Finish(replica, time.Since(start), err == nil)
	return resp, err
}

// transientErr reports whether an error is worth a retry: transport-level
// failures and overload statuses are; context cancellation, client
// errors, and malformed responses are not.
func transientErr(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var se *statusError
	if errors.As(err, &se) {
		switch se.code {
		case http.StatusTooManyRequests, http.StatusBadGateway,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	var ue *url.Error
	return errors.As(err, &ue)
}

// AddDoc routes one document mutation through the consistent-hash ring
// to every replica of the key-owning shard. The write succeeds when at
// least one replica acknowledges; Acked and Replicas in the response
// report how complete the fan-out was.
func (f *Frontend) AddDoc(ctx context.Context, req AddDocRequest) (MutateResponse, error) {
	if req.Key == "" {
		return MutateResponse{}, fmt.Errorf("cluster: empty document key")
	}
	body, err := json.Marshal(req)
	if err != nil {
		return MutateResponse{}, err
	}
	return f.fanoutWrite(ctx, "/docs", req.Key, body)
}

// DeleteDoc routes one document delete to every replica of the
// key-owning shard, with the same fan-out semantics as AddDoc.
func (f *Frontend) DeleteDoc(ctx context.Context, req DeleteDocRequest) (MutateResponse, error) {
	if req.Key == "" {
		return MutateResponse{}, fmt.Errorf("cluster: empty document key")
	}
	body, err := json.Marshal(req)
	if err != nil {
		return MutateResponse{}, err
	}
	return f.fanoutWrite(ctx, "/delete", req.Key, body)
}

// fanoutWrite sends one mutation to all replicas of the ring-owning
// shard in parallel. Success requires one acknowledgment — availability
// over strictness, matching the read path's any-replica-answers rule —
// and a successful write invalidates the result cache by bumping its
// generation.
func (f *Frontend) fanoutWrite(ctx context.Context, path, key string, body []byte) (MutateResponse, error) {
	st := f.state.Load()
	if st.policy.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, st.policy.Deadline)
		defer cancel()
	}
	shard := f.ring.Owner(key)
	group := f.groups[shard]
	type writeResult struct {
		resp MutateResponse
		err  error
	}
	results := make([]writeResult, len(group))
	var wg sync.WaitGroup
	for r := range group {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r].resp, results[r].err = postMutation(ctx, f.client, group[r]+path, body)
		}(r)
	}
	wg.Wait()

	out := MutateResponse{Shard: shard, Replicas: len(group)}
	var errs []error
	for r := range results {
		if results[r].err != nil {
			errs = append(errs, fmt.Errorf("cluster: replica %s: %w", group[r], results[r].err))
			continue
		}
		out.Acked++
		out.Found = out.Found || results[r].resp.Found
		if results[r].resp.Generation > out.Generation {
			out.Generation = results[r].resp.Generation
		}
	}
	if out.Acked == 0 {
		return MutateResponse{}, errors.Join(errs...)
	}
	f.writes.Add(1)
	if f.cache != nil {
		f.cache.Invalidate()
	}
	return out, nil
}

// handleSearch is the HTTP entry point. A cache hit is parse, probe and
// one Write of the stored bytes; a miss forwards the request body as it
// arrived when it names its own top-k.
func (f *Frontend) handleSearch(w http.ResponseWriter, r *http.Request) {
	sc := getScratch()
	defer putScratch(sc)
	req, mode, body, err := readSearchRequest(r, sc)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.TopK == 0 {
		req.TopK, body = f.topK, ""
	}
	start := time.Now()
	resp, wire, err := f.answer(r.Context(), mode, req, body, sc)
	if err != nil {
		if r.Context().Err() != nil {
			// Client is gone; nothing useful to write.
			return
		}
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	if wire == nil {
		if sc.buf, err = appendSearchResponse(sc.buf[:0], &resp); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		wire = sc.buf
	}
	f.hist.Record(time.Since(start))
	writeWire(w, wire)
}

// handleAddDoc is the HTTP entry point for ring-routed ingest.
func (f *Frontend) handleAddDoc(w http.ResponseWriter, r *http.Request) {
	var req AddDocRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	if req.Key == "" {
		http.Error(w, "bad request: empty key", http.StatusBadRequest)
		return
	}
	resp, err := f.AddDoc(r.Context(), req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	writeJSON(w, resp)
}

// handleDeleteDoc is the HTTP entry point for ring-routed deletes.
func (f *Frontend) handleDeleteDoc(w http.ResponseWriter, r *http.Request) {
	var req DeleteDocRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	if req.Key == "" {
		http.Error(w, "bad request: empty key", http.StatusBadRequest)
		return
	}
	resp, err := f.DeleteDoc(r.Context(), req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	writeJSON(w, resp)
}

// handleMetrics reports the front-end's end-to-end search-latency
// histogram (scatter, gather, merge and cache hits included), the result
// cache's counters and per-shard, per-replica balancer state.
func (f *Frontend) handleMetrics(w http.ResponseWriter, r *http.Request) {
	resp := MetricsResponse{
		Node:    "frontend",
		Search:  f.hist.Snapshot().JSON(),
		Balance: f.BalanceStats(),
	}
	if st, ok := f.CacheStats(); ok {
		resp.Cache = &st
	}
	writeJSON(w, resp)
}

// Start listens on addr and serves in the background, returning the bound
// address.
func (f *Frontend) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("cluster: frontend listen: %w", err)
	}
	f.ln = ln
	f.srv = &http.Server{Handler: f.mux}
	go func() { _ = f.srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Close shuts the front-end down gracefully: the listener stops accepting
// immediately, in-flight requests get up to the drain timeout to finish,
// then remaining connections are forced shut.
func (f *Frontend) Close() error {
	if f.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), f.drain)
	defer cancel()
	if err := f.srv.Shutdown(ctx); err != nil {
		return f.srv.Close()
	}
	return nil
}
