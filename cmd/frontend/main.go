// Command frontend serves the scatter/gather tier in front of searchd
// nodes, with the resilience layer (deadlines, hedging, retries, circuit
// breakers) exposed as flags. GET /metrics reports the end-to-end
// search-latency histogram as JSON (count, mean, p50/p95/p99) plus
// per-shard replica-balancer state.
//
// Usage:
//
//	frontend -addr :8080 -nodes http://127.0.0.1:8081,http://127.0.0.1:8082 \
//	  -deadline 2s -hedge -hedge-after 0 -retries 2
//
// For a replicated tier, -topology replaces -nodes: shards are separated
// by ';' and a shard's replicas by ','. -balance picks the replica
// selector (rr, p2c, peak-ewma, least-loaded). Live-index writes posted
// to the front-end (POST /docs, /delete) are consistent-hash routed to
// every replica of the key-owning shard:
//
//	frontend -addr :8080 \
//	  -topology "http://127.0.0.1:8081,http://127.0.0.1:8082;http://127.0.0.1:8083,http://127.0.0.1:8084" \
//	  -balance p2c -hedge
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"websearchbench/internal/cluster"
	"websearchbench/internal/cluster/balance"
	"websearchbench/internal/cluster/resilience"
)

// parseTopology splits a ';'-separated shard list of ','-separated
// replica URLs into replica groups.
func parseTopology(s string) ([][]string, error) {
	var groups [][]string
	for _, shard := range strings.Split(s, ";") {
		var group []string
		for _, u := range strings.Split(shard, ",") {
			if u = strings.TrimSpace(u); u != "" {
				group = append(group, u)
			}
		}
		if len(group) == 0 {
			return nil, fmt.Errorf("topology shard %d has no replicas", len(groups))
		}
		groups = append(groups, group)
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("empty topology")
	}
	return groups, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("frontend: ")

	def := resilience.DefaultPolicy()
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address")
		nodes    = flag.String("nodes", "http://127.0.0.1:8081", "comma-separated node base URLs (one single-replica shard each)")
		topology = flag.String("topology", "", "replicated layout: shards separated by ';', replicas by ',' (overrides -nodes)")
		balancer = flag.String("balance", balance.RoundRobin, "replica selector: rr, p2c, peak-ewma, least-loaded")
		topK     = flag.Int("topk", 10, "merged results per query")
		cache    = flag.Int("cache", 0, "result-cache capacity (0 disables)")

		deadline   = flag.Duration("deadline", def.Deadline, "per-query deadline (0 disables)")
		hedge      = flag.Bool("hedge", false, "hedge straggling node sub-requests")
		hedgeAfter = flag.Duration("hedge-after", 0, "fixed hedge delay (0 = adaptive per-node p95)")
		retries    = flag.Int("retries", def.MaxRetries, "max retries for transient node errors")
		budget     = flag.Float64("retry-budget", def.RetryBudgetRatio, "retry budget ratio (0 = unlimited)")
		brkThresh  = flag.Int("breaker-threshold", def.BreakerThreshold, "consecutive failures tripping a node's breaker (0 disables)")
		brkCool    = flag.Duration("breaker-cooldown", def.BreakerCooldown, "breaker open time before the half-open probe")
		drain      = flag.Duration("drain", 5*time.Second, "graceful-shutdown drain timeout")
	)
	flag.Parse()

	spec := *topology
	if spec == "" {
		spec = strings.ReplaceAll(*nodes, ",", ";") // each node its own shard
	}
	groups, err := parseTopology(spec)
	if err != nil {
		log.Fatal(err)
	}
	fe, err := cluster.NewReplicatedFrontend(groups, *topK)
	if err != nil {
		log.Fatal(err)
	}
	if err := fe.SetBalancer(*balancer); err != nil {
		log.Fatal(err)
	}
	policy := def
	policy.Deadline = *deadline
	policy.HedgeEnabled = *hedge
	policy.HedgeAfter = *hedgeAfter
	policy.MaxRetries = *retries
	policy.RetryBudgetRatio = *budget
	policy.BreakerThreshold = *brkThresh
	policy.BreakerCooldown = *brkCool
	fe.SetPolicy(policy)
	fe.SetDrainTimeout(*drain)
	if *cache > 0 {
		fe.EnableCache(*cache)
	}
	bound, err := fe.Start(*addr)
	if err != nil {
		log.Fatal(err)
	}
	replicas := 0
	for _, g := range groups {
		replicas += len(g)
	}
	fmt.Printf("frontend on http://%s scattering to %d shards / %d replicas, balance %s (deadline %v, hedge %v, retries %d)\n",
		bound, len(groups), replicas, *balancer, *deadline, *hedge, *retries)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	st := fe.ResilienceStats()
	fmt.Printf("served %d queries: %d hedges (%.2f%% of sub-requests), %d retries, %d writes\n",
		st.Queries, st.Hedges, st.HedgeRate*100, st.Retries, st.Writes)
	if cs, ok := fe.CacheStats(); ok {
		fmt.Printf("result cache: %d hits, %d misses (hit rate %.3f), %d rejected by admission, %d entries\n",
			cs.Hits, cs.Misses, cs.HitRate(), cs.Rejected, cs.Len)
	}
	i := 0
	for s, g := range groups {
		for r, u := range g {
			n := st.Nodes[i]
			b := st.Balance[s].Replicas[r]
			fmt.Printf("  shard %d %s: %d reqs, %d picks, %d failures, breaker %s, p95 %v\n",
				s, u, n.Requests, b.Picks, n.Failures, n.State, n.P95)
			i++
		}
	}
	if err := fe.Close(); err != nil {
		log.Fatal(err)
	}
}
