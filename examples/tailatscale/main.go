// Tailatscale: why per-server tail latency is the number that matters in
// web search, and what hedged requests buy. A front-end fans each query
// out to every shard and waits for the slowest response, so a node-level
// p99 becomes a cluster-level commonplace; replicating shards and hedging
// slow dispatches claws the tail back.
//
//	go run ./examples/tailatscale
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"websearchbench/internal/experiments"
	"websearchbench/internal/simsrv"
)

func main() {
	log.SetFlags(0)

	ctx := experiments.NewContext(os.Stdout, 0.1)
	fmt.Println("calibrating per-node service demands from the real engine...")
	node := simsrv.XeonLike()
	qps := 0.4 * ctx.EffectiveCapacity(node, 1)

	base := ctx.SimulatorConfig(node, 1, 7)
	base.NodeImbalanceCV = 0.1
	base.ServerJitterProb = 0.05
	base.ServerJitterFactor = 10
	base.NetworkDelay = 0.0002
	base.FrontendMerge = base.MergeBase
	base.Open = &simsrv.OpenLoop{RateQPS: qps}
	base.Warmup, base.Duration = 5, 60

	fmt.Printf("\n1. fan-out amplifies the tail (per-node load fixed at %.0f qps):\n", qps)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "shards\tmedian\tp99\n")
	for _, n := range []int{1, 4, 16, 64} {
		cfg := base
		cfg.Nodes = n
		st, err := simsrv.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "%d\t%v\t%v\n", n, st.Latency.P50, st.Latency.P99)
	}
	w.Flush()

	fmt.Println("\n2. hedged requests claw it back (16 shards, 2 replicas each):")
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "policy\tp99\thedge rate\n")
	for _, hedge := range []struct {
		name  string
		after float64
	}{
		{"no hedging", 0},
		{"hedge after 3x mean", 3 * ctx.MeanDemand()},
	} {
		cfg := base
		cfg.Nodes = 16
		cfg.Replicas = 2
		cfg.HedgeAfter = hedge.after
		st, err := simsrv.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		rate := 0.0
		if st.Completed > 0 {
			rate = float64(st.Hedged) / float64(st.Completed) / 16
		}
		fmt.Fprintf(w, "%s\t%v\t%.1f%%\n", hedge.name, st.Latency.P99, rate*100)
	}
	w.Flush()
	fmt.Println("\na small fraction of duplicated work removes the transiently slow")
	fmt.Println("servers from every query's critical path.")
}
