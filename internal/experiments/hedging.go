package experiments

import (
	"fmt"
	"time"

	"websearchbench/internal/simsrv"
)

// E18Row is one hedging policy's measurement.
type E18Row struct {
	Policy string
	Mean   time.Duration
	P50    time.Duration
	P99    time.Duration
	// HedgeRate is duplicate shard dispatches per shard request.
	HedgeRate float64
	// ExtraUtil is the utilization increase over the unhedged baseline,
	// in percentage points: the capacity hedging costs.
	ExtraUtil float64
}

// E18Result is the hedged-requests extension experiment.
type E18Result struct {
	Rows []E18Row
}

// E18Hedging measures hedged requests on a replicated 16-shard cluster
// where 5% of shard dispatches land on a transiently slow (10x) server —
// the server-side jitter that dominates production fan-out tails. The
// sweep contrasts no hedging with hedge deadlines near the healthy p95
// and a too-eager deadline, showing the tail-vs-extra-work trade.
func (c *Context) E18Hedging() E18Result {
	node := simsrv.XeonLike()
	qps := 0.35 * c.EffectiveCapacity(node, 1) // headroom for hedge work
	healthyP95 := 3 * c.MeanDemand()           // rough healthy tail for the deadline
	base := c.SimulatorConfig(node, 1, 1100)
	base.Nodes = 16
	base.Replicas = 2
	base.NodeImbalanceCV = 0.1
	base.ServerJitterProb = 0.05
	base.ServerJitterFactor = 10
	base.NetworkDelay = 0.0002
	base.FrontendMerge = base.MergeBase
	base.Open = &simsrv.OpenLoop{RateQPS: qps}
	policies := []struct {
		name  string
		hedge float64
	}{
		{"no hedging", 0},
		{"hedge @ healthy p95", healthyP95},
		{"hedge @ p50 (eager)", 0.7 * c.MeanDemand()},
	}
	res := E18Result{}
	var baseUtil float64
	for i, pol := range policies {
		cfg := base
		cfg.HedgeAfter = pol.hedge
		st, err := simsrv.Run(cfg)
		if err != nil {
			panic(fmt.Sprintf("experiments: cluster sim failed: %v", err))
		}
		row := E18Row{
			Policy: pol.name,
			Mean:   st.Latency.Mean,
			P50:    st.Latency.P50,
			P99:    st.Latency.P99,
		}
		if st.Completed > 0 {
			row.HedgeRate = float64(st.Hedged) / float64(st.Completed) / float64(base.Nodes)
		}
		if i == 0 {
			baseUtil = st.Utilization
		}
		row.ExtraUtil = (st.Utilization - baseUtil) * 100
		res.Rows = append(res.Rows, row)
	}
	c.section("E18", "hedged requests on a replicated cluster (extension)")
	fmt.Fprintf(c.Out, "16 shards x 2 replicas, 5%% of dispatches 10x slow, load %.0f qps\n", qps)
	w := c.table()
	fmt.Fprintf(w, "policy\tmean\tp50\tp99\thedge rate\textra util\n")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%.1f%%\t%+.1fpp\n",
			r.Policy, ms(r.Mean), ms(r.P50), ms(r.P99), r.HedgeRate*100, r.ExtraUtil)
	}
	w.Flush()
	return res
}
