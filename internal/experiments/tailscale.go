package experiments

import (
	"fmt"
	"time"

	"websearchbench/internal/simsrv"
)

// E16Row is one cluster size's fan-out measurement.
type E16Row struct {
	Nodes int
	Mean  time.Duration
	P50   time.Duration
	P99   time.Duration
	// NodeP99 is the per-node (pre-fan-out) p99, which should stay flat
	// across the sweep since per-node load is held constant.
	NodeP99 time.Duration
	// Amplification is the cluster p50 relative to the single-node p50:
	// how much the fan-out max inflates the typical query.
	Amplification float64
}

// E16Result is the tail-at-scale extension experiment.
type E16Result struct {
	OfferedQPS float64
	Rows       []E16Row
}

// E16TailAtScale sweeps the cluster fan-out width at constant per-node
// load (the scale-out regime: more nodes, same shard size each). Because
// the front-end must wait for the slowest of N nodes, the typical query's
// latency climbs toward the single-node tail as N grows — the
// tail-at-scale effect that motivates the paper's focus on per-server
// tail latency: a server-level p99 becomes a cluster-level median.
func (c *Context) E16TailAtScale() E16Result {
	node := simsrv.XeonLike()
	// Per-node load ~50% of node capacity, independent of N.
	qps := 0.5 * c.EffectiveCapacity(node, 1)
	res := E16Result{OfferedQPS: qps}
	var baseP50 time.Duration
	for _, n := range []int{1, 4, 16, 64} {
		cfg := c.SimulatorConfig(node, 1, 900+int64(n))
		cfg.Nodes = n
		cfg.NodeImbalanceCV = 0.1
		cfg.NetworkDelay = 0.0002
		cfg.FrontendMerge = cfg.MergeBase
		cfg.Open = &simsrv.OpenLoop{RateQPS: qps}
		st, err := simsrv.Run(cfg)
		if err != nil {
			panic(fmt.Sprintf("experiments: cluster sim failed: %v", err))
		}
		row := E16Row{
			Nodes:   n,
			Mean:    st.Latency.Mean,
			P50:     st.Latency.P50,
			P99:     st.Latency.P99,
			NodeP99: st.NodeLatency.P99,
		}
		if n == 1 {
			baseP50 = row.P50
		}
		if baseP50 > 0 {
			row.Amplification = float64(row.P50) / float64(baseP50)
		}
		res.Rows = append(res.Rows, row)
	}
	c.section("E16", "tail at scale: fan-out width vs latency (extension)")
	fmt.Fprintf(c.Out, "per-node load: %.0f qps (constant across the sweep)\n", qps)
	w := c.table()
	fmt.Fprintf(w, "nodes\tmean\tp50\tp99\tper-node p99\tp50 amplification\n")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%s\t%.2fx\n",
			r.Nodes, ms(r.Mean), ms(r.P50), ms(r.P99), ms(r.NodeP99), r.Amplification)
	}
	w.Flush()
	return res
}
