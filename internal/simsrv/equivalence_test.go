package simsrv

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"websearchbench/internal/metrics"
)

// recordedRun is one row of testdata/parent_runs.json: the output of the
// same configuration at commit 667c111, the last revision that ran
// one-server and fan-out simulations on two separate event loops (Run
// and RunCluster). Fan-out rows carry NodeLatency and Hedged; the
// one-server rows carry the queue and in-flight averages and, where
// CollectLatencies was set, every sample.
type recordedRun struct {
	Name         string
	Latency      metrics.Snapshot
	NodeLatency  *metrics.Snapshot
	Completed    int64
	Throughput   float64
	Utilization  float64
	MeanQueueLen float64
	MeanInFlight float64
	Latencies    []time.Duration
	ArrivalTimes []float64
	Hedged       int64
}

var eqDemands = []float64{0.0021, 0.0034, 0.0055, 0.0089, 0.0144, 0.0233, 0.0377, 0.0610}

func eqServer(cores int, speed float64) ServerModel {
	return ServerModel{Name: "eq", Cores: cores, SpeedFactor: speed}
}

// equivalenceRuns covers every field a caller sets: open, closed and
// diurnal arrivals, FCFS and SJF, P in {1, 4, 16} with imbalance,
// CollectLatencies, and fan-out at 1, 4, 16 and 64 nodes with replicas,
// hedging, jitter, network delay and front-end merge.
var equivalenceRuns = []struct {
	name string
	cfg  Config
	// tol is the permitted relative error; 0 demands identical bits.
	// Fan-out with P > 1 used to split a shard as demand*w/sum and now
	// splits it as demand*(w/sum), like a one-server run, which can move
	// a sampled demand by one ULP.
	tol float64
}{
	{"open-fcfs-p1-latencies", Config{Server: eqServer(4, 1), Partitions: 1, Demands: eqDemands,
		Open: &OpenLoop{RateQPS: 150}, Warmup: 2, Duration: 5, Seed: 11, CollectLatencies: true}, 0},
	{"open-fcfs-p4-imbalance-latencies", Config{Server: eqServer(4, 1), Partitions: 4, Demands: eqDemands,
		PartitionOverhead: 0.0002, MergeBase: 0.0003, MergePerPartition: 0.00005, ImbalanceCV: 0.15,
		Open: &OpenLoop{RateQPS: 120}, Warmup: 2, Duration: 5, Seed: 12, CollectLatencies: true}, 0},
	{"open-sjf-p16-imbalance", Config{Server: eqServer(8, 0.7), Partitions: 16, Demands: eqDemands,
		PartitionOverhead: 0.0001, MergeBase: 0.0002, MergePerPartition: 0.00002, ImbalanceCV: 0.2,
		Discipline: SJF, Open: &OpenLoop{RateQPS: 250}, Warmup: 3, Duration: 8, Seed: 13}, 0},
	{"open-sjf-p1-saturated", Config{Server: eqServer(2, 1), Partitions: 1, Demands: eqDemands,
		Discipline: SJF, Open: &OpenLoop{RateQPS: 200}, Warmup: 1, Duration: 20, Seed: 14}, 0},
	{"closed-fcfs-p4-imbalance-latencies", Config{Server: eqServer(4, 1), Partitions: 4, Demands: eqDemands,
		PartitionOverhead: 0.0002, MergeBase: 0.0003, MergePerPartition: 0.00005, ImbalanceCV: 0.1,
		Closed: &ClosedLoop{Clients: 6, MeanThink: 0.03}, Warmup: 2, Duration: 5, Seed: 15, CollectLatencies: true}, 0},
	{"closed-sjf-p1-zero-think", Config{Server: eqServer(2, 1), Partitions: 1, Demands: []float64{0.004, 0.004, 0.009},
		Discipline: SJF, Closed: &ClosedLoop{Clients: 5, MeanThink: 0}, Warmup: 1, Duration: 10, Seed: 16}, 0},
	{"closed-fcfs-p16-imbalance", Config{Server: eqServer(8, 0.3), Partitions: 16, Demands: eqDemands,
		PartitionOverhead: 0.0001, MergeBase: 0.0002, MergePerPartition: 0.00002, ImbalanceCV: 0.1,
		Closed: &ClosedLoop{Clients: 12, MeanThink: 0.01}, Warmup: 2, Duration: 8, Seed: 17}, 0},
	{"diurnal-fcfs-p4-latencies", Config{Server: eqServer(4, 1), Partitions: 4, Demands: eqDemands,
		PartitionOverhead: 0.0002, MergeBase: 0.0003, MergePerPartition: 0.00005, ImbalanceCV: 0.1,
		Open: &OpenLoop{RateQPS: 20, Diurnal: &DiurnalLoad{PeakQPS: 200, Period: 4}}, Warmup: 0, Duration: 6, Seed: 18,
		CollectLatencies: true}, 0},
	{"diurnal-sjf-p1", Config{Server: eqServer(2, 1), Partitions: 1, Demands: eqDemands,
		Discipline: SJF, Open: &OpenLoop{RateQPS: 30, Diurnal: &DiurnalLoad{PeakQPS: 160, Period: 10}},
		Warmup: 5, Duration: 40, Seed: 19}, 0},
	{"fanout-1-node", Config{Nodes: 1, Server: eqServer(4, 1), Partitions: 1, Demands: eqDemands,
		NodeImbalanceCV: 0.1, NetworkDelay: 0.0005, FrontendMerge: 0.0002,
		Open: &OpenLoop{RateQPS: 150}, Warmup: 2, Duration: 30, Seed: 21}, 0},
	{"fanout-1-node-bare", Config{Nodes: 1, Server: eqServer(4, 1), Partitions: 1, Demands: eqDemands,
		Open: &OpenLoop{RateQPS: 150}, Warmup: 2, Duration: 5, Seed: 11}, 0},
	{"fanout-4-nodes", Config{Nodes: 4, Server: eqServer(4, 1), Partitions: 1, Demands: eqDemands,
		NodeImbalanceCV: 0.1, PartitionOverhead: 0.0002, MergeBase: 0.0003, MergePerPartition: 0.00005,
		ImbalanceCV: 0.15, NetworkDelay: 0.0002, FrontendMerge: 0.0003,
		Open: &OpenLoop{RateQPS: 120}, Warmup: 2, Duration: 30, Seed: 22}, 0},
	{"fanout-64-nodes", Config{Nodes: 64, Server: eqServer(8, 1), Partitions: 1, Demands: eqDemands,
		NodeImbalanceCV: 0.1, NetworkDelay: 0.0002, FrontendMerge: 0.0003,
		Open: &OpenLoop{RateQPS: 200}, Warmup: 1, Duration: 2, Seed: 23}, 0},
	{"fanout-4x3-replicas", Config{Nodes: 4, Replicas: 3, Server: eqServer(2, 1), Partitions: 1, Demands: eqDemands,
		NodeImbalanceCV: 0.2, NetworkDelay: 0.0002, FrontendMerge: 0.0001,
		Open: &OpenLoop{RateQPS: 150}, Warmup: 2, Duration: 20, Seed: 24}, 0},
	{"fanout-16x2-hedge-jitter", Config{Nodes: 16, Replicas: 2, HedgeAfter: 0.02, Server: eqServer(4, 1),
		Partitions: 1, Demands: eqDemands, NodeImbalanceCV: 0.1,
		ServerJitterProb: 0.05, ServerJitterFactor: 10, NetworkDelay: 0.0002, FrontendMerge: 0.0003,
		Open: &OpenLoop{RateQPS: 100}, Warmup: 2, Duration: 6, Seed: 25}, 0},
	{"fanout-64x2-hedge-jitter", Config{Nodes: 64, Replicas: 2, HedgeAfter: 0.015, Server: eqServer(8, 1),
		Partitions: 1, Demands: eqDemands, NodeImbalanceCV: 0.1,
		ServerJitterProb: 0.05, ServerJitterFactor: 10, NetworkDelay: 0.0002, FrontendMerge: 0.0003,
		Open: &OpenLoop{RateQPS: 120}, Warmup: 0.5, Duration: 1.5, Seed: 26}, 0},
	{"fanout-4-nodes-p4", Config{Nodes: 4, Replicas: 2, HedgeAfter: 0.03, Server: eqServer(4, 1), Partitions: 4,
		Demands: eqDemands, NodeImbalanceCV: 0.1, PartitionOverhead: 0.0002, MergeBase: 0.0003,
		MergePerPartition: 0.00005, ImbalanceCV: 0.15, ServerJitterProb: 0.05, ServerJitterFactor: 10,
		NetworkDelay: 0.0002, FrontendMerge: 0.0003, Open: &OpenLoop{RateQPS: 120}, Warmup: 2, Duration: 8, Seed: 27}, 1e-12},
}

// TestParentEquivalence pins the engine to the recorded output of the
// two-loop simulator it replaced.
func TestParentEquivalence(t *testing.T) {
	b, err := os.ReadFile("testdata/parent_runs.json")
	if err != nil {
		t.Fatal(err)
	}
	var recorded []recordedRun
	if err := json.Unmarshal(b, &recorded); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]recordedRun, len(recorded))
	for _, r := range recorded {
		want[r.Name] = r
	}
	if len(want) != len(equivalenceRuns) {
		t.Fatalf("%d recorded runs, %d configs", len(want), len(equivalenceRuns))
	}
	for _, row := range equivalenceRuns {
		t.Run(row.name, func(t *testing.T) {
			w, ok := want[row.name]
			if !ok {
				t.Fatal("no recorded run")
			}
			st, err := Run(row.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := recordedRun{Name: row.name, Latency: st.Latency, Completed: st.Completed,
				Throughput: st.Throughput, Utilization: st.Utilization,
				Latencies: st.Latencies, ArrivalTimes: st.ArrivalTimes, Hedged: st.Hedged}
			if w.NodeLatency != nil {
				got.NodeLatency = &st.NodeLatency
			} else {
				// The fan-out loop did not integrate queue length or
				// queries in flight, so only one-server rows record them.
				got.MeanQueueLen, got.MeanInFlight = st.MeanQueueLen, st.MeanInFlight
			}
			if row.tol == 0 {
				if !reflect.DeepEqual(got, w) {
					t.Errorf("differs from the recorded run:\n got %+v\nwant %+v", summary(got), summary(w))
				}
				return
			}
			near := func(a, b float64) bool { return a == b || math.Abs(a-b) <= row.tol*math.Max(math.Abs(a), math.Abs(b)) }
			gv, wv := flatten(got), flatten(w)
			if len(gv) != len(wv) {
				t.Fatalf("%d values, recorded %d", len(gv), len(wv))
			}
			for i := range gv {
				if !near(gv[i], wv[i]) {
					t.Errorf("value %d = %v, recorded %v (tolerance %g)", i, gv[i], wv[i], row.tol)
				}
			}
		})
	}
}

// summary drops the per-sample slices from a failure message.
func summary(r recordedRun) recordedRun {
	r.Latencies, r.ArrivalTimes = nil, nil
	return r
}

// flatten lists every compared value of a run in a fixed order.
func flatten(r recordedRun) []float64 {
	snap := func(s metrics.Snapshot) []float64 {
		return []float64{float64(s.Count), float64(s.Mean), float64(s.Min), float64(s.P50),
			float64(s.P90), float64(s.P95), float64(s.P99), float64(s.Max)}
	}
	out := snap(r.Latency)
	if r.NodeLatency != nil {
		out = append(out, snap(*r.NodeLatency)...)
	}
	out = append(out, float64(r.Completed), r.Throughput, r.Utilization,
		r.MeanQueueLen, r.MeanInFlight, float64(r.Hedged))
	for _, l := range r.Latencies {
		out = append(out, float64(l))
	}
	return append(out, r.ArrivalTimes...)
}
