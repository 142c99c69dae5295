// Package simsrv is a discrete-event simulator of index serving: k cores
// of a given speed, a run queue, and fork-join execution of intra-server
// index partitions. The paper's partitioning and low-power studies are
// queueing-theoretic — fork-join shortens a slow query's critical path;
// many slow cores trade service time for parallelism — and the simulator
// reproduces exactly that math, driven by per-query service demands
// measured on the real Go engine (see Calibrate).
//
// The same engine runs the cluster extensions: a front-end scatters each
// query to Config.Nodes such servers (optionally replicated, hedged and
// jittered) and answers when the slowest responds. A one-server run is
// the degenerate fan-out of one node with no front-end costs; one event
// loop and one Stats serve both.
//
// This substitutes for the paper's physical Xeon-class and Atom-class
// testbeds, which this reproduction cannot access (and whose multicore
// behaviour could not be measured on this single-CPU host anyway).
package simsrv

import (
	"fmt"
	"time"
)

// ServerModel describes the simulated hardware.
type ServerModel struct {
	Name  string
	Cores int
	// SpeedFactor scales service demand: work that takes d seconds on
	// the reference core (the machine the demands were measured on)
	// takes d/SpeedFactor here.
	SpeedFactor float64
}

// XeonLike returns a conventional high-performance server model: few fast
// cores (Xeon-class, the paper's baseline).
func XeonLike() ServerModel {
	return ServerModel{Name: "xeon-like", Cores: 8, SpeedFactor: 1.0}
}

// AtomLike returns a low-power server model: the same core count but each
// core several times slower (Atom/microserver-class). Given enough
// partitioning, the paper shows this class can match the Xeon's response
// times.
func AtomLike() ServerModel {
	return ServerModel{Name: "atom-like", Cores: 8, SpeedFactor: 0.3}
}

// Discipline selects how queued tasks are ordered for dispatch.
type Discipline uint8

const (
	// FCFS serves tasks in arrival order (the benchmark's thread-pool
	// default).
	FCFS Discipline = iota
	// SJF serves the shortest queued task first (non-preemptive),
	// studied by the scheduling ablation: it trades worst-case fairness
	// for mean latency.
	SJF
)

func (d Discipline) String() string {
	switch d {
	case FCFS:
		return "FCFS"
	case SJF:
		return "SJF"
	default:
		return fmt.Sprintf("Discipline(%d)", uint8(d))
	}
}

// OpenLoop is a Poisson arrival process. When Diurnal is set the rate
// varies sinusoidally between RateQPS (the trough) and Diurnal.PeakQPS
// with the given period, modeling the daily traffic swing a web search
// service must meet QoS across.
type OpenLoop struct {
	RateQPS float64
	Diurnal *DiurnalLoad
}

// DiurnalLoad describes a sinusoidal load swing.
type DiurnalLoad struct {
	PeakQPS float64 // rate at the daily peak; must exceed RateQPS
	Period  float64 // seconds per full cycle
}

// ClosedLoop is a fixed client population with negative-exponential think
// times (seconds).
type ClosedLoop struct {
	Clients   int
	MeanThink float64
}

// Config parameterizes one simulation run.
type Config struct {
	// Server is the hardware model of every node.
	Server ServerModel
	// Partitions is the intra-server partition count P: each query forks
	// into P subtasks followed by a merge task.
	Partitions int
	// Demands is the empirical distribution of total per-query service
	// demand in reference-core seconds (single partition, no overheads),
	// sampled uniformly per arrival. Calibrate produces it from real
	// engine measurements.
	Demands []float64
	// PartitionOverhead is the fixed extra demand each subtask pays
	// (per-partition dictionary lookup, iterator setup, heap), in
	// reference seconds.
	PartitionOverhead float64
	// MergeBase + MergePerPartition*P is the demand of the merge task.
	MergeBase         float64
	MergePerPartition float64
	// ImbalanceCV is the coefficient of variation of the per-partition
	// work split: 0 is a perfectly even split; round-robin document
	// assignment measures around 0.1.
	ImbalanceCV float64
	// Discipline orders the run queue (default FCFS).
	Discipline Discipline

	// Exactly one of Open or Closed must be set.
	Open   *OpenLoop
	Closed *ClosedLoop

	// Warmup and Duration are in simulated seconds; statistics cover
	// [Warmup, Warmup+Duration).
	Warmup   float64
	Duration float64
	Seed     int64

	// CollectLatencies, when set, retains every per-query response time
	// in Stats.Latencies (for CDF figures). Off by default to keep large
	// sweeps cheap.
	CollectLatencies bool

	// Nodes is the shard count a front-end fans each query out to; the
	// query answers when its slowest shard has. Every node is a Server
	// with Partitions-way fork-join, and Demands is per-node work (each
	// node holds a fixed-size shard, so per-node work does not shrink as
	// nodes are added). 0 means 1. The fan-out fields below all default
	// to off: at their zero values a run is one server, no front-end.
	Nodes int
	// Replicas is the number of servers per shard (0 means 1). Each shard
	// dispatch goes to one replica, chosen uniformly.
	Replicas int
	// HedgeAfter, when positive, re-dispatches a shard still unanswered
	// after this many seconds to the next replica — the hedged-request
	// mitigation for fan-out tails. The first response wins; the loser's
	// work still occupies its server. Requires Replicas >= 2.
	HedgeAfter float64
	// NodeImbalanceCV spreads one query's demand across shards: shard
	// n's work is the sampled demand times max(0.05, 1+cv*N(0,1)).
	NodeImbalanceCV float64
	// ServerJitterProb is the probability that one shard dispatch lands
	// on a transiently slow server (GC pause, co-located interference),
	// where its work runs ServerJitterFactor times slower. The slowdown
	// is independent across dispatches — the failure mode hedging masks.
	ServerJitterProb   float64
	ServerJitterFactor float64
	// NetworkDelay is the one-way front-end<->node latency, charged twice
	// per query, and FrontendMerge the front-end's merge time, both in
	// seconds and both fixed delays: the front-end tier is provisioned
	// never to be the bottleneck.
	NetworkDelay  float64
	FrontendMerge float64
}

func (c Config) validate() error {
	switch {
	case c.Server.Cores <= 0:
		return fmt.Errorf("simsrv: Cores = %d, must be positive", c.Server.Cores)
	case c.Server.SpeedFactor <= 0:
		return fmt.Errorf("simsrv: SpeedFactor = %v, must be positive", c.Server.SpeedFactor)
	case c.Partitions <= 0:
		return fmt.Errorf("simsrv: Partitions = %d, must be positive", c.Partitions)
	case c.Nodes < 0 || c.Replicas < 0:
		return fmt.Errorf("simsrv: negative Nodes or Replicas")
	case len(c.Demands) == 0:
		return fmt.Errorf("simsrv: empty demand distribution")
	case c.PartitionOverhead < 0 || c.MergeBase < 0 || c.MergePerPartition < 0:
		return fmt.Errorf("simsrv: negative overhead")
	case c.ImbalanceCV < 0 || c.NodeImbalanceCV < 0:
		return fmt.Errorf("simsrv: negative imbalance")
	case c.NetworkDelay < 0 || c.FrontendMerge < 0:
		return fmt.Errorf("simsrv: negative front-end cost")
	case c.HedgeAfter < 0:
		return fmt.Errorf("simsrv: negative HedgeAfter")
	case c.HedgeAfter > 0 && c.Replicas < 2:
		return fmt.Errorf("simsrv: hedging requires Replicas >= 2")
	case c.ServerJitterProb < 0 || c.ServerJitterProb > 1:
		return fmt.Errorf("simsrv: ServerJitterProb out of [0,1]")
	case c.ServerJitterProb > 0 && c.ServerJitterFactor < 1:
		return fmt.Errorf("simsrv: ServerJitterFactor must be >= 1")
	case c.Discipline != FCFS && c.Discipline != SJF:
		return fmt.Errorf("simsrv: unknown discipline %v", c.Discipline)
	case c.Duration <= 0:
		return fmt.Errorf("simsrv: Duration must be positive")
	case c.Warmup < 0:
		return fmt.Errorf("simsrv: negative Warmup")
	}
	for _, d := range c.Demands {
		if d <= 0 {
			return fmt.Errorf("simsrv: non-positive demand %v", d)
		}
	}
	if (c.Open == nil) == (c.Closed == nil) {
		return fmt.Errorf("simsrv: exactly one of Open or Closed must be set")
	}
	if c.Open != nil {
		if c.Open.RateQPS <= 0 {
			return fmt.Errorf("simsrv: RateQPS = %v, must be positive", c.Open.RateQPS)
		}
		if d := c.Open.Diurnal; d != nil {
			if d.PeakQPS <= c.Open.RateQPS {
				return fmt.Errorf("simsrv: diurnal peak %v must exceed trough %v", d.PeakQPS, c.Open.RateQPS)
			}
			if d.Period <= 0 {
				return fmt.Errorf("simsrv: diurnal period must be positive")
			}
		}
	}
	if c.Closed != nil && (c.Closed.Clients <= 0 || c.Closed.MeanThink < 0) {
		return fmt.Errorf("simsrv: invalid closed-loop config %+v", *c.Closed)
	}
	return nil
}

// Calibrate converts measured per-query service times from the real
// engine into a reference-demand distribution (seconds).
func Calibrate(measured []time.Duration) []float64 {
	out := make([]float64, 0, len(measured))
	for _, d := range measured {
		if d > 0 {
			out = append(out, d.Seconds())
		}
	}
	return out
}
