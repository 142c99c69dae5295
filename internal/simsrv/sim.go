package simsrv

import (
	"math"
	"math/rand"
	"time"

	"websearchbench/internal/metrics"
)

// Stats summarizes one simulation run over the measurement window.
type Stats struct {
	// Latency is the end-to-end response time: for a fan-out run, the
	// slowest shard plus network and front-end merge.
	Latency metrics.Snapshot
	// NodeLatency is the distribution of per-node response times (node
	// queueing plus service), one sample per shard, before the fan-out
	// max. For a one-server run it equals Latency.
	NodeLatency metrics.Snapshot
	// Completed counts queries that both arrived and completed inside
	// the measurement window.
	Completed int64
	// Throughput is Completed divided by the window length (QPS).
	Throughput float64
	// Utilization is busy core-time divided by total core-time in the
	// window over all nodes, in [0, 1].
	Utilization float64
	// MeanQueueLen is the time-averaged number of tasks waiting for a
	// core (not including running tasks), summed over nodes.
	MeanQueueLen float64
	// MeanInFlight is the time-averaged number of queries in the system.
	MeanInFlight float64
	// Latencies holds every windowed response time when
	// Config.CollectLatencies is set; nil otherwise.
	Latencies []time.Duration
	// ArrivalTimes holds the corresponding arrival times (simulated
	// seconds) when Config.CollectLatencies is set, for time-bucketed
	// analyses like the diurnal QoS study.
	ArrivalTimes []float64
	// Hedged counts duplicate shard dispatches issued by hedging.
	Hedged int64
}

// event kinds.
const (
	evArrival = iota
	evTaskDone
	evHedge     // q, shard: re-dispatch the shard if still unanswered
	evQueryDone // q: the front-end answers after network and merge
)

type query struct {
	arrive float64
	shards []shard
	left   int // shards not yet answered
}

// shard is one node's part of a query.
type shard struct {
	demand  float64 // sampled work, reused by a hedged re-dispatch
	replica int     // replica of the latest dispatch
	done    bool
}

// attempt is one dispatch of a shard's work to one replica: P partition
// subtasks followed by a merge task.
type attempt struct {
	q         *query
	shard     int
	remaining int // subtasks outstanding
}

type task struct {
	at      *attempt
	node    int
	demand  float64 // reference-core seconds
	isMerge bool
}

type event struct {
	kind  int
	task  *task
	q     *query
	shard int
}

// minHeap is a binary min-heap ordered by (key, seq). Every seq is
// unique, so the order is total and a run is deterministic. It holds the
// event queue (key: time) and each node's SJF run queue (key: demand,
// ties served in queue-arrival order).
type minHeap[T any] []heapItem[T]

type heapItem[T any] struct {
	key float64
	seq int64
	v   T
}

func (h minHeap[T]) less(i, j int) bool {
	return h[i].key < h[j].key || h[i].key == h[j].key && h[i].seq < h[j].seq
}

func (h *minHeap[T]) push(key float64, seq int64, v T) {
	*h = append(*h, heapItem[T]{key, seq, v})
	e := *h
	for i := len(e) - 1; i > 0; {
		p := (i - 1) / 2
		if !e.less(i, p) {
			break
		}
		e[i], e[p] = e[p], e[i]
		i = p
	}
}

func (h *minHeap[T]) pop() (float64, T) {
	e := *h
	top, n := e[0], len(e)-1
	e[0] = e[n]
	e = e[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && e.less(c+1, c) {
			c++
		}
		if !e.less(c, i) {
			break
		}
		e[i], e[c] = e[c], e[i]
		i = c
	}
	*h = e
	return top.key, top.v
}

// node is one server: cores and a run queue, which is fifo under FCFS
// and sjf under SJF.
type node struct {
	fifo      []*task
	sjf       minHeap[*task]
	freeCores int
	busy      float64 // window-clamped busy core-time
}

// sim is the simulation state.
type sim struct {
	cfg Config
	rng *rand.Rand

	events minHeap[event]
	seq    int64
	now    float64

	nodes    []node // replica r of shard n is nodes[n*Replicas+r]
	queued   int    // tasks waiting across all nodes
	inFlight int    // queries in system
	weights  []float64

	// accumulators (measurement window only)
	winStart, winEnd float64
	queueArea        float64
	inFlightArea     float64
	lastT            float64
	hist, nodeHist   metrics.Histogram
	completed        int64
	hedged           int64
	latencies        []time.Duration
	arrivals         []float64
}

// Run executes one simulation and returns window statistics.
func Run(cfg Config) (Stats, error) {
	if err := cfg.validate(); err != nil {
		return Stats{}, err
	}
	cfg.Nodes, cfg.Replicas = max(cfg.Nodes, 1), max(cfg.Replicas, 1)
	s := &sim{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		nodes:    make([]node, cfg.Nodes*cfg.Replicas),
		weights:  make([]float64, cfg.Partitions),
		winStart: cfg.Warmup,
		winEnd:   cfg.Warmup + cfg.Duration,
		lastT:    cfg.Warmup,
	}
	for i := range s.nodes {
		s.nodes[i] = node{freeCores: cfg.Server.Cores}
	}
	s.seed()
	s.loop()
	return s.stats(), nil
}

// seed schedules the initial arrivals.
func (s *sim) seed() {
	if s.cfg.Open != nil {
		s.schedule(s.nextGap(), event{kind: evArrival})
		return
	}
	for i := 0; i < s.cfg.Closed.Clients; i++ {
		// Stagger initial arrivals over one mean think time to avoid a
		// synchronized burst at t=0.
		t := 0.0
		if s.cfg.Closed.MeanThink > 0 {
			t = s.rng.Float64() * s.cfg.Closed.MeanThink
		}
		s.schedule(t, event{kind: evArrival})
	}
}

// nextGap samples the next inter-arrival gap from s.now. The diurnal
// rate, a sinusoid from the trough at t=0 to the peak at half period, is
// sampled by Lewis-Shedler thinning against the peak rate.
func (s *sim) nextGap() float64 {
	o := s.cfg.Open
	if o.Diurnal == nil {
		return s.rng.ExpFloat64() / o.RateQPS
	}
	peak := o.Diurnal.PeakQPS
	t := s.now
	for {
		t += s.rng.ExpFloat64() / peak
		frac := 0.5 - 0.5*math.Cos(2*math.Pi*t/o.Diurnal.Period)
		if s.rng.Float64() <= (o.RateQPS+(peak-o.RateQPS)*frac)/peak {
			return t - s.now
		}
	}
}

func (s *sim) schedule(t float64, ev event) {
	s.seq++
	s.events.push(t, s.seq, ev)
}

// integrate advances the time-weighted accumulators to time t.
func (s *sim) integrate(t float64) {
	lo := max(s.lastT, s.winStart)
	hi := min(t, s.winEnd)
	if hi > lo {
		s.queueArea += float64(s.queued) * (hi - lo)
		s.inFlightArea += float64(s.inFlight) * (hi - lo)
	}
	s.lastT = t
}

func (s *sim) loop() {
	for len(s.events) > 0 {
		t, ev := s.events.pop()
		if t > s.winEnd {
			break
		}
		s.integrate(t)
		s.now = t
		// Between events no node has both a free core and a waiting task,
		// so only the nodes an event touched need dispatching.
		switch ev.kind {
		case evArrival:
			s.arrive()
			for i := range s.nodes {
				s.dispatch(&s.nodes[i])
			}
		case evTaskDone:
			s.taskDone(ev.task)
			s.dispatch(&s.nodes[ev.task.node])
		case evHedge:
			s.hedge(ev.q, ev.shard)
		case evQueryDone:
			s.complete(ev.q)
		}
	}
	s.integrate(s.winEnd)
}

// arrive scatters a query to one replica of every shard and, for open
// loops, schedules the next arrival.
func (s *sim) arrive() {
	if s.cfg.Open != nil {
		s.schedule(s.now+s.nextGap(), event{kind: evArrival})
	}
	w := s.cfg.Demands[s.rng.Intn(len(s.cfg.Demands))]
	q := &query{arrive: s.now, shards: make([]shard, s.cfg.Nodes), left: s.cfg.Nodes}
	s.inFlight++
	for n := range q.shards {
		sh := &q.shards[n]
		sh.demand = w
		if s.cfg.NodeImbalanceCV > 0 {
			sh.demand *= max(0.05, 1+s.cfg.NodeImbalanceCV*s.rng.NormFloat64())
		}
		if s.cfg.Replicas > 1 {
			sh.replica = s.rng.Intn(s.cfg.Replicas)
		}
		s.dispatchShard(q, n)
		if s.cfg.HedgeAfter > 0 {
			s.schedule(s.now+s.cfg.HedgeAfter, event{kind: evHedge, q: q, shard: n})
		}
	}
}

// dispatchShard forks shard n's work into P subtasks queued on its
// current replica, and returns that node.
func (s *sim) dispatchShard(q *query, n int) *node {
	sh := &q.shards[n]
	p := s.cfg.Partitions
	at := &attempt{q: q, shard: n, remaining: p}
	// Split the work across partitions with configurable imbalance.
	// Noisy weights are normalized so the shares always sum to one: the
	// imbalance redistributes work between partitions without changing
	// the shard's total demand.
	sum := 0.0
	for i := range s.weights {
		wt := 1.0
		if s.cfg.ImbalanceCV > 0 && p > 1 {
			wt = max(0.05, 1+s.cfg.ImbalanceCV*s.rng.NormFloat64())
		}
		s.weights[i] = wt
		sum += wt
	}
	// Transient server-side slowdown, independent per dispatch.
	jitter := 1.0
	if s.cfg.ServerJitterProb > 0 && s.rng.Float64() < s.cfg.ServerJitterProb {
		jitter = s.cfg.ServerJitterFactor
	}
	node := n*s.cfg.Replicas + sh.replica
	tasks := make([]task, p)
	for i, wt := range s.weights {
		share := wt / sum
		tasks[i] = task{at: at, demand: (sh.demand*share + s.cfg.PartitionOverhead) * jitter}
		s.push(node, &tasks[i])
	}
	return &s.nodes[node]
}

// push queues a task on a node.
func (s *sim) push(node int, t *task) {
	s.seq++
	t.node = node
	if n := &s.nodes[node]; s.cfg.Discipline == SJF {
		n.sjf.push(t.demand, s.seq, t)
	} else {
		n.fifo = append(n.fifo, t)
	}
	s.queued++
}

// hedge re-dispatches a still-unanswered shard to its next replica.
func (s *sim) hedge(q *query, n int) {
	sh := &q.shards[n]
	if sh.done {
		return
	}
	s.hedged++
	sh.replica = (sh.replica + 1) % s.cfg.Replicas
	s.dispatch(s.dispatchShard(q, n))
}

// taskDone handles a subtask or merge completion.
func (s *sim) taskDone(t *task) {
	s.nodes[t.node].freeCores++
	at := t.at
	if at.q.shards[at.shard].done {
		return // another replica already answered; this work is wasted
	}
	if !t.isMerge {
		at.remaining--
		if at.remaining > 0 {
			return
		}
		// All partition subtasks done: issue the merge task (even for P=1
		// the engine assembles results, but its cost is folded into the
		// demand measurement, so skip the merge at P=1).
		p := s.cfg.Partitions
		if demand := s.cfg.MergeBase + s.cfg.MergePerPartition*float64(p); p > 1 && demand > 0 {
			s.push(t.node, &task{at: at, demand: demand, isMerge: true})
			return
		}
	}
	s.shardDone(at.q, at.shard)
}

// shardDone records a shard's first response; the last shard completes
// the query, after the front-end's network and merge delays if any.
func (s *sim) shardDone(q *query, n int) {
	q.shards[n].done = true
	if s.inWindow(q) {
		s.nodeHist.Record(s.since(q))
	}
	q.left--
	if q.left > 0 {
		return
	}
	if s.cfg.NetworkDelay > 0 || s.cfg.FrontendMerge > 0 {
		s.schedule(s.now+2*s.cfg.NetworkDelay+s.cfg.FrontendMerge, event{kind: evQueryDone, q: q})
		return
	}
	s.complete(q)
}

func (s *sim) inWindow(q *query) bool { return q.arrive >= s.winStart && s.now <= s.winEnd }

func (s *sim) since(q *query) time.Duration {
	return time.Duration((s.now - q.arrive) * float64(time.Second))
}

// complete finishes a query: record latency, count it, and for closed
// loops schedule the client's next arrival after a think time.
func (s *sim) complete(q *query) {
	s.inFlight--
	if s.inWindow(q) {
		lat := s.since(q)
		s.hist.Record(lat)
		s.completed++
		if s.cfg.CollectLatencies {
			s.latencies = append(s.latencies, lat)
			s.arrivals = append(s.arrivals, q.arrive)
		}
	}
	if s.cfg.Closed != nil {
		think := 0.0
		if s.cfg.Closed.MeanThink > 0 {
			think = s.rng.ExpFloat64() * s.cfg.Closed.MeanThink
		}
		s.schedule(s.now+think, event{kind: evArrival})
	}
}

// dispatch assigns a node's queued tasks to its free cores.
func (s *sim) dispatch(n *node) {
	for n.freeCores > 0 && len(n.fifo)+len(n.sjf) > 0 {
		var t *task
		if len(n.fifo) > 0 {
			t, n.fifo = n.fifo[0], n.fifo[1:]
		} else {
			_, t = n.sjf.pop()
		}
		s.queued--
		n.freeCores--
		end := s.now + t.demand/s.cfg.Server.SpeedFactor
		// Busy-time contribution clamped to the measurement window.
		lo := max(s.now, s.winStart)
		hi := min(end, s.winEnd)
		if hi > lo {
			n.busy += hi - lo
		}
		s.schedule(end, event{kind: evTaskDone, task: t})
	}
}

func (s *sim) stats() Stats {
	var busy float64
	for i := range s.nodes {
		busy += s.nodes[i].busy
	}
	d := s.cfg.Duration
	return Stats{
		Latency:      s.hist.Snapshot(),
		NodeLatency:  s.nodeHist.Snapshot(),
		Completed:    s.completed,
		Throughput:   float64(s.completed) / d,
		Utilization:  busy / (d * float64(s.cfg.Server.Cores) * float64(len(s.nodes))),
		MeanQueueLen: s.queueArea / d,
		MeanInFlight: s.inFlightArea / d,
		Latencies:    s.latencies,
		ArrivalTimes: s.arrivals,
		Hedged:       s.hedged,
	}
}
