package simsrv

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func openCfg(cores int, speed float64, parts int, demand float64, qps float64) Config {
	return Config{
		Server:     ServerModel{Name: "t", Cores: cores, SpeedFactor: speed},
		Partitions: parts,
		Demands:    []float64{demand},
		Open:       &OpenLoop{RateQPS: qps},
		Warmup:     5,
		Duration:   60,
		Seed:       1,
	}
}

// fanoutCfg is a front-end over nodes 4-core servers with a fixed 10ms
// per-node demand.
func fanoutCfg(nodes int, qps float64) Config {
	return Config{
		Nodes:           nodes,
		Server:          ServerModel{Name: "n", Cores: 4, SpeedFactor: 1},
		Partitions:      1,
		Demands:         []float64{0.010},
		NodeImbalanceCV: 0.1,
		NetworkDelay:    0.0005,
		FrontendMerge:   0.0002,
		Open:            &OpenLoop{RateQPS: qps},
		Warmup:          5,
		Duration:        120,
		Seed:            1,
	}
}

// invalid is one config mutation that Run must reject.
type invalid struct {
	name string
	mut  func(*Config)
}

// checkValidation runs every mutation of base and expects a validation
// error, then expects base itself to be accepted.
func checkValidation(t *testing.T, base Config, cases []invalid) {
	t.Helper()
	for _, tc := range cases {
		c := base
		o := *base.Open
		c.Open = &o // deep-copy the pointer field before mutating
		tc.mut(&c)
		if _, err := Run(c); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
	if _, err := Run(base); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	checkValidation(t, openCfg(1, 1, 1, 0.01, 10), []invalid{
		{"zero cores", func(c *Config) { c.Server.Cores = 0 }},
		{"zero speed", func(c *Config) { c.Server.SpeedFactor = 0 }},
		{"zero partitions", func(c *Config) { c.Partitions = 0 }},
		{"no demands", func(c *Config) { c.Demands = nil }},
		{"zero demand", func(c *Config) { c.Demands = []float64{0} }},
		{"negative demand", func(c *Config) { c.Demands = []float64{-1} }},
		{"negative partition overhead", func(c *Config) { c.PartitionOverhead = -1 }},
		{"negative merge base", func(c *Config) { c.MergeBase = -1 }},
		{"negative imbalance", func(c *Config) { c.ImbalanceCV = -0.1 }},
		{"zero duration", func(c *Config) { c.Duration = 0 }},
		{"negative warmup", func(c *Config) { c.Warmup = -1 }},
		{"no arrival process", func(c *Config) { c.Open = nil }},
		{"open and closed", func(c *Config) { c.Closed = &ClosedLoop{Clients: 1} }},
		{"zero rate", func(c *Config) { c.Open.RateQPS = 0 }},
		{"closed loop without clients", func(c *Config) { c.Open, c.Closed = nil, &ClosedLoop{Clients: 0} }},
	})
}

// The fan-out fields are validated by the same Run. Nodes = 0 means one
// server, so the node-count row checks a negative count.
func TestClusterConfigValidation(t *testing.T) {
	checkValidation(t, fanoutCfg(2, 50), []invalid{
		{"negative nodes", func(c *Config) { c.Nodes = -1 }},
		{"zero cores", func(c *Config) { c.Server.Cores = 0 }},
		{"zero partitions", func(c *Config) { c.Partitions = 0 }},
		{"no demands", func(c *Config) { c.Demands = nil }},
		{"negative demand", func(c *Config) { c.Demands = []float64{-1} }},
		{"negative node imbalance", func(c *Config) { c.NodeImbalanceCV = -1 }},
		{"negative partition overhead", func(c *Config) { c.PartitionOverhead = -1 }},
		{"negative network delay", func(c *Config) { c.NetworkDelay = -1 }},
		{"negative front-end merge", func(c *Config) { c.FrontendMerge = -1 }},
		{"zero rate", func(c *Config) { c.Open.RateQPS = 0 }},
		{"zero duration", func(c *Config) { c.Duration = 0 }},
		{"negative warmup", func(c *Config) { c.Warmup = -1 }},
		{"jitter probability above one", func(c *Config) { c.ServerJitterProb, c.ServerJitterFactor = 1.5, 10 }},
		{"jitter speeds servers up", func(c *Config) { c.ServerJitterProb, c.ServerJitterFactor = 0.05, 0.5 }},
	})
}

// An M/D/1 queue has a closed-form mean response time; the simulator must
// match it. R = d + rho*d / (2*(1-rho)).
func TestMD1MeanResponse(t *testing.T) {
	d := 0.010 // 10ms deterministic service
	for _, rho := range []float64{0.3, 0.6, 0.8} {
		cfg := openCfg(1, 1, 1, d, rho/d)
		cfg.Duration = 2000
		cfg.Warmup = 50
		st, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := d + rho*d/(2*(1-rho))
		got := st.Latency.Mean.Seconds()
		if math.Abs(got-want)/want > 0.08 {
			t.Errorf("rho=%v: mean response %v, M/D/1 predicts %v", rho, got, want)
		}
		if math.Abs(st.Utilization-rho) > 0.05 {
			t.Errorf("rho=%v: utilization %v", rho, st.Utilization)
		}
	}
}

// Service time scales inversely with core speed.
func TestSpeedFactorScalesService(t *testing.T) {
	// Light load: response ~= service time.
	fast, err := Run(openCfg(1, 1.0, 1, 0.01, 1))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(openCfg(1, 0.5, 1, 0.01, 1))
	if err != nil {
		t.Fatal(err)
	}
	ratio := slow.Latency.Mean.Seconds() / fast.Latency.Mean.Seconds()
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("half-speed core response ratio = %v, want ~2", ratio)
	}
}

// A lone query on an idle P-core server with P partitions completes in
// roughly W/P plus merge, the fork-join span.
func TestForkJoinSpan(t *testing.T) {
	w := 0.080
	cfg := Config{
		Server:     ServerModel{Name: "t", Cores: 8, SpeedFactor: 1},
		Partitions: 8,
		Demands:    []float64{w},
		MergeBase:  0.001,
		Closed:     &ClosedLoop{Clients: 1, MeanThink: 0.1},
		Warmup:     1,
		Duration:   50,
		Seed:       2,
	}
	st, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := w/8 + 0.001
	got := st.Latency.Mean.Seconds()
	if math.Abs(got-want)/want > 0.06 {
		t.Errorf("fork-join span = %v, want %v", got, want)
	}
	// P99 equals the mean for a deterministic lone query.
	if p99 := st.Latency.P99.Seconds(); math.Abs(p99-want)/want > 0.06 {
		t.Errorf("p99 = %v, want %v", p99, want)
	}
}

// With one partition the merge task must not run.
func TestSinglePartitionNoMerge(t *testing.T) {
	w := 0.020
	cfg := Config{
		Server:     ServerModel{Name: "t", Cores: 4, SpeedFactor: 1},
		Partitions: 1,
		Demands:    []float64{w},
		MergeBase:  10, // would be catastrophic if charged
		Closed:     &ClosedLoop{Clients: 1, MeanThink: 0.05},
		Warmup:     1,
		Duration:   30,
		Seed:       3,
	}
	st, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Latency.Mean.Seconds(); math.Abs(got-w)/w > 0.06 {
		t.Errorf("P=1 latency = %v, want %v (merge should be skipped)", got, w)
	}
}

// The interactive response-time law X = N/(R+Z) must hold for closed
// loops, on one server and behind a fan-out front-end.
func TestClosedLoopResponseTimeLaw(t *testing.T) {
	single := Config{
		Server:     ServerModel{Name: "t", Cores: 2, SpeedFactor: 1},
		Partitions: 1,
		Demands:    []float64{0.01},
		Closed:     &ClosedLoop{Clients: 8, MeanThink: 0.05},
		Warmup:     20,
		Duration:   500,
		Seed:       4,
	}
	fanout := single
	fanout.Nodes, fanout.NodeImbalanceCV, fanout.NetworkDelay = 4, 0.1, 0.0005
	fanout.Duration = 150
	for _, cfg := range []Config{single, fanout} {
		st, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := 8.0
		x := st.Throughput
		r := st.Latency.Mean.Seconds()
		z := 0.05
		predicted := n / (r + z)
		if math.Abs(x-predicted)/predicted > 0.08 {
			t.Errorf("nodes=%d: response-time law: X=%v, N/(R+Z)=%v", cfg.Nodes, x, predicted)
		}
	}
}

// Open-loop saturation: offered load above capacity caps throughput at
// roughly capacity and utilization near 1.
func TestOpenLoopSaturation(t *testing.T) {
	d := 0.01
	cfg := openCfg(2, 1, 1, d, 2/d*1.5) // 150% of 2-core capacity
	st, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	capacity := 2 / d
	if st.Throughput > capacity*1.05 {
		t.Errorf("throughput %v exceeds capacity %v", st.Throughput, capacity)
	}
	if st.Utilization < 0.95 || st.Utilization > 1.0001 {
		t.Errorf("utilization = %v, want ~1", st.Utilization)
	}
	if st.MeanQueueLen <= 1 {
		t.Errorf("overloaded queue length = %v, want large", st.MeanQueueLen)
	}
}

// Partitioning must cut tail latency at moderate load: the paper's
// headline mechanism.
func TestPartitioningReducesTail(t *testing.T) {
	// Highly variable demand: mostly cheap queries, a heavy tail.
	demands := make([]float64, 100)
	for i := range demands {
		demands[i] = 0.002
	}
	for i := 90; i < 100; i++ {
		demands[i] = 0.080 // 10% slow queries dominate the tail
	}
	run := func(parts int) Stats {
		cfg := Config{
			Server:            ServerModel{Name: "t", Cores: 8, SpeedFactor: 1},
			Partitions:        parts,
			Demands:           demands,
			PartitionOverhead: 0.0002,
			MergeBase:         0.0002,
			MergePerPartition: 0.00005,
			ImbalanceCV:       0.1,
			Open:              &OpenLoop{RateQPS: 300},
			Warmup:            10,
			Duration:          300,
			Seed:              5,
		}
		st, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	p1, p8 := run(1), run(8)
	if p8.Latency.P99 >= p1.Latency.P99 {
		t.Errorf("8 partitions p99 %v not below 1 partition p99 %v",
			p8.Latency.P99, p1.Latency.P99)
	}
	if p8.Latency.Mean >= p1.Latency.Mean {
		t.Errorf("8 partitions mean %v not below 1 partition mean %v",
			p8.Latency.Mean, p1.Latency.Mean)
	}
}

// The low-power crossover: an Atom-like server is far slower at P=1 but
// approaches the Xeon-like server with enough partitions.
func TestLowPowerConvergesWithPartitioning(t *testing.T) {
	demands := []float64{0.020}
	run := func(m ServerModel, parts int) Stats {
		cfg := Config{
			Server:            m,
			Partitions:        parts,
			Demands:           demands,
			PartitionOverhead: 0.0002,
			MergeBase:         0.0002,
			Open:              &OpenLoop{RateQPS: 50},
			Warmup:            10,
			Duration:          200,
			Seed:              6,
		}
		st, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	xeon1 := run(XeonLike(), 1)
	atom1 := run(AtomLike(), 1)
	atom8 := run(AtomLike(), 8)
	gap1 := atom1.Latency.Mean.Seconds() / xeon1.Latency.Mean.Seconds()
	gap8 := atom8.Latency.Mean.Seconds() / xeon1.Latency.Mean.Seconds()
	if gap1 < 2 {
		t.Errorf("P=1 atom/xeon gap = %v, want > 2x", gap1)
	}
	if gap8 > gap1/2 {
		t.Errorf("partitioning did not close the gap: %v -> %v", gap1, gap8)
	}
}

// checkDeterminism runs cfg twice with its seed and once with another:
// the first two must agree exactly, the third must differ.
func checkDeterminism(t *testing.T, cfg Config) {
	t.Helper()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Run(cfg)
	if a.Latency != b.Latency || a.NodeLatency != b.NodeLatency || a.Completed != b.Completed ||
		a.Throughput != b.Throughput || a.Utilization != b.Utilization {
		t.Error("same seed gave different results")
	}
	cfg.Seed = 99
	c, _ := Run(cfg)
	if a.Latency == c.Latency && a.Completed == c.Completed {
		t.Error("different seed gave identical results")
	}
}

// Deterministic for a fixed seed, different across seeds.
func TestDeterminism(t *testing.T) {
	cfg := openCfg(4, 1, 4, 0.01, 100)
	cfg.ImbalanceCV = 0.1
	checkDeterminism(t, cfg)
}

func TestClusterDeterminism(t *testing.T) {
	checkDeterminism(t, fanoutCfg(3, 80))
}

// Property: conservation laws hold for arbitrary configurations.
func TestPropertyConservation(t *testing.T) {
	f := func(seed int64, coresRaw, partsRaw, loadRaw uint8) bool {
		cores := int(coresRaw%8) + 1
		parts := int(partsRaw%8) + 1
		d := 0.005
		capacity := float64(cores) / d
		qps := capacity * (0.1 + float64(loadRaw%20)/10) // 0.1x..2x capacity
		cfg := Config{
			Server:            ServerModel{Name: "t", Cores: cores, SpeedFactor: 1},
			Partitions:        parts,
			Demands:           []float64{d},
			PartitionOverhead: 0.0001,
			MergeBase:         0.0001,
			ImbalanceCV:       0.05,
			Open:              &OpenLoop{RateQPS: qps},
			Warmup:            2,
			Duration:          20,
			Seed:              seed,
		}
		st, err := Run(cfg)
		if err != nil {
			return false
		}
		if st.Utilization < 0 || st.Utilization > 1.0001 {
			return false
		}
		if st.MeanQueueLen < 0 || st.MeanInFlight < 0 {
			return false
		}
		// Response time can never beat the critical path of an idle run.
		minSpan := d/float64(parts) + 0.0001
		if st.Completed > 0 && st.Latency.Min.Seconds() < minSpan*0.99 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCalibrate(t *testing.T) {
	in := []time.Duration{time.Millisecond, 0, -time.Second, 2 * time.Millisecond}
	got := Calibrate(in)
	if len(got) != 2 || got[0] != 0.001 || got[1] != 0.002 {
		t.Errorf("Calibrate = %v", got)
	}
}

func TestServerModels(t *testing.T) {
	x, a := XeonLike(), AtomLike()
	if x.SpeedFactor <= a.SpeedFactor {
		t.Error("Xeon-like should be faster than Atom-like")
	}
	if x.Cores <= 0 || a.Cores <= 0 {
		t.Error("models must have cores")
	}
}

func BenchmarkSimRun(b *testing.B) {
	cfg := openCfg(8, 1, 8, 0.01, 400)
	cfg.Duration = 50
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Diurnal arrivals: the measured rate must track the sinusoid, and the
// config must validate its parameters, for one server and for fan-out.
func TestDiurnalArrivals(t *testing.T) {
	for _, nodes := range []int{0, 4} {
		cfg := openCfg(8, 1, 1, 0.001, 50) // trough 50 qps
		cfg.Nodes = nodes
		cfg.Open.Diurnal = &DiurnalLoad{PeakQPS: 500, Period: 50}
		cfg.Warmup = 0
		cfg.Duration = 500 // 10 full cycles
		st, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Mean of the sinusoid between 50 and 500 is 275 qps.
		if st.Throughput < 230 || st.Throughput > 320 {
			t.Errorf("nodes=%d: diurnal throughput = %v, want ~275", nodes, st.Throughput)
		}
		// Validation.
		bad := cfg
		bad.Open = &OpenLoop{RateQPS: 100, Diurnal: &DiurnalLoad{PeakQPS: 50, Period: 10}}
		if _, err := Run(bad); err == nil {
			t.Errorf("nodes=%d: peak below trough accepted", nodes)
		}
		bad.Open = &OpenLoop{RateQPS: 100, Diurnal: &DiurnalLoad{PeakQPS: 200, Period: 0}}
		if _, err := Run(bad); err == nil {
			t.Errorf("nodes=%d: zero period accepted", nodes)
		}
	}
}

// Collected latencies must come with matching arrival timestamps.
func TestCollectLatenciesWithArrivals(t *testing.T) {
	for _, nodes := range []int{0, 4} {
		cfg := openCfg(2, 1, 2, 0.005, 100)
		cfg.Nodes = nodes
		cfg.CollectLatencies = true
		cfg.Duration = 30
		st, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Latencies) == 0 || len(st.Latencies) != len(st.ArrivalTimes) {
			t.Fatalf("nodes=%d: latencies %d, arrivals %d", nodes, len(st.Latencies), len(st.ArrivalTimes))
		}
		for i, at := range st.ArrivalTimes {
			if at < cfg.Warmup || at > cfg.Warmup+cfg.Duration {
				t.Fatalf("nodes=%d: arrival %d = %v outside window", nodes, i, at)
			}
		}
	}
}

// SJF vs FCFS on a bimodal workload: SJF must cut the mean at high load.
func TestSJFReducesMean(t *testing.T) {
	demands := []float64{0.001, 0.001, 0.001, 0.001, 0.050}
	run := func(d Discipline) Stats {
		cfg := Config{
			Server:     ServerModel{Name: "t", Cores: 2, SpeedFactor: 1},
			Partitions: 1,
			Demands:    demands,
			Discipline: d,
			Open:       &OpenLoop{RateQPS: 150}, // ~80% load
			Warmup:     10,
			Duration:   300,
			Seed:       11,
		}
		st, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	fcfs, sjf := run(FCFS), run(SJF)
	if sjf.Latency.Mean >= fcfs.Latency.Mean {
		t.Errorf("SJF mean %v not below FCFS %v", sjf.Latency.Mean, fcfs.Latency.Mean)
	}
	if FCFS.String() != "FCFS" || SJF.String() != "SJF" || Discipline(9).String() == "" {
		t.Error("Discipline.String broken")
	}
}

// One node at light load behaves like the single-server simulator plus
// the fixed network and merge delays.
func TestClusterSingleNodeBaseline(t *testing.T) {
	cfg := fanoutCfg(1, 5)
	cfg.NodeImbalanceCV = 0
	st, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.010 + 2*0.0005 + 0.0002
	got := st.Latency.Mean.Seconds()
	if math.Abs(got-want)/want > 0.10 {
		t.Errorf("mean = %v, want ~%v", got, want)
	}
	if st.Completed == 0 {
		t.Fatal("no completions")
	}
	// Node latency excludes network and frontend merge.
	nodeWant := 0.010
	if nodeGot := st.NodeLatency.Mean.Seconds(); math.Abs(nodeGot-nodeWant)/nodeWant > 0.10 {
		t.Errorf("node mean = %v, want ~%v", nodeGot, nodeWant)
	}
}

// The tail-at-scale effect: with per-node load held constant, fan-out
// latency grows with the node count because every query waits for the
// slowest node.
func TestClusterTailAmplification(t *testing.T) {
	run := func(nodes int) Stats {
		cfg := fanoutCfg(nodes, 100) // same arrival rate: per-node load constant
		st, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	n1, n16 := run(1), run(16)
	if n16.Latency.Mean <= n1.Latency.Mean {
		t.Errorf("fan-out mean %v not above single-node %v",
			n16.Latency.Mean, n1.Latency.Mean)
	}
	// The per-node latency distribution is load-dependent, not fan-out-
	// dependent: it must stay roughly unchanged.
	r := n16.NodeLatency.Mean.Seconds() / n1.NodeLatency.Mean.Seconds()
	if r < 0.8 || r > 1.2 {
		t.Errorf("per-node latency changed with fan-out: ratio %v", r)
	}
	// The amplified mean approaches the single-node tail.
	if n16.Latency.Mean < n1.Latency.P50 {
		t.Errorf("fan-out mean %v below single-node median %v",
			n16.Latency.Mean, n1.Latency.P50)
	}
}

// Intra-node partitioning still cuts latency inside a cluster.
func TestClusterIntraNodePartitioning(t *testing.T) {
	base := fanoutCfg(4, 50) // rho = 50 * 0.040 / 4 cores = 0.5
	base.Demands = []float64{0.040}
	base.PartitionOverhead = 0.0002
	base.MergeBase = 0.0002
	p1, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	part := base
	part.Partitions = 4
	p4, err := Run(part)
	if err != nil {
		t.Fatal(err)
	}
	if p4.Latency.Mean >= p1.Latency.Mean {
		t.Errorf("intra-node partitioning did not help: %v vs %v",
			p4.Latency.Mean, p1.Latency.Mean)
	}
}

func TestClusterUtilizationBounded(t *testing.T) {
	st, err := Run(fanoutCfg(4, 300))
	if err != nil {
		t.Fatal(err)
	}
	if st.Utilization < 0 || st.Utilization > 1.0001 {
		t.Errorf("utilization = %v", st.Utilization)
	}
	// rho = 100*0.01/4 cores... offered 300 qps * 10ms / 4 cores = 0.75.
	if st.Utilization < 0.6 || st.Utilization > 0.9 {
		t.Errorf("utilization = %v, want ~0.75", st.Utilization)
	}
}

// Hedged requests: with replicas, a duplicate dispatch after a deadline
// must cut the fan-out tail, at a bounded extra-work cost.
func TestHedgingCutsTail(t *testing.T) {
	base := Config{
		Nodes:           8,
		Replicas:        2,
		Server:          ServerModel{Name: "n", Cores: 4, SpeedFactor: 1},
		Partitions:      1,
		Demands:         []float64{0.004},
		NodeImbalanceCV: 0.1,
		// 5% of shard dispatches land on a transiently slow server
		// (10x): the server-side failure mode hedging masks.
		ServerJitterProb:   0.05,
		ServerJitterFactor: 10,
		NetworkDelay:       0.0002,
		FrontendMerge:      0.0001,
		Open:               &OpenLoop{RateQPS: 150},
		Warmup:             5,
		Duration:           200,
		Seed:               4,
	}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	hedged := base
	hedged.HedgeAfter = 0.010 // ~p95 of a healthy response
	hd, err := Run(hedged)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Hedged != 0 {
		t.Errorf("plain run hedged %d times", plain.Hedged)
	}
	if hd.Hedged == 0 {
		t.Fatal("hedging never fired")
	}
	if hd.Latency.P99 >= plain.Latency.P99 {
		t.Errorf("hedged p99 %v not below plain %v", hd.Latency.P99, plain.Latency.P99)
	}
	// Hedging duplicates only the slow minority: bounded extra dispatches.
	perQuery := float64(hd.Hedged) / float64(hd.Completed) / float64(base.Nodes)
	if perQuery > 0.5 {
		t.Errorf("hedge rate %.2f per shard-dispatch too high", perQuery)
	}
}

func TestHedgingValidation(t *testing.T) {
	checkValidation(t, fanoutCfg(2, 20), []invalid{
		{"hedging without replicas", func(c *Config) { c.HedgeAfter = 0.01 }},
		{"negative replicas", func(c *Config) { c.HedgeAfter, c.Replicas = 0.01, -1 }},
		{"negative hedge delay", func(c *Config) { c.HedgeAfter, c.Replicas = -0.01, 2 }},
	})
}

// Replicas without hedging spread load: utilization halves.
func TestReplicasSpreadLoad(t *testing.T) {
	single := fanoutCfg(4, 100)
	one, err := Run(single)
	if err != nil {
		t.Fatal(err)
	}
	dup := single
	dup.Replicas = 2
	two, err := Run(dup)
	if err != nil {
		t.Fatal(err)
	}
	ratio := two.Utilization / one.Utilization
	if ratio < 0.4 || ratio > 0.6 {
		t.Errorf("2-replica utilization ratio = %v, want ~0.5", ratio)
	}
	if two.Completed == 0 || two.Latency.Mean <= 0 {
		t.Fatal("replicated run broken")
	}
}
