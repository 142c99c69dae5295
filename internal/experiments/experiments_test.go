package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"websearchbench/internal/profilephase"
	"websearchbench/internal/search"
	"websearchbench/internal/stats"
)

// smokeContext is a heavily scaled-down context shared by the tests; the
// experiments are deterministic, so building it once is safe.
func smokeContext(t testing.TB) *Context {
	t.Helper()
	c := NewContext(&bytes.Buffer{}, 0.05)
	return c
}

func TestE1Characterization(t *testing.T) {
	var buf bytes.Buffer
	c := NewContext(&buf, 0.05)
	res := c.E1Characterization()
	st := res.Stats
	if st.NumDocs != c.CorpusCfg.NumDocs {
		t.Errorf("NumDocs = %d, want %d", st.NumDocs, c.CorpusCfg.NumDocs)
	}
	if st.NumTerms == 0 || st.TotalPostings == 0 {
		t.Error("empty index stats")
	}
	if st.CompressionRatio <= 1 {
		t.Errorf("compression ratio = %v, want > 1", st.CompressionRatio)
	}
	if len(st.TopTerms) == 0 {
		t.Error("no top terms")
	}
	if !strings.Contains(buf.String(), "E1") {
		t.Error("output missing header")
	}
}

func TestE2Workload(t *testing.T) {
	c := smokeContext(t)
	res := c.E2Workload()
	if res.Char.Queries != c.MeasureQueries {
		t.Errorf("Queries = %d, want %d", res.Char.Queries, c.MeasureQueries)
	}
	if res.Char.MeanLen < 1 || res.Char.MeanLen > 4 {
		t.Errorf("MeanLen = %v", res.Char.MeanLen)
	}
	// The synthetic workload must actually hit the index.
	if res.MatchRate < 0.5 {
		t.Errorf("MatchRate = %v, workload misses the corpus", res.MatchRate)
	}
	if res.Char.TopShare <= 0 {
		t.Error("no popularity skew measured")
	}
}

func TestE3PhaseBreakdown(t *testing.T) {
	c := smokeContext(t)
	res := c.E3PhaseBreakdown()
	if res.Breakdown.Queries != c.MeasureQueries {
		t.Errorf("Queries = %d", res.Breakdown.Queries)
	}
	if res.Breakdown.Total() <= 0 {
		t.Fatal("no time recorded")
	}
	// Postings traversal+scoring must dominate, as in the real stack.
	if res.Shares[0].Phase != "score" {
		t.Errorf("dominant phase = %s, want score (shares %v)", res.Shares[0].Phase, res.Shares)
	}
}

func TestE4ServiceTimeAnatomy(t *testing.T) {
	c := smokeContext(t)
	res := c.E4ServiceTimeAnatomy()
	qs := c.Analyzed()
	if len(res.samples) != len(qs) {
		t.Fatalf("%d samples for %d queries", len(res.samples), len(qs))
	}
	// Exhaustive OR (E4 runs without MaxScore) scans every posting of
	// every query term, once per occurrence: the anatomy's postings axis
	// is exact counted work, whatever the host's timer says.
	or := 0
	for i, q := range qs {
		if q.Mode != search.ModeOr {
			continue
		}
		or++
		var want int64
		for _, term := range q.Terms {
			if ti, ok := c.Segment().Term(term); ok {
				want += int64(ti.DocFreq)
			}
		}
		if got := res.samples[i].Postings; got != want {
			t.Errorf("query %q: %d postings scanned, want %d", q.Raw, got, want)
		}
	}
	if or == 0 {
		t.Fatal("no OR queries in the stream")
	}
	for name, buckets := range map[string][]profilephase.BucketStat{"ByTerms": res.ByTerms, "ByPostings": res.ByPostings} {
		n := 0
		for _, b := range buckets {
			n += b.Count
		}
		if n != len(qs) {
			t.Errorf("%s buckets hold %d samples, want %d", name, n, len(qs))
		}
	}
}

func TestE5AndE6LoadCurve(t *testing.T) {
	c := smokeContext(t)
	e5 := c.E5LoadCurve()
	if len(e5.Points) == 0 {
		t.Fatal("no load points")
	}
	// Latency grows with clients; throughput at 256 clients beats 1.
	first, last := e5.Points[0], e5.Points[len(e5.Points)-1]
	if last.Mean <= first.Mean {
		t.Errorf("latency did not grow with load: %v .. %v", first.Mean, last.Mean)
	}
	if last.Throughput <= first.Throughput {
		t.Errorf("throughput did not grow with clients: %v .. %v",
			first.Throughput, last.Throughput)
	}
	e6 := c.E6Throughput()
	if e6.MaxQoSThroughput <= 0 {
		t.Error("no QoS-meeting throughput found")
	}
}

func TestE7PartitionTailShape(t *testing.T) {
	c := smokeContext(t)
	res := c.E7PartitionTail()
	if len(res.Points) != len(partitionSweepValues) {
		t.Fatal("wrong sweep length")
	}
	// The paper's headline: a few partitions cut the tail.
	p1 := res.Points[0]
	p8 := res.Points[3] // partitions=8
	if p8.P99 >= p1.P99 {
		t.Errorf("P=8 p99 %v not below P=1 p99 %v", p8.P99, p1.P99)
	}
	if p8.Mean >= p1.Mean {
		t.Errorf("P=8 mean %v not below P=1 mean %v", p8.Mean, p1.Mean)
	}
}

func TestE8ThroughputCost(t *testing.T) {
	c := smokeContext(t)
	res := c.E8PartitionThroughput()
	if len(res.MaxQPS) != len(partitionSweepValues) {
		t.Fatal("wrong sweep length")
	}
	for i, q := range res.MaxQPS {
		if q <= 0 {
			t.Errorf("partitions=%d: no QoS-meeting rate", partitionSweepValues[i])
		}
	}
	// Heavy partitioning must cost peak throughput relative to moderate
	// partitioning (duplicated per-query fixed work).
	if res.MaxQPS[len(res.MaxQPS)-1] >= res.MaxQPS[0]*1.3 {
		t.Logf("note: P=32 throughput %v vs P=1 %v", res.MaxQPS[len(res.MaxQPS)-1], res.MaxQPS[0])
	}
}

func TestE9CDFShape(t *testing.T) {
	c := smokeContext(t)
	res := c.E9CDF()
	if len(res.P1CDF) == 0 || len(res.P8CDF) == 0 {
		t.Fatal("empty CDFs")
	}
	// The P=8 distribution's body sits left of P=1's: compare medians
	// (the absolute max is a noisy extreme-order statistic).
	median := func(pts []stats.CDFPoint) float64 {
		for _, p := range pts {
			if p.Fraction >= 0.5 {
				return p.Value
			}
		}
		return pts[len(pts)-1].Value
	}
	if m8, m1 := median(res.P8CDF), median(res.P1CDF); m8 >= m1 {
		t.Errorf("P=8 median %v not below P=1 median %v", m8, m1)
	}
}

func TestE10LowPowerConvergence(t *testing.T) {
	c := smokeContext(t)
	res := c.E10LowPower()
	if len(res.Rows) != 2*len(partitionSweepValues) {
		t.Fatal("wrong row count")
	}
	// Atom-like at P=1 is far slower than Xeon-like at P=1; with enough
	// partitions it comes within 2x (the abstract's claim, shape-wise).
	var atomP1 time.Duration
	for _, r := range res.Rows {
		if r.Server == "atom-like" && r.Partitions == 1 {
			atomP1 = r.Mean
		}
	}
	if atomP1 < 2*res.XeonBaselineMean {
		t.Errorf("atom P=1 mean %v not >> xeon P=1 mean %v", atomP1, res.XeonBaselineMean)
	}
	if res.AtomBestMean > 2*res.XeonBaselineMean {
		t.Errorf("atom best %v did not approach xeon baseline %v",
			res.AtomBestMean, res.XeonBaselineMean)
	}
}

func TestE11Energy(t *testing.T) {
	c := smokeContext(t)
	res := c.E11Energy()
	if len(res.Rows) != 2 {
		t.Fatal("want 2 server classes")
	}
	for _, r := range res.Rows {
		if r.MaxQoSQPS <= 0 {
			t.Errorf("%s: no QoS operating point", r.Server)
		}
		if r.EnergyPerQuery <= 0 {
			t.Errorf("%s: energy = %v", r.Server, r.EnergyPerQuery)
		}
	}
	// The wimpy class must win energy per query at matched QoS.
	if res.Rows[1].EnergyPerQuery >= res.Rows[0].EnergyPerQuery {
		t.Errorf("atom J/q %v not below xeon %v",
			res.Rows[1].EnergyPerQuery, res.Rows[0].EnergyPerQuery)
	}
}

func TestE12RealPartition(t *testing.T) {
	c := smokeContext(t)
	res := c.E12RealPartition()
	if len(res.Rows) != 5 {
		t.Fatal("wrong sweep length")
	}
	if res.Rows[0].Partitions != 1 || res.Rows[0].WorkOverhead != 1 {
		t.Errorf("P=1 row = %+v", res.Rows[0])
	}
	// Total work grows with partitions (duplicated fixed work). At smoke
	// scale the per-partition overhead dominates the tiny index's query
	// work, so the span-speedup claim (verified at full scale and
	// recorded in EXPERIMENTS.md) is not asserted here — only the
	// structural invariants are.
	last := res.Rows[len(res.Rows)-1]
	if last.WorkOverhead < 0.9 {
		t.Errorf("P=16 work overhead = %v, want >= ~1", last.WorkOverhead)
	}
	for _, r := range res.Rows {
		if r.CriticalPath > r.TotalWork {
			t.Errorf("P=%d: critical path %v exceeds total work %v",
				r.Partitions, r.CriticalPath, r.TotalWork)
		}
		if r.Partitions > 1 && r.ImbalanceCV < 0 {
			t.Errorf("P=%d: negative imbalance", r.Partitions)
		}
	}
	if res.Calibration.MeanDemand <= 0 {
		t.Error("calibration missing")
	}
}

func TestE13Cluster(t *testing.T) {
	c := smokeContext(t)
	res := c.E13Cluster()
	if len(res.Rows) != 3 {
		t.Fatal("want 3 cluster sizes")
	}
	for _, r := range res.Rows {
		if r.Mean <= 0 || r.P99 < r.Mean/2 {
			t.Errorf("implausible cluster row %+v", r)
		}
	}
}

func TestAblations(t *testing.T) {
	c := smokeContext(t)
	asg := c.AblationAssignment()
	if asg.RangeImbalance <= asg.RoundRobinImbalance {
		t.Errorf("range imbalance %v not above round-robin %v",
			asg.RangeImbalance, asg.RoundRobinImbalance)
	}
	topk := c.AblationTopK()
	if len(topk.K) != 4 {
		t.Fatal("wrong topk sweep")
	}
}

func TestE15DVFS(t *testing.T) {
	c := smokeContext(t)
	res := c.E15DVFS()
	if len(res.Rows) != 5 {
		t.Fatal("wrong sweep length")
	}
	// Latency falls monotonically with frequency; low frequencies burn
	// less power at the same offered load.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Mean > res.Rows[i-1].Mean {
			t.Errorf("latency not decreasing with frequency: %+v", res.Rows)
			break
		}
	}
	lowest, highest := res.Rows[0], res.Rows[len(res.Rows)-1]
	if lowest.Watts >= highest.Watts {
		t.Errorf("low frequency watts %v not below high %v", lowest.Watts, highest.Watts)
	}
	if lowest.EnergyPerQuery >= highest.EnergyPerQuery {
		t.Errorf("low frequency J/q %v not below high %v",
			lowest.EnergyPerQuery, highest.EnergyPerQuery)
	}
}

func TestAblationScheduling(t *testing.T) {
	c := smokeContext(t)
	res := c.AblationScheduling()
	if len(res.Rows) != 2 {
		t.Fatal("want 2 disciplines")
	}
	fcfs, sjf := res.Rows[0], res.Rows[1]
	// SJF must cut the mean on a heavy-tailed workload at high load...
	if sjf.Mean >= fcfs.Mean {
		t.Errorf("SJF mean %v not below FCFS %v", sjf.Mean, fcfs.Mean)
	}
	// ...at the cost of the very worst queries.
	if sjf.Max <= fcfs.Max {
		t.Logf("note: SJF max %v vs FCFS max %v (starvation not visible at this scale)",
			sjf.Max, fcfs.Max)
	}
}

func TestE16TailAtScale(t *testing.T) {
	c := smokeContext(t)
	res := c.E16TailAtScale()
	if len(res.Rows) != 4 {
		t.Fatal("wrong sweep length")
	}
	// The typical (median) query slows as fan-out widens...
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].P50 < res.Rows[i-1].P50 {
			t.Errorf("p50 not monotone with nodes: %+v", res.Rows)
			break
		}
	}
	// ...while per-node latency stays put (same per-node load).
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	r := float64(last.NodeP99) / float64(first.NodeP99)
	if r < 0.7 || r > 1.4 {
		t.Errorf("per-node p99 drifted with fan-out: ratio %v", r)
	}
	if last.Amplification < 1.1 {
		t.Errorf("64-node p50 amplification = %v, want > 1.1", last.Amplification)
	}
	// The mean moves toward the single-node tail as fan-out widens. The
	// magnitude depends on the measured demand distribution's variance,
	// so the smoke test asserts only a clear direction; EXPERIMENTS.md
	// records the full-scale factor.
	if float64(last.Mean) < 1.1*float64(first.Mean) {
		t.Errorf("64-node mean %v not above single-node mean %v", last.Mean, first.Mean)
	}
}

func TestE17Diurnal(t *testing.T) {
	c := smokeContext(t)
	res := c.E17Diurnal()
	if len(res.Windows) != 8 {
		t.Fatal("wrong window count")
	}
	var total int64
	for _, w := range res.Windows {
		total += w.Count
	}
	if total == 0 {
		t.Fatal("no queries recorded")
	}
	// The peak windows must be visibly worse than the trough windows:
	// QoS headroom is consumed at the daily peak.
	if res.PeakP90 <= res.TroughP90 {
		t.Errorf("peak p90 %v not above trough p90 %v", res.PeakP90, res.TroughP90)
	}
	// Arrival counts follow the sinusoid: the mid-cycle (peak) window
	// sees more traffic than the first (trough) window.
	if res.Windows[4].Count <= res.Windows[0].Count {
		t.Errorf("peak window count %d not above trough %d",
			res.Windows[4].Count, res.Windows[0].Count)
	}
}

func TestAblationSkipLists(t *testing.T) {
	c := smokeContext(t)
	res := c.AblationSkipLists()
	if res.WithSkips <= 0 || res.WithoutSkips <= 0 {
		t.Fatalf("missing measurements: %+v", res)
	}
	// At smoke scale lists are short and the two paths should be close;
	// the requirement is only that skips never make AND queries much
	// slower. The full-scale speedup is recorded in EXPERIMENTS.md.
	if res.Speedup < 0.7 {
		t.Errorf("skips slowed AND queries: %+v", res)
	}
}

func TestE18Hedging(t *testing.T) {
	c := smokeContext(t)
	res := c.E18Hedging()
	if len(res.Rows) != 3 {
		t.Fatal("want 3 policies")
	}
	plain, p95, eager := res.Rows[0], res.Rows[1], res.Rows[2]
	if plain.HedgeRate != 0 {
		t.Errorf("baseline hedged: %+v", plain)
	}
	// Hedging at the healthy p95 must cut the tail at modest extra work.
	if p95.P99 >= plain.P99 {
		t.Errorf("hedged p99 %v not below plain %v", p95.P99, plain.P99)
	}
	if p95.HedgeRate <= 0 || p95.HedgeRate > 0.4 {
		t.Errorf("p95-deadline hedge rate = %v, want small and positive", p95.HedgeRate)
	}
	// The eager policy hedges far more for little additional benefit.
	if eager.HedgeRate <= p95.HedgeRate {
		t.Errorf("eager hedge rate %v not above p95-deadline %v",
			eager.HedgeRate, p95.HedgeRate)
	}
}

func TestE19LiveFaults(t *testing.T) {
	c := smokeContext(t)
	res := c.E19LiveFaults()
	if len(res.Rows) != 3 {
		t.Fatal("want 3 rows")
	}
	plain, hedged, flaky := res.Rows[0], res.Rows[1], res.Rows[2]
	// Injected 10x+ stragglers dominate the unhedged tail.
	if plain.P99 < e19StragglerLatency {
		t.Errorf("unhedged p99 %v below injected straggler latency %v",
			plain.P99, e19StragglerLatency)
	}
	if plain.HedgeRate != 0 {
		t.Errorf("unhedged run hedged: %+v", plain)
	}
	// Hedging must measurably cut p99 on the real cluster: a straggling
	// sub-request is re-issued after the hedge delay and the duplicate
	// (almost always fast) wins.
	if hedged.P99 >= time.Duration(float64(plain.P99)*0.7) {
		t.Errorf("hedging did not cut p99: hedged %v vs plain %v", hedged.P99, plain.P99)
	}
	if hedged.HedgeRate <= 0 {
		t.Errorf("hedged run recorded no hedges: %+v", hedged)
	}
	// Stragglers are slow, not dead: nothing should fail or degrade.
	if plain.Availability != 1 || hedged.Availability != 1 {
		t.Errorf("straggler rows lost queries: plain %v hedged %v",
			plain.Availability, hedged.Availability)
	}
	if plain.DegradedFrac != 0 || hedged.DegradedFrac != 0 {
		t.Errorf("straggler rows degraded: plain %v hedged %v",
			plain.DegradedFrac, hedged.DegradedFrac)
	}
	// A 50%-erroring node never takes the whole answer down (the other
	// nodes still merge), some responses are flagged degraded, and the
	// retry path was exercised.
	if flaky.Availability != 1 {
		t.Errorf("flaky-node availability = %v, want 1 (partial answers)", flaky.Availability)
	}
	if flaky.DegradedFrac <= 0 {
		t.Errorf("flaky node produced no degraded responses: %+v", flaky)
	}
	if flaky.Retries <= 0 {
		t.Errorf("flaky node triggered no retries: %+v", flaky)
	}
}

// TestRosterIDs checks the roster's IDs are unique and that each one
// resolves, through the lookup benchrunner -only uses, to its own row.
func TestRosterIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All {
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %q", e.ID)
		}
		seen[e.ID] = true
		if got, ok := Lookup(e.ID); !ok || got.ID != e.ID {
			t.Errorf("Lookup(%q) = %q, %v", e.ID, got.ID, ok)
		}
	}
	for _, id := range []string{"", "nope", "E0", "e7"} {
		if _, ok := Lookup(id); ok {
			t.Errorf("Lookup(%q) succeeded", id)
		}
	}
}

// TestAllExperimentsSmoke runs every roster row at smoke scale on one
// shared context, as RunAll does, and checks each prints a section
// header carrying its own ID — a row whose ID and method disagree fails.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full roster in short mode")
	}
	var buf bytes.Buffer
	c := NewContext(&buf, 0.05)
	for _, e := range All {
		buf.Reset()
		e.Run(c)
		if header := "=== " + e.ID + ": "; !strings.Contains(buf.String(), header) {
			t.Errorf("%s: output has no %q section header", e.ID, header)
		}
	}
}
