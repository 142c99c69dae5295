package experiments

import (
	"fmt"
	"time"

	"websearchbench/internal/partition"
	"websearchbench/internal/search"
)

// AblationAssignmentResult contrasts document-assignment policies.
type AblationAssignmentResult struct {
	// Imbalance is the mean posting imbalance of workload query terms:
	// the heaviest partition's document frequency relative to the ideal
	// even split (1.0 = perfectly balanced). Work imbalance translates
	// directly into fork-join span, so a larger value means partitioning
	// helps less.
	RoundRobinImbalance float64
	RangeImbalance      float64
}

// AblationAssignment measures how document assignment skews per-partition
// work, using the deterministic posting-count imbalance of the workload's
// query terms (wall-clock per-partition times at this index scale are
// microsecond-level and too noisy to compare policies).
func (c *Context) AblationAssignment() AblationAssignmentResult {
	qs := c.Analyzed()
	n := min(len(qs), 400)
	measure := func(a partition.Assignment) float64 {
		idx, err := partition.Build(c.CorpusCfg, 8, a)
		if err != nil {
			panic(fmt.Sprintf("experiments: partition build failed: %v", err))
		}
		var sum float64
		count := 0
		for i := 0; i < n; i++ {
			for _, term := range qs[i].Terms {
				if imb := idx.Imbalance(term); imb > 0 {
					sum += imb
					count++
				}
			}
		}
		if count == 0 {
			return 0
		}
		return sum / float64(count)
	}
	res := AblationAssignmentResult{
		RoundRobinImbalance: measure(partition.RoundRobin),
		RangeImbalance:      measure(partition.Range),
	}
	c.section("ABL-3", "partition assignment ablation (P=8)")
	w := c.table()
	fmt.Fprintf(w, "round-robin posting imbalance\t%.3f\n", res.RoundRobinImbalance)
	fmt.Fprintf(w, "range posting imbalance\t%.3f\n", res.RangeImbalance)
	w.Flush()
	c.record("ABL-3", "round-robin", "posting_imbalance", res.RoundRobinImbalance)
	c.record("ABL-3", "range", "posting_imbalance", res.RangeImbalance)
	return res
}

// AblationTopKResult is the result-count sensitivity.
type AblationTopKResult struct {
	K    []int
	Mean []time.Duration
}

// AblationTopK measures service-time sensitivity to the requested result
// count.
func (c *Context) AblationTopK() AblationTopKResult {
	seg := c.Segment()
	qs := c.Analyzed()
	res := AblationTopKResult{}
	for _, k := range []int{1, 10, 100, 1000} {
		s := search.NewSearcher(seg, search.Options{TopK: k, UseMaxScore: true})
		var total time.Duration
		for _, q := range qs {
			start := time.Now()
			s.Search(q)
			total += time.Since(start)
		}
		res.K = append(res.K, k)
		res.Mean = append(res.Mean, total/time.Duration(max(1, len(qs))))
	}
	c.section("ABL-4", "top-k sensitivity ablation")
	w := c.table()
	fmt.Fprintf(w, "k\tmean service time\n")
	for i, k := range res.K {
		fmt.Fprintf(w, "%d\t%s\n", k, ms(res.Mean[i]))
		c.record("ABL-4", fmt.Sprintf("k=%d", k), "ns_per_query", float64(res.Mean[i]))
	}
	w.Flush()
	return res
}
