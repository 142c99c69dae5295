package partition

import "websearchbench/internal/search"

// GlobalStats aggregates collection statistics across all partitions of
// idx. Configuring the resulting stats on the per-partition searchers
// (search.Options.Stats) makes partitioned scoring identical to scoring
// against a single unpartitioned index — the distributed-IDF refinement.
func GlobalStats(idx *Index) *search.CollectionStats {
	st := &search.CollectionStats{DocFreqs: make(map[string]int64)}
	var totalLen int64
	for p := 0; p < idx.NumPartitions(); p++ {
		seg := idx.Segment(p)
		st.NumDocs += int64(seg.NumDocs())
		totalLen += seg.TotalLen()
		for _, term := range seg.Terms() {
			ti, _ := seg.Term(term)
			st.DocFreqs[term] += int64(ti.DocFreq)
		}
	}
	if st.NumDocs > 0 {
		st.AvgDocLen = float64(totalLen) / float64(st.NumDocs)
	}
	return st
}

// AvgDocLen returns the mean document length in terms across all
// partitions, 0 for an empty index.
func (idx *Index) AvgDocLen() float64 {
	var totalLen int64
	for _, seg := range idx.segs {
		totalLen += seg.TotalLen()
	}
	if idx.numDocs == 0 {
		return 0
	}
	return float64(totalLen) / float64(idx.numDocs)
}

// Imbalance quantifies how unevenly a term's postings spread over
// partitions: the ratio of the largest per-partition document frequency to
// the ideal (total/P). 1.0 is perfectly balanced; larger values mean one
// partition carries disproportionate work for this term. Used by the
// assignment ablation.
func (idx *Index) Imbalance(term string) float64 {
	var total, max int64
	for p := 0; p < idx.NumPartitions(); p++ {
		ti, ok := idx.Segment(p).Term(term)
		if !ok {
			continue
		}
		df := int64(ti.DocFreq)
		total += df
		if df > max {
			max = df
		}
	}
	if total == 0 {
		return 0
	}
	ideal := float64(total) / float64(idx.NumPartitions())
	return float64(max) / ideal
}
