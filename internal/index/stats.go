package index

import (
	"cmp"
	"slices"
)

// Stats summarizes a segment for the characterization experiment (E1):
// the table of index properties the paper's benchmark-anatomy section
// reports.
type Stats struct {
	NumDocs          int
	NumTerms         int
	TotalPostings    int64
	TotalTermOccs    int64 // sum of collection frequencies
	AvgDocLen        float64
	PostingsBytes    int64
	RawPostingsBytes int64 // 8 bytes per posting, the uncompressed size
	// CompressionRatio is raw bytes over actual postings bytes.
	CompressionRatio float64

	// Posting-list length distribution (document frequencies).
	MaxDocFreq  int32
	MeanDocFreq float64
	P50DocFreq  int32
	P99DocFreq  int32
	TopTerms    []TermCount // most frequent terms by collection frequency
	StoredBytes int64       // doc-store payload bytes
	DocLenP50   int32
	DocLenP99   int32
	DocLenMax   int32
}

// TermCount pairs a term with its collection frequency.
type TermCount struct {
	Term  string
	Count int64
}

// ComputeStats gathers segment statistics. topN controls how many
// most-frequent terms are reported.
func (s *Segment) ComputeStats(topN int) Stats {
	st := Stats{
		NumDocs:   len(s.docLens),
		NumTerms:  len(s.terms),
		AvgDocLen: s.AvgDocLen(),
	}
	dfs := make([]int32, len(s.terms))
	cfs := make([]int64, len(s.terms))
	for id := range s.terms {
		e := s.entry(int32(id))
		dfs[id], cfs[id] = e.DocFreq, e.CollFreq
		st.TotalPostings += int64(e.DocFreq)
		st.TotalTermOccs += e.CollFreq
	}
	slices.Sort(dfs)
	if n := len(dfs); n > 0 {
		st.MaxDocFreq = dfs[n-1]
		st.MeanDocFreq = float64(st.TotalPostings) / float64(n)
		st.P50DocFreq = dfs[n/2]
		st.P99DocFreq = dfs[n*99/100]
	}
	st.PostingsBytes = s.PostingsBytes()
	st.RawPostingsBytes = st.TotalPostings * 8
	if st.PostingsBytes > 0 {
		st.CompressionRatio = float64(st.RawPostingsBytes) / float64(st.PostingsBytes)
	}
	for d := range s.stored {
		f, _ := s.storedFields(int32(d))
		st.StoredBytes += int64(f[0][1] - f[0][0] + f[1][1] - f[1][0] + f[2][1] - f[2][0] + 4)
	}
	lens := slices.Clone(s.docLens)
	slices.Sort(lens)
	if n := len(lens); n > 0 {
		st.DocLenP50 = lens[n/2]
		st.DocLenP99 = lens[n*99/100]
		st.DocLenMax = lens[n-1]
	}
	if topN > 0 {
		// Term IDs are in term order, so a stable sort by collection
		// frequency breaks ties alphabetically.
		ids := make([]int32, len(cfs))
		for id := range ids {
			ids[id] = int32(id)
		}
		slices.SortStableFunc(ids, func(a, b int32) int { return cmp.Compare(cfs[b], cfs[a]) })
		st.TopTerms = make([]TermCount, min(topN, len(ids)))
		for i, id := range ids[:len(st.TopTerms)] {
			st.TopTerms[i] = TermCount{Term: string(s.entry(id).term), Count: cfs[id]}
		}
	}
	return st
}
