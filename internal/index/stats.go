package index

import "sort"

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
		NumTerms:  len(s.termList),
		AvgDocLen: s.AvgDocLen(),
	}
	dfs := make([]int32, len(s.docFreqs))
	copy(dfs, s.docFreqs)
	sort.Slice(dfs, func(i, j int) bool { return dfs[i] < dfs[j] })
	for _, df := range dfs {
		st.TotalPostings += int64(df)
	}
	for _, cf := range s.collFreqs {
		st.TotalTermOccs += cf
	}
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
	for _, d := range s.docs {
		st.StoredBytes += int64(len(d.URL) + len(d.Title) + len(d.Snippet) + 4)
	}
	lens := make([]int32, len(s.docLens))
	copy(lens, s.docLens)
	sort.Slice(lens, func(i, j int) bool { return lens[i] < lens[j] })
	if n := len(lens); n > 0 {
		st.DocLenP50 = lens[n/2]
		st.DocLenP99 = lens[n*99/100]
		st.DocLenMax = lens[n-1]
	}
	if topN > 0 {
		type tc struct {
			id int32
			cf int64
		}
		all := make([]tc, len(s.collFreqs))
		for id, cf := range s.collFreqs {
			all[id] = tc{int32(id), cf}
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].cf != all[j].cf {
				return all[i].cf > all[j].cf
			}
			return s.termList[all[i].id] < s.termList[all[j].id]
		})
		if topN > len(all) {
			topN = len(all)
		}
		st.TopTerms = make([]TermCount, topN)
		for i := 0; i < topN; i++ {
			st.TopTerms[i] = TermCount{Term: s.termList[all[i].id], Count: all[i].cf}
		}
	}
	return st
}
