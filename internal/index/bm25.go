package index

import "math"

// BM25Params are the Okapi BM25 free parameters. The defaults match the
// values used by the Lucene similarity the characterized benchmark serves
// with.
type BM25Params struct {
	K1 float64 // term-frequency saturation, typically 1.2
	B  float64 // length normalization, typically 0.75
}

// DefaultBM25 returns the standard parameterization.
func DefaultBM25() BM25Params { return BM25Params{K1: 1.2, B: 0.75} }

// IDF returns the BM25+ inverse document frequency for a term with
// document frequency df in a collection of n documents. The +1 inside the
// log keeps it non-negative for very common terms.
func IDF(n, df int64) float64 {
	if n <= 0 || df <= 0 {
		return 0
	}
	return math.Log(1 + (float64(n)-float64(df)+0.5)/(float64(df)+0.5))
}

// Score returns the BM25 contribution of one term occurrence set: idf is
// the term's IDF, freq the within-document frequency, docLen the document
// length in terms, and avgDocLen the collection's average document length.
func (p BM25Params) Score(idf float64, freq int32, docLen int32, avgDocLen float64) float64 {
	return p.ScoreNorm(idf, freq, p.LengthNorm(docLen, avgDocLen))
}

// ScoreNorm is Score with the document's LengthNorm already computed —
// the form evaluation uses, reading the norm from a per-document table
// so that scoring a posting costs one division.
func (p BM25Params) ScoreNorm(idf float64, freq int32, lengthNorm float64) float64 {
	if freq <= 0 {
		return 0
	}
	f := float64(freq)
	return idf * f * (p.K1 + 1) / (f + lengthNorm)
}

// LengthNorm returns K1·(1−B+B·docLen/avgDocLen), the document-length
// term of Score's denominator. The product is rounded to float64
// explicitly: left implicit, a compiler may fuse it with ScoreNorm's
// addition into one FMA on some architectures, and a table of norms would
// then score differently from Score.
func (p BM25Params) LengthNorm(docLen int32, avgDocLen float64) float64 {
	norm := 1 - p.B
	if avgDocLen > 0 {
		norm += p.B * float64(docLen) / avgDocLen
	}
	return float64(p.K1 * norm)
}

// lengthNorms returns LengthNorm of every document length in docLens.
func (p BM25Params) lengthNorms(docLens []int32, avgDocLen float64) []float64 {
	norms := make([]float64, len(docLens))
	for d, dl := range docLens {
		norms[d] = p.LengthNorm(dl, avgDocLen)
	}
	return norms
}

// MaxScore returns an upper bound on Score over any freq and docLen:
// the tf component saturates at (K1+1) as freq grows and docLen shrinks.
func (p BM25Params) MaxScore(idf float64) float64 {
	return idf * (p.K1 + 1)
}
