// Package search implements query evaluation over an index segment:
// boolean disjunctive (OR) and conjunctive (AND) retrieval with BM25
// ranking, top-k selection, and optional MaxScore dynamic pruning. The
// evaluation anatomy (parse -> dictionary lookup -> postings traversal and
// scoring -> merge) matches the Lucene query path of the characterized
// benchmark so phase-level characterization carries over.
package search

import (
	"fmt"
	"strings"
	"time"

	"websearchbench/internal/textproc"
)

// Mode selects the boolean semantics of a query.
type Mode uint8

const (
	// ModeOr ranks documents matching any query term (the benchmark's
	// default web-search semantics).
	ModeOr Mode = iota
	// ModeAnd ranks documents matching all query terms.
	ModeAnd
)

func (m Mode) String() string {
	switch m {
	case ModeOr:
		return "OR"
	case ModeAnd:
		return "AND"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Query is an analyzed query ready for evaluation.
type Query struct {
	Raw   string
	Terms []string
	// Phrases holds quoted multi-word phrases; every phrase is required
	// to match (its terms at consecutive positions). Evaluating phrases
	// requires a positional index.
	Phrases [][]string
	Mode    Mode
}

// ParseQuery analyzes raw text into a Query using the same analyzer the
// index was built with. Double-quoted spans become required phrases;
// remaining text becomes loose terms. Duplicate terms are preserved
// (they double the term's weight, as in the benchmark's query parser).
func ParseQuery(a *textproc.Analyzer, raw string, mode Mode) Query {
	q := Query{Raw: raw, Mode: mode}
	rest := raw
	var loose strings.Builder
	for {
		open := strings.IndexByte(rest, '"')
		if open < 0 {
			loose.WriteString(rest)
			break
		}
		close := strings.IndexByte(rest[open+1:], '"')
		if close < 0 {
			// Unbalanced quote: treat the remainder as loose text.
			loose.WriteString(rest[:open] + " " + rest[open+1:])
			break
		}
		loose.WriteString(rest[:open])
		loose.WriteByte(' ')
		phrase := a.AnalyzeQuery(rest[open+1 : open+1+close])
		switch len(phrase) {
		case 0:
			// Quoted stopwords or punctuation: nothing to require.
		case 1:
			// A one-word phrase is just a term.
			q.Terms = append(q.Terms, phrase[0])
		default:
			q.Phrases = append(q.Phrases, phrase)
		}
		rest = rest[open+close+2:]
	}
	q.Terms = append(q.Terms, a.AnalyzeQuery(loose.String())...)
	return q
}

// PhaseTimings is the per-phase service-time breakdown of one query, the
// quantity the paper's characterization section reports.
type PhaseTimings struct {
	Parse  time.Duration // analysis of the raw query text
	Lookup time.Duration // dictionary lookups and iterator setup
	Score  time.Duration // postings traversal and scoring
	Merge  time.Duration // top-k extraction and result assembly
}

// Total returns the sum of all phases.
func (p PhaseTimings) Total() time.Duration {
	return p.Parse + p.Lookup + p.Score + p.Merge
}

// Add accumulates other into p.
func (p *PhaseTimings) Add(other PhaseTimings) {
	p.Parse += other.Parse
	p.Lookup += other.Lookup
	p.Score += other.Score
	p.Merge += other.Merge
}

// Hit is one ranked result.
type Hit struct {
	Doc   int32
	Score float64
}

// Result is the outcome of evaluating a query against one segment.
type Result struct {
	Hits []Hit // descending by score, ties broken by ascending docID
	// Matches is the number of documents scored. Under MaxScore pruning
	// it is a lower bound on the true match count, because documents that
	// provably cannot enter the top-k are skipped without being counted.
	Matches int
	// PostingsScanned counts postings decoded while evaluating, the
	// work metric the service-time anatomy experiment correlates with
	// latency.
	PostingsScanned int64
	Phases          PhaseTimings
	// Incomplete marks a result evaluated over a posting list that ended
	// early because a block read from the blob store failed after its
	// retries: Hits may miss documents, so the result must be reported
	// as degraded and never cached.
	Incomplete bool
}

// Reset clears the result for reuse, keeping the Hits backing array so
// SearchInto can refill it without allocating.
func (r *Result) Reset() {
	r.Hits = r.Hits[:0]
	r.Matches = 0
	r.PostingsScanned = 0
	r.Phases = PhaseTimings{}
	r.Incomplete = false
}
