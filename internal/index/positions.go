package index

import "encoding/binary"

// Positional postings: when a segment is built WithPositions, each term's
// doc/freq list is encoded exactly as a non-positional one, and a
// positions stream follows it: for each posting in order, freq uvarints,
// the term's within-document positions (token offsets after analysis)
// delta-coded from 0. Positions are what phrase queries intersect. Skip
// tables, block maxima and lazy block bounds cover the doc/freq bytes
// only; the stream is one more unit beside them.

// addWithPositions appends a posting with its position list. Positions
// must be strictly increasing within the document.
func (e *postingsEncoder) addWithPositions(docID int32, positions []int32) {
	e.add(docID, int32(len(positions)))
	last := int32(0)
	for _, p := range positions {
		e.pos = binary.AppendUvarint(e.pos, uint64(p-last))
		last = p
	}
}

// PositionsIterator walks a positional posting list: a posting iterator
// and a cursor into the positions stream, moved in step.
type PositionsIterator struct {
	it     PostingsIterator
	stream []byte
	// list is the lazy list whose stream is read on the first Next, if
	// the query has not read it already.
	list *lazyList
	// cur/end delimit the current posting's encoded positions.
	cur, end int
	scratch  []int32
}

// Next advances to the next posting, returning false at the end. A
// positions stream that runs out ends the list, as a truncated posting
// list does.
func (p *PositionsIterator) Next() bool {
	if p.list != nil {
		p.stream = p.list.positionsStream()
		p.list = nil
	}
	if !p.it.Next() {
		return false
	}
	p.cur = p.end
	for i, f := int32(0), p.it.Freq(); i < f; i++ {
		_, n := binary.Uvarint(p.stream[p.end:])
		if n <= 0 {
			p.it.exhaust()
			return false
		}
		p.end += n
	}
	return true
}

// SkipTo advances to the first posting with docID >= target.
func (p *PositionsIterator) SkipTo(target int32) bool {
	for p.it.doc < target {
		if !p.Next() {
			return false
		}
	}
	return true
}

// Doc returns the current docID.
func (p *PositionsIterator) Doc() int32 { return p.it.doc }

// Freq returns the current within-document frequency.
func (p *PositionsIterator) Freq() int32 { return p.it.Freq() }

// Exhausted reports whether the iterator has run out of postings.
func (p *PositionsIterator) Exhausted() bool { return p.it.Exhausted() }

// Positions decodes the current posting's position list. The returned
// slice is reused by subsequent calls; copy it to retain.
func (p *PositionsIterator) Positions() []int32 {
	p.scratch = p.scratch[:0]
	last := int32(0)
	for i := p.cur; i < p.end; {
		d, n := binary.Uvarint(p.stream[i:])
		i += n
		last += int32(d)
		p.scratch = append(p.scratch, last)
	}
	return p.scratch
}

// HasPositions reports whether the segment stores positional postings.
func (s *Segment) HasPositions() bool { return s.positions }

// PositionsOf returns a positional iterator for term. ok is false when
// the term is absent or the segment has no positions.
func (s *Segment) PositionsOf(term string) (PositionsIterator, bool) {
	id, ok := s.lookup(term)
	if !ok || !s.positions {
		return PositionsIterator{it: PostingsIterator{doc: exhaustedDoc}}, false
	}
	return s.positionsByID(id), true
}

// positionsByID returns a positional iterator over term id's list. On a
// segment without positions it walks the postings only: advance its
// embedded iterator, not the PositionsIterator.
func (s *Segment) positionsByID(id int32) PositionsIterator {
	switch {
	case !s.positions:
		return PositionsIterator{it: s.postingsByID(id, false)}
	case s.src != nil:
		return s.NewLazyQuery().Positions(id)
	}
	e := s.entry(id)
	list, stream := s.lists(id, e)
	return PositionsIterator{it: newPostingsIterator(list, e.DocFreq), stream: stream}
}
