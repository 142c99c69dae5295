package index

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// ErrBadFormat is returned when deserializing data that is not a segment
// of the expected version.
var ErrBadFormat = errors.New("index: not a segment file (bad magic or version)")

// maxStringLen bounds decoded string lengths as corruption protection.
const maxStringLen = 1 << 24

// countingWriter tracks bytes written and the first error.
type countingWriter struct {
	w   *bufio.Writer
	n   int64
	err error
}

func (cw *countingWriter) write(p []byte) {
	if cw.err != nil {
		return
	}
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	cw.err = err
}

func (cw *countingWriter) u8(v uint8)   { cw.write([]byte{v}) }
func (cw *countingWriter) u32(v uint32) { cw.write(binary.LittleEndian.AppendUint32(nil, v)) }
func (cw *countingWriter) u64(v uint64) { cw.write(binary.LittleEndian.AppendUint64(nil, v)) }
func (cw *countingWriter) f32(v float32) {
	cw.u32(math.Float32bits(v))
}
func (cw *countingWriter) f64(v float64) {
	cw.u64(math.Float64bits(v))
}
func (cw *countingWriter) uvarint(v uint64) {
	cw.write(binary.AppendUvarint(nil, v))
}
func (cw *countingWriter) str(s string) {
	cw.uvarint(uint64(len(s)))
	cw.write([]byte(s))
}

// reader wraps a bufio.Reader with sticky-error decoding helpers.
type reader struct {
	r   *bufio.Reader
	err error
}

func (rd *reader) read(p []byte) {
	if rd.err != nil {
		return
	}
	_, rd.err = io.ReadFull(rd.r, p)
}

func (rd *reader) u8() uint8 {
	var b [1]byte
	rd.read(b[:])
	return b[0]
}

func (rd *reader) u32() uint32 {
	var b [4]byte
	rd.read(b[:])
	return binary.LittleEndian.Uint32(b[:])
}

func (rd *reader) u64() uint64 {
	var b [8]byte
	rd.read(b[:])
	return binary.LittleEndian.Uint64(b[:])
}

func (rd *reader) f32() float32 { return math.Float32frombits(rd.u32()) }
func (rd *reader) f64() float64 { return math.Float64frombits(rd.u64()) }

func (rd *reader) uvarint() uint64 {
	if rd.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(rd.r)
	if err != nil {
		rd.err = err
		return 0
	}
	return v
}

func (rd *reader) str() string {
	n := rd.uvarint()
	if rd.err != nil {
		return ""
	}
	if n > maxStringLen {
		rd.err = fmt.Errorf("index: string length %d exceeds limit", n)
		return ""
	}
	b := make([]byte, n)
	rd.read(b)
	return string(b)
}

// validatePostings decodes every posting list once and rejects lists
// that deliver the wrong number of postings or documents out of range —
// corruption the per-read decoders cannot always detect (a bit flip in a
// varint delta still decodes, to a docID that would crash scoring
// later). A positions stream must hold, per posting, increasing positions
// inside the document and end exactly with the list. Runs before
// buildSkips so nothing downstream sees bad lists.
func (s *Segment) validatePostings() error {
	numDocs := int32(len(s.docLens))
	for id, term := range s.termList {
		p := PositionsIterator{it: newPostingsIterator(s.postings[id], s.docFreqs[id])}
		if s.positions {
			p.stream = s.posStreams[id]
		}
		n := int32(0)
		last := int32(-1)
		for (s.positions && p.Next()) || (!s.positions && p.it.Next()) {
			d := p.Doc()
			if d <= last || d >= numDocs {
				return fmt.Errorf("index: term %q posting %d: docID %d out of order or range (prev %d, docs %d)",
					term, n, d, last, numDocs)
			}
			if s.positions {
				prev := int32(-1)
				for _, pos := range p.Positions() {
					if pos <= prev || pos >= s.docLens[d] {
						return fmt.Errorf("index: term %q doc %d: position %d out of order or range", term, d, pos)
					}
					prev = pos
				}
			}
			last = d
			n++
		}
		if n != s.docFreqs[id] {
			return fmt.Errorf("index: term %q posting list decoded %d postings, want %d", term, n, s.docFreqs[id])
		}
		if p.end != len(p.stream) {
			return fmt.Errorf("index: term %q positions stream has %d trailing bytes", term, len(p.stream)-p.end)
		}
	}
	return nil
}
