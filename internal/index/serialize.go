package index

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
)

// ErrBadFormat is returned when deserializing data that is not a segment
// of the expected version.
var ErrBadFormat = errors.New("index: not a segment file (bad magic or version)")

// encoder appends the fixed-width and varint fields of a segment file.
type encoder []byte

func (e *encoder) u8(v uint8)       { *e = append(*e, v) }
func (e *encoder) u32(v uint32)     { *e = binary.LittleEndian.AppendUint32(*e, v) }
func (e *encoder) u64(v uint64)     { *e = binary.LittleEndian.AppendUint64(*e, v) }
func (e *encoder) f32(v float32)    { e.u32(math.Float32bits(v)) }
func (e *encoder) f64(v float64)    { e.u64(math.Float64bits(v)) }
func (e *encoder) uvarint(v uint64) { *e = binary.AppendUvarint(*e, v) }
func (e *encoder) bytes(p []byte)   { *e = append(*e, p...) }
func (e *encoder) str(s string)     { e.uvarint(uint64(len(s))); *e = append(*e, s...) }

// decoder reads a segment image front to back. The first read past the
// end of b, or of a malformed varint, sets err; every read after that
// returns zero values.
type decoder struct {
	b   []byte
	off int
	err error
}

// next returns the next n bytes of the image, aliasing it.
func (d *decoder) next(n uint64) []byte {
	if d.err == nil && n > uint64(len(d.b)-d.off) {
		d.err = io.ErrUnexpectedEOF
	}
	if d.err != nil {
		return nil
	}
	p := d.b[d.off : d.off+int(n) : d.off+int(n)]
	d.off += int(n)
	return p
}

// fixed returns the next n <= 8 bytes, or n zeros once a read failed.
func (d *decoder) fixed(n int) []byte {
	if p := d.next(uint64(n)); p != nil {
		return p
	}
	return make([]byte, n)
}

func (d *decoder) u8() uint8    { return d.fixed(1)[0] }
func (d *decoder) u32() uint32  { return binary.LittleEndian.Uint32(d.fixed(4)) }
func (d *decoder) u64() uint64  { return binary.LittleEndian.Uint64(d.fixed(8)) }
func (d *decoder) f32() float32 { return math.Float32frombits(d.u32()) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.err = io.ErrUnexpectedEOF
		return 0
	}
	d.off += n
	return v
}

// str returns a length-prefixed string's bytes, aliasing the image.
func (d *decoder) str() []byte { return d.next(d.uvarint()) }
