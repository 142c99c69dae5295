// Package index implements the engine's inverted index: a term dictionary,
// bit-packed block posting lists with optional positions streams,
// per-document metadata (lengths, stored fields), an in-memory builder,
// an immutable searchable segment, and a binary serialization format. Its anatomy mirrors the Lucene index
// the characterized benchmark serves, so dictionary-lookup and
// postings-traversal costs have the same structure.
package index

import "encoding/binary"

// appendUvarint appends the unsigned varint encoding of v to b.
func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// uvarint decodes an unsigned varint from b, returning the value and the
// number of bytes read (0 if b is truncated).
func uvarint(b []byte) (uint64, int) {
	return binary.Uvarint(b)
}
