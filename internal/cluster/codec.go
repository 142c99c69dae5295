package cluster

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// This file is the one codec of SearchRequest and SearchResponse: every
// /search body in the cluster is written by appendSearchRequest or
// appendSearchResponse and read by decodeSearchRequest or
// decodeSearchResponse. The encoders emit exactly the bytes
// json.NewEncoder(w).Encode(v) would (field order, omitempty, HTML-safe
// escaping, number formatting, trailing newline), so the wire format is
// still "the struct's JSON"; the decoders accept any JSON encoding/json
// would accept for the struct — any member order, whitespace, escapes,
// unknown members, case-insensitive member names, null as "leave unset" —
// and reject everything json.Unmarshal rejects. FuzzSearchCodec holds both
// to encoding/json as the reference.

const hexDigits = "0123456789abcdef"

// verbatim marks the ASCII bytes a string literal carries as they are.
var verbatim = func() (t [utf8.RuneSelf]bool) {
	for b := range t {
		t[b] = b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// appendString appends s as a JSON string literal, escaping what
// encoding/json escapes: quotes, backslashes, control bytes, <, > and &,
// U+2028/U+2029, and invalid UTF-8 (as the escape \ufffd).
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if verbatim[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendFloat appends f the way encoding/json formats a float64: the
// shortest representation that round-trips, in exponent form only below
// 1e-6 and from 1e21, with a one-digit exponent not zero-padded. NaN and
// the infinities have no JSON form and are an error.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("cluster: unsupported score %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-09 to e-9
		dst = dst[:n-1]
	}
	return dst, nil
}

// appendSearchRequest appends req's wire form, newline included, to dst.
func appendSearchRequest(dst []byte, req *SearchRequest) []byte {
	dst = append(dst, `{"query":`...)
	dst = appendString(dst, req.Query)
	if req.Mode != "" {
		dst = append(dst, `,"mode":`...)
		dst = appendString(dst, req.Mode)
	}
	if req.TopK != 0 {
		dst = append(dst, `,"topK":`...)
		dst = strconv.AppendInt(dst, int64(req.TopK), 10)
	}
	return append(dst, '}', '\n')
}

// appendSearchResponse appends resp's wire form, newline included, to
// dst. On an error (a score with no JSON form) dst is returned as it came.
func appendSearchResponse(dst []byte, resp *SearchResponse) ([]byte, error) {
	orig := dst
	dst = append(dst, `{"hits":`...)
	if resp.Hits == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range resp.Hits {
			h := &resp.Hits[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"url":`...)
			dst = appendString(dst, h.URL)
			dst = append(dst, `,"title":`...)
			dst = appendString(dst, h.Title)
			dst = append(dst, `,"score":`...)
			var err error
			if dst, err = appendFloat(dst, h.Score); err != nil {
				return orig, err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"matches":`...)
	dst = strconv.AppendInt(dst, int64(resp.Matches), 10)
	dst = append(dst, `,"tookMicros":`...)
	dst = strconv.AppendInt(dst, resp.TookMicros, 10)
	if resp.Node != "" {
		dst = append(dst, `,"node":`...)
		dst = appendString(dst, resp.Node)
	}
	if resp.NodesAnswered != 0 {
		dst = append(dst, `,"nodesAnswered":`...)
		dst = strconv.AppendInt(dst, int64(resp.NodesAnswered), 10)
	}
	if resp.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	return append(dst, '}', '\n'), nil
}

var (
	requestFields  = []string{"query", "mode", "topK"}
	responseFields = []string{"hits", "matches", "tookMicros", "node", "nodesAnswered", "degraded"}
	hitFields      = []string{"url", "title", "score"}
)

// decodeSearchRequest decodes the one JSON value in s into req. Members s
// does not mention (or gives as null) keep the value req came with.
// req.Query and req.Mode are substrings of s where their literals hold no
// escape.
func decodeSearchRequest(s string, req *SearchRequest) error {
	d := decoder{s: s}
	err := d.object("request", func(key string) error {
		switch fieldName(key, requestFields) {
		case "query":
			return d.stringField(&req.Query, key)
		case "mode":
			return d.stringField(&req.Mode, key)
		case "topK":
			return intField(&d, &req.TopK, key)
		}
		return d.skip(1)
	})
	if err != nil {
		return err
	}
	return d.end()
}

// decodeSearchResponse decodes the one JSON value in s into resp, which
// should be zero: members s does not mention keep the value resp came
// with. URLs, titles and the node name are substrings of s where their
// literals hold no escape, so a decoded response costs the hit slice and
// whatever the caller paid to make s.
func decodeSearchResponse(s string, resp *SearchResponse) error {
	d := decoder{s: s}
	err := d.object("response", func(key string) error {
		switch fieldName(key, responseFields) {
		case "hits":
			return d.hits(&resp.Hits)
		case "matches":
			return intField(&d, &resp.Matches, key)
		case "tookMicros":
			return intField(&d, &resp.TookMicros, key)
		case "node":
			return d.stringField(&resp.Node, key)
		case "nodesAnswered":
			return intField(&d, &resp.NodesAnswered, key)
		case "degraded":
			return d.boolField(&resp.Degraded, key)
		}
		return d.skip(1)
	})
	if err != nil {
		return err
	}
	return d.end()
}

// fieldName returns which of names the member key selects, "" for none:
// the exact name first, else a case-insensitive match, which is how
// encoding/json resolves struct fields.
func fieldName(key string, names []string) string {
	for _, n := range names {
		if key == n {
			return n
		}
	}
	for _, n := range names {
		if strings.EqualFold(key, n) {
			return n
		}
	}
	return ""
}

// decoder is a cursor over one JSON text.
type decoder struct {
	s string
	i int
}

// maxSkipDepth bounds the nesting of a member the decoder does not know
// and only skips. encoding/json allows 10000 levels; nothing legitimate
// nests an unknown member this deep, and the skip is recursive.
const maxSkipDepth = 64

// bad is the error for the byte at d.i: not valid JSON, or not a value
// the member what can take.
func (d *decoder) bad(what string) error {
	if d.i >= len(d.s) {
		return fmt.Errorf("cluster: decoding %s: %w", what, io.ErrUnexpectedEOF)
	}
	return fmt.Errorf("cluster: decoding %s: unexpected %q at offset %d", what, d.s[d.i], d.i)
}

// space skips whitespace and returns the byte then at d.i, 0 at the end.
func (d *decoder) space() byte {
	for ; d.i < len(d.s); d.i++ {
		switch c := d.s[d.i]; c {
		case ' ', '\t', '\r', '\n':
		default:
			return c
		}
	}
	return 0
}

// end checks that only whitespace follows the value.
func (d *decoder) end() error {
	if d.space(); d.i < len(d.s) {
		return d.bad("trailing data")
	}
	return nil
}

// literal consumes lit (true, false or null).
func (d *decoder) literal(lit string) error {
	if !strings.HasPrefix(d.s[d.i:], lit) {
		return d.bad(lit)
	}
	d.i += len(lit)
	return nil
}

// open consumes the opening brace of an object. It reports false with no
// error for null, which leaves the destination as it is.
func (d *decoder) open(what string) (bool, error) {
	switch d.space() {
	case '{':
		d.i++
		return true, nil
	case 'n':
		return false, d.literal("null")
	}
	return false, d.bad(what)
}

// object reads an object, or null, calling member for each member with d
// at the member's value, which member must consume.
func (d *decoder) object(what string, member func(key string) error) error {
	open, err := d.open(what)
	for first := true; open && err == nil; first = false {
		var key string
		if key, open, err = d.key(first); open && err == nil {
			err = member(key)
		}
	}
	return err
}

// key moves to the next member of the object d is in and returns its
// name, leaving d at the member's value; ok is false once the closing
// brace is consumed. first says no member has been read yet.
func (d *decoder) key(first bool) (name string, ok bool, err error) {
	c := d.space()
	if c == '}' {
		d.i++
		return "", false, nil
	}
	if !first {
		if c != ',' {
			return "", false, d.bad("object")
		}
		d.i++
		c = d.space()
	}
	if c != '"' {
		return "", false, d.bad("object key")
	}
	if name, err = d.str(); err != nil {
		return "", false, err
	}
	if d.space() != ':' {
		return "", false, d.bad("object")
	}
	d.i++
	return name, true, nil
}

// elem moves to the next element of the array d is in; ok is false once
// the closing bracket is consumed.
func (d *decoder) elem(first bool) (ok bool, err error) {
	c := d.space()
	if c == ']' {
		d.i++
		return false, nil
	}
	if !first {
		if c != ',' {
			return false, d.bad("array")
		}
		d.i++
	}
	return true, nil
}

// str reads the string literal whose opening quote is at d.i. A literal
// of plain valid UTF-8 is returned as a substring of d.s.
func (d *decoder) str() (string, error) {
	start := d.i + 1
	for i := start; i < len(d.s); {
		switch c := d.s[i]; {
		case c == '"':
			d.i = i + 1
			return d.s[start:i], nil
		case c == '\\':
			return d.unquote(start, i)
		case c < ' ':
			d.i = i
			return "", d.bad("string")
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRuneInString(d.s[i:])
			if r == utf8.RuneError && size == 1 {
				return d.unquote(start, i)
			}
			i += size
		}
	}
	d.i = len(d.s)
	return "", d.bad("string")
}

// unquote is str for a literal that needs rewriting: d.s[start:i] is
// plain, and at i stands an escape or a byte that is not UTF-8 (which
// becomes U+FFFD, as do unpaired surrogate escapes).
func (d *decoder) unquote(start, i int) (string, error) {
	s := d.s
	b := append(make([]byte, 0, 2*(i-start)+16), s[start:i]...)
	for i < len(s) {
		switch c := s[i]; {
		case c == '"':
			d.i = i + 1
			return string(b), nil
		case c < ' ':
			d.i = i
			return "", d.bad("string")
		case c == '\\':
			i++
			if i >= len(s) {
				d.i = i
				return "", d.bad("string")
			}
			switch s[i] {
			case '"', '\\', '/':
				b = append(b, s[i])
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(s[i+1:])
				if r < 0 {
					d.i = i
					return "", d.bad("string escape")
				}
				i += 4
				if utf16.IsSurrogate(r) {
					// A surrogate half must be followed by its other half,
					// also escaped; alone it decodes to U+FFFD.
					r2 := rune(-1)
					if strings.HasPrefix(s[i+1:], `\u`) {
						r2 = hex4(s[i+3:])
					}
					if r = utf16.DecodeRune(r, r2); r != unicode.ReplacementChar {
						i += 6
					}
				}
				b = utf8.AppendRune(b, r)
			default:
				d.i = i
				return "", d.bad("string escape")
			}
			i++
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			b = utf8.AppendRune(b, r) // U+FFFD for a byte that is not UTF-8
			i += size
		}
	}
	d.i = len(s)
	return "", d.bad("string")
}

// hex4 parses the four hex digits s starts with, -1 if it does not.
func hex4(s string) rune {
	if len(s) < 4 {
		return -1
	}
	v, err := strconv.ParseUint(s[:4], 16, 16)
	if err != nil {
		return -1
	}
	return rune(v)
}

// number consumes the number literal at d.i and reports whether it is
// written as an integer (no fraction, no exponent).
func (d *decoder) number() (lit string, integer bool, err error) {
	s, start := d.s, d.i
	digits := func() bool {
		from := d.i
		for d.i < len(s) && '0' <= s[d.i] && s[d.i] <= '9' {
			d.i++
		}
		return d.i > from
	}
	if d.i < len(s) && s[d.i] == '-' {
		d.i++
	}
	if d.i < len(s) && s[d.i] == '0' {
		d.i++
	} else if !digits() {
		return "", false, d.bad("number")
	}
	integer = true
	if d.i < len(s) && s[d.i] == '.' {
		d.i++
		if integer = false; !digits() {
			return "", false, d.bad("number")
		}
	}
	if d.i < len(s) && (s[d.i] == 'e' || s[d.i] == 'E') {
		d.i++
		if d.i < len(s) && (s[d.i] == '+' || s[d.i] == '-') {
			d.i++
		}
		if integer = false; !digits() {
			return "", false, d.bad("number")
		}
	}
	return s[start:d.i], integer, nil
}

// skip consumes one value of any type, checking only that it is JSON.
func (d *decoder) skip(depth int) error {
	switch c := d.space(); {
	case c == '"':
		_, err := d.str()
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, _, err := d.number()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '{' && depth < maxSkipDepth:
		d.i++
		for first := true; ; first = false {
			if _, ok, err := d.key(first); !ok || err != nil {
				return err
			}
			if err := d.skip(depth + 1); err != nil {
				return err
			}
		}
	case c == '[' && depth < maxSkipDepth:
		d.i++
		for first := true; ; first = false {
			if ok, err := d.elem(first); !ok || err != nil {
				return err
			}
			if err := d.skip(depth + 1); err != nil {
				return err
			}
		}
	}
	return d.bad("value")
}

// stringField reads a string, or null, into dst.
func (d *decoder) stringField(dst *string, field string) error {
	switch d.space() {
	case '"':
		s, err := d.str()
		if err == nil {
			*dst = s
		}
		return err
	case 'n':
		return d.literal("null")
	}
	return d.bad(field)
}

// boolField reads true, false or null into dst.
func (d *decoder) boolField(dst *bool, field string) error {
	switch d.space() {
	case 't':
		*dst = true
		return d.literal("true")
	case 'f':
		*dst = false
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	return d.bad(field)
}

// numberField consumes the number literal a numeric member holds, or
// null, for which lit is "".
func (d *decoder) numberField(field string) (lit string, integer bool, err error) {
	switch c := d.space(); {
	case c == 'n':
		return "", false, d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	}
	return "", false, d.bad(field)
}

// intField reads an integer literal that fits T, or null, into dst.
func intField[T int | int64](d *decoder, dst *T, field string) error {
	lit, integer, err := d.numberField(field)
	if err != nil || lit == "" {
		return err
	}
	bits := 64
	if _, ok := any(dst).(*int); ok {
		bits = strconv.IntSize
	}
	v, err := strconv.ParseInt(lit, 10, bits)
	if !integer || err != nil {
		return fmt.Errorf("cluster: decoding %s: %s is not an integer in range", field, lit)
	}
	*dst = T(v)
	return nil
}

// floatField reads a number that fits a float64, or null, into dst.
func (d *decoder) floatField(dst *float64, field string) error {
	lit, _, err := d.numberField(field)
	if err != nil || lit == "" {
		return err
	}
	v, err := strconv.ParseFloat(lit, 64)
	if err != nil {
		return fmt.Errorf("cluster: decoding %s: %s is out of range", field, lit)
	}
	*dst = v
	return nil
}

// hits reads an array of hits, or null, into dst: null makes it nil, an
// array reuses its capacity from the start.
func (d *decoder) hits(dst *[]WireHit) error {
	switch d.space() {
	case 'n':
		*dst = nil
		return d.literal("null")
	case '[':
		d.i++
	default:
		return d.bad("hits")
	}
	hits := (*dst)[:0]
	if hits == nil {
		hits = []WireHit{}
	}
	for first := true; ; first = false {
		ok, err := d.elem(first)
		if err != nil {
			return err
		}
		if !ok {
			*dst = hits
			return nil
		}
		if cap(hits) == 0 {
			// One allocation for the common response: the default top-k
			// is 10. Longer lists grow by doubling.
			hits = make([]WireHit, 0, 16)
		}
		hits = append(hits, WireHit{})
		if err := d.hit(&hits[len(hits)-1]); err != nil {
			return err
		}
	}
}

// hit reads one hit object, or null, into h.
func (d *decoder) hit(h *WireHit) error {
	return d.object("hit", func(key string) error {
		switch fieldName(key, hitFields) {
		case "url":
			return d.stringField(&h.URL, key)
		case "title":
			return d.stringField(&h.Title, key)
		case "score":
			return d.floatField(&h.Score, key)
		}
		return d.skip(3)
	})
}

// wireScratch is the working memory of one /search exchange, recycled
// through scratchPool so the serving path allocates none of it per
// request. Nothing handed to a caller may point into it: bodies are
// copied out as a string before they are decoded, responses are written
// or cloned before it is released.
type wireScratch struct {
	// buf holds a body being read or a message being encoded.
	buf []byte
	// hits is a node's result list or a front-end's merge.
	hits []WireHit
	// shards holds a front-end scatter's per-shard outcomes.
	shards []shardResult
}

var scratchPool = sync.Pool{New: func() any { return new(wireScratch) }}

// maxPooledBuf is the largest body buffer kept for reuse; one oversized
// message must not pin its buffer in the pool for good.
const maxPooledBuf = 64 << 10

func getScratch() *wireScratch { return scratchPool.Get().(*wireScratch) }

// putScratch recycles sc, dropping its references to response strings.
func putScratch(sc *wireScratch) {
	if cap(sc.buf) > maxPooledBuf || cap(sc.hits) > 2*MaxTopK {
		return
	}
	clear(sc.hits)
	clear(sc.shards)
	sc.buf, sc.hits, sc.shards = sc.buf[:0], sc.hits[:0], sc.shards[:0]
	scratchPool.Put(sc)
}

// readText reads r to its end through sc's buffer and returns what it
// read as a string of its own. size is the announced Content-Length, not
// positive when unknown; it only sizes the first read.
func (sc *wireScratch) readText(r io.Reader, size int64) (string, error) {
	buf := slices.Grow(sc.buf[:0], int(min(max(size, 511), maxPooledBuf))+1)
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			sc.buf = buf
			if err == io.EOF {
				return string(buf), nil
			}
			return "", err
		}
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, len(buf))
		}
	}
}
