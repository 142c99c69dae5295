package index

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

type posting struct {
	doc  int32
	freq int32
}

func encodeAll(ps []posting) PostingsIterator {
	var enc postingsEncoder
	for _, p := range ps {
		enc.add(p.doc, p.freq)
	}
	enc.finish()
	return newPostingsIterator(enc.buf, enc.count)
}

func decodeAll(it PostingsIterator) []posting {
	var out []posting
	for it.Next() {
		out = append(out, posting{it.Doc(), it.Freq()})
	}
	return out
}

// positionsFor returns freq increasing positions for a posting, a
// deterministic function of the posting so tests can rebuild them.
func positionsFor(p posting) []int32 {
	poss := make([]int32, p.freq)
	for j := range poss {
		poss[j] = int32(j)*(p.doc%7+1) + p.doc%3
	}
	return poss
}

// encodePositional encodes ps with positionsFor's positions.
func encodePositional(ps []posting) PositionsIterator {
	var enc postingsEncoder
	for _, p := range ps {
		enc.addWithPositions(p.doc, positionsFor(p))
	}
	enc.finish()
	return PositionsIterator{it: newPostingsIterator(enc.buf, enc.count), stream: enc.pos}
}

// positionalEqual walks it and reports whether it delivers exactly ps
// with positionsFor's positions.
func positionalEqual(it PositionsIterator, ps []posting) bool {
	for _, p := range ps {
		if !it.Next() || it.Doc() != p.doc || it.Freq() != p.freq {
			return false
		}
		want, got := positionsFor(p), it.Positions()
		if len(got) != len(want) {
			return false
		}
		for j := range got {
			if got[j] != want[j] {
				return false
			}
		}
	}
	return !it.Next() && it.end == len(it.stream)
}

func TestPostingsRoundTrip(t *testing.T) {
	t.Run("packed", func(t *testing.T) {
		ps := []posting{{0, 1}, {1, 3}, {5, 2}, {1000, 1}, {1001, 7}, {1 << 20, 255}}
		got := decodeAll(encodeAll(ps))
		if len(got) != len(ps) {
			t.Fatalf("decoded %d postings, want %d", len(got), len(ps))
		}
		for i := range ps {
			if got[i] != ps[i] {
				t.Errorf("posting %d = %+v, want %+v", i, got[i], ps[i])
			}
		}
	})
	// The positions stream stays in step with the doc/freq list across
	// full blocks and the tail.
	t.Run("positional", func(t *testing.T) {
		var ps []posting
		for d := int32(0); d < 3*packedBlockLen+5; d++ {
			ps = append(ps, posting{d * d, d%9 + 1})
		}
		if !positionalEqual(encodePositional(ps), ps) {
			t.Error("positional list did not round-trip")
		}
	})
}

func TestPostingsEmpty(t *testing.T) {
	it := encodeAll(nil)
	if it.Next() {
		t.Error("Next on empty list returned true")
	}
	if !it.Exhausted() {
		t.Error("empty list should be exhausted after Next")
	}
}

func TestPostingsExhaustionIsSticky(t *testing.T) {
	it := encodeAll([]posting{{3, 1}})
	if !it.Next() || it.Doc() != 3 {
		t.Fatal("first Next failed")
	}
	for i := 0; i < 3; i++ {
		if it.Next() {
			t.Fatal("Next after exhaustion returned true")
		}
		if it.Doc() != exhaustedDoc {
			t.Fatalf("Doc after exhaustion = %d", it.Doc())
		}
	}
}

func TestSkipTo(t *testing.T) {
	ps := []posting{{2, 1}, {4, 1}, {8, 1}, {16, 1}, {32, 1}}
	tests := []struct {
		target  int32
		wantDoc int32
		wantOK  bool
	}{
		{0, 2, true},
		{2, 2, true},
		{3, 4, true},
		{16, 16, true},
		{17, 32, true},
		{33, 0, false},
	}
	for _, tt := range tests {
		it := encodeAll(ps)
		ok := it.SkipTo(tt.target)
		if ok != tt.wantOK {
			t.Errorf("SkipTo(%d) ok = %v, want %v", tt.target, ok, tt.wantOK)
			continue
		}
		if ok && it.Doc() != tt.wantDoc {
			t.Errorf("SkipTo(%d) doc = %d, want %d", tt.target, it.Doc(), tt.wantDoc)
		}
	}
}

func TestSkipToDoesNotRewind(t *testing.T) {
	it := encodeAll([]posting{{1, 1}, {5, 1}, {9, 1}})
	it.SkipTo(5)
	// Skipping backwards is a no-op: the iterator stays at 5.
	if !it.SkipTo(2) || it.Doc() != 5 {
		t.Errorf("SkipTo(2) after 5 = doc %d, want 5", it.Doc())
	}
}

// TestTruncatedVarintPostings cuts a list's varint tail at every byte
// and inflates its count: the iterator must deliver only postings of the
// list, in order, and end exhausted instead of spinning or panicking.
func TestTruncatedVarintPostings(t *testing.T) {
	ref := []posting{{10, 3}, {20, 4}, {300, 1}, {301, 200}}
	var enc postingsEncoder
	for _, p := range ref {
		enc.add(p.doc, p.freq)
	}
	enc.finish()
	check := func(buf []byte, count int32) {
		t.Helper()
		it := newPostingsIterator(buf, count)
		n := 0
		for it.Next() {
			if n >= len(ref) || it.Doc() != ref[n].doc || it.Freq() != ref[n].freq {
				t.Fatalf("%d bytes, count %d: posting %d = (%d,%d)", len(buf), count, n, it.Doc(), it.Freq())
			}
			n++
		}
		if !it.Exhausted() {
			t.Fatalf("%d bytes, count %d: not exhausted", len(buf), count)
		}
	}
	for cut := 0; cut < len(enc.buf); cut++ {
		check(enc.buf[:cut], enc.count)
	}
	check(enc.buf, enc.count+5)
}

// Property: round trip preserves arbitrary increasing posting lists, from
// a varint tail alone to several full blocks plus a tail.
func TestPostingsRoundTripProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 * int(nRaw)
		docs := make([]int, n)
		for i := range docs {
			docs[i] = rng.Intn(1 << 22)
		}
		sort.Ints(docs)
		ps := make([]posting, 0, n)
		last := int32(-1)
		for _, d := range docs {
			if int32(d) == last {
				continue // docIDs must be strictly increasing
			}
			last = int32(d)
			ps = append(ps, posting{int32(d), int32(rng.Intn(1000) + 1)})
		}
		got := decodeAll(encodeAll(ps))
		if len(got) != len(ps) {
			return false
		}
		for i := range ps {
			if got[i] != ps[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: positional posting lists round-trip arbitrary docs and
// positions through the positions stream, which ends exactly with the
// list, and the plain iterator over the same doc/freq bytes sees the
// same (doc, freq) stream.
func TestPositionalRoundTripProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw) + 1
		ps := make([]posting, n)
		doc := int32(0)
		for i := range ps {
			doc += int32(rng.Intn(1000) + 1)
			ps[i] = posting{doc, int32(rng.Intn(6) + 1)}
		}
		pit := encodePositional(ps)
		if !positionalEqual(pit, ps) {
			return false
		}
		got := decodeAll(pit.it)
		if len(got) != len(ps) {
			return false
		}
		for i := range ps {
			if got[i] != ps[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
