package qcache

const (
	sketchDepth = 4
	// counterMax saturates the counters at TinyLFU's 4 bits: beyond 15
	// requests per sample, popularity no longer needs telling apart.
	counterMax = 15
	// sampleFactor sets the sample: after sampleFactor × capacity
	// additions every counter is halved, so the sketch follows what is
	// popular now rather than what was. The sample has to be long enough
	// to see a query at the admission boundary — about as popular as the
	// cache's least popular resident — more than once: on serve-cluster's
	// stream (Zipf 0.85, 6666 queries, 666 entries) such a query is asked
	// 1.4 times per 10 × capacity requests, which barely tells it from a
	// one-off; at 16 × capacity (2.2 times) the hit rate is 0.57, not 0.56.
	sampleFactor = 16
)

// sketch is a count-min sketch of recent requests per key hash: TinyLFU's
// frequency estimate. Its rows are as wide as the next power of two of
// four counters per cached entry. An estimate can only err upward, by
// collisions in every row at once.
type sketch struct {
	counters []uint8 // sketchDepth rows of mask+1 counters
	mask     uint64
	adds     int
	resetAt  int
}

func newSketch(capacity int) sketch {
	width := 16
	for width < 4*capacity {
		width *= 2
	}
	return sketch{
		counters: make([]uint8, sketchDepth*width),
		mask:     uint64(width - 1),
		resetAt:  sampleFactor * max(capacity, 1),
	}
}

// slot returns row i's counter for hash h: double hashing over the low
// 32 bits and bits 32–47 of h.
func (s *sketch) slot(h uint64, i int) *uint8 {
	lo, step := h&0xffffffff, (h>>32)&0xffff|1
	return &s.counters[uint64(i)*(s.mask+1)+(lo+uint64(i)*step)&s.mask]
}

// add counts one request for h, halving every counter once the sample
// is full.
func (s *sketch) add(h uint64) {
	for i := 0; i < sketchDepth; i++ {
		if c := s.slot(h, i); *c < counterMax {
			*c++
		}
	}
	if s.adds++; s.adds >= s.resetAt {
		for i := range s.counters {
			s.counters[i] >>= 1
		}
		s.adds /= 2
	}
}

// estimate is the least of h's counters.
func (s *sketch) estimate(h uint64) uint8 {
	m := uint8(counterMax)
	for i := 0; i < sketchDepth; i++ {
		m = min(m, *s.slot(h, i))
	}
	return m
}
