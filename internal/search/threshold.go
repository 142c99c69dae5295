package search

import (
	"math"
	"sync"
	"sync/atomic"
)

// ThresholdShare is the cross-searcher pruning channel of the query
// execution engine: one instance is shared by every per-partition (or
// per-segment) searcher evaluating the same query, each publishing its
// local top-k heap floor once the heap fills and pruning against the
// maximum floor published so far.
//
// Safety argument. Once some searcher's heap holds k hits with floor f,
// at least k documents in the whole collection score >= f, so the global
// kth-best score is >= f — f is a lower bound on the final top-k entry
// threshold no matter which partition it came from. The share is
// raise-only (CAS loop), so the bound tightens monotonically and is
// valid at every instant regardless of how the concurrent searchers
// interleave. Publishers additionally round their floor down by one ULP
// (see publishFloor): a pruned candidate then has score strictly below
// some partition's kth hit, so it cannot displace anything from the
// global top-k even under score ties broken by docID. Together this
// makes the merged top-k byte-identical to independent evaluation while
// postings scanned strictly drops on multi-partition indexes.
//
// The zero value is NOT ready for use (its bits decode to +0.0, which
// would prune zero-score hits); obtain instances from NewThresholdShare
// or the GetThresholdShare pool.
type ThresholdShare struct {
	bits atomic.Uint64
}

// negInfBits is the reset state: no floor published yet.
var negInfBits = math.Float64bits(math.Inf(-1))

// NewThresholdShare returns a share with no floor published.
func NewThresholdShare() *ThresholdShare {
	t := new(ThresholdShare)
	t.Reset()
	return t
}

// Reset clears the share for a new query.
func (t *ThresholdShare) Reset() { t.bits.Store(negInfBits) }

// Load returns the highest floor published so far (-Inf when none).
func (t *ThresholdShare) Load() float64 {
	return math.Float64frombits(t.bits.Load())
}

// Raise publishes v if it exceeds the current floor. Lower values are
// ignored, so the share only ever tightens.
func (t *ThresholdShare) Raise(v float64) {
	for {
		old := t.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if t.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// sharePool recycles ThresholdShare instances across queries, keeping
// the shared-pruning path allocation-free like the rest of the hot path.
var sharePool = sync.Pool{New: func() any { return NewThresholdShare() }}

// GetThresholdShare returns a pooled share reset for a new query.
// Release it with PutThresholdShare once every searcher using it has
// finished.
func GetThresholdShare() *ThresholdShare {
	t := sharePool.Get().(*ThresholdShare)
	t.Reset()
	return t
}

// PutThresholdShare returns a share to the pool.
func PutThresholdShare(t *ThresholdShare) { sharePool.Put(t) }

// publishFloor is the value a searcher publishes for a heap floor f:
// one ULP below f. Local pruning may use f itself with <= semantics
// (the heap that produced f resolves its own ties), but a *remote*
// searcher pruning a candidate at exactly f could drop a hit that
// docID tie-breaking would have ranked above the floor hit; publishing
// nextafter(f, -Inf) makes remote pruning strict (score < f) at the
// cost of one representable float of pruning power.
func publishFloor(f float64) float64 {
	return math.Nextafter(f, math.Inf(-1))
}

// pruneCtx bundles the per-query pruning state threaded through the
// evaluation strategies: the optional cross-searcher share. Methods are
// value receivers so the context stays on the stack.
type pruneCtx struct {
	shared *ThresholdShare
}

// theta returns the effective pruning threshold: the local heap floor
// raised to the shared floor when a share is attached. The shared value
// is a lower bound on the global kth score (see ThresholdShare), so
// raising theta never prunes a true top-k hit.
func (pc pruneCtx) theta(h *TopK) float64 {
	t := h.threshold()
	if pc.shared != nil {
		if g := pc.shared.Load(); g > t {
			t = g
		}
	}
	return t
}

// offer inserts hit into the heap and, when the heap is full and a
// share is attached, publishes the (possibly raised) floor for the
// other searchers of this query to prune against. Every strategy
// offers through here — even the non-pruning OR/AND paths publish, so
// a pruning searcher on another partition benefits from their floors.
func (pc pruneCtx) offer(h *TopK, hit Hit) bool {
	kept := h.Offer(hit)
	if kept && pc.shared != nil && len(h.items) >= h.k {
		pc.shared.Raise(publishFloor(h.items[0].Score))
	}
	return kept
}
