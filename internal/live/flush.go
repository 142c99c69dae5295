package live

import (
	"sort"
	"time"

	"websearchbench/internal/index"
)

// Background memtable flushing, the only flush path. A full memtable is
// frozen under the index lock — an O(docs) bookkeeping step that also
// tells a durable sink where the memtable ends in its journal — and the
// expensive part (replaying the pre-analyzed documents into a Builder
// and finalizing the segment) runs on a dedicated goroutine with the
// lock released, so ingest continues into a fresh memtable while the
// segment is built. Frozen memtables stay fully searchable through the
// snapshot's extra memViews until their segment splices in; the flush
// commit runs at splice time, under the lock, so sinks still see one
// serialized event stream.

// pendingFlush is one frozen memtable queued for the background flusher.
// Its segment ID is reserved at freeze time so key references can point
// at the future segment immediately (with memtable-local coordinates,
// translated to segment-local at splice time).
type pendingFlush struct {
	id  uint64
	mem *memtable
	// base is the tombstone set at freeze time — the build's drop filter.
	// tomb is the same set continuing to accumulate post-freeze deletes
	// (memtable-local IDs); the delta is remapped onto the built segment
	// when it splices in. published/dirty are the copy-on-write state the
	// snapshot's memView reads, exactly like liveSeg's.
	base      *Tombstones
	tomb      *Tombstones
	published *Tombstones
	dirty     bool
}

// freezeMemtableLocked moves the active memtable onto the flush queue
// and starts a fresh one. Key references into the memtable are repointed
// to the reserved segment ID (keeping their memtable-local coordinates)
// so subsequent updates and deletes of those keys route their tombstones
// to the pending flush.
func (li *Index) freezeMemtableLocked() {
	// Backpressure: stall until the flusher works the queue below the
	// bound. The wait releases the index lock, so the flusher (and
	// concurrent searchers and writers) proceed; the memtable is captured
	// only after the wait, since another stalled writer may have frozen
	// it first.
	for len(li.flushing) >= li.cfg.MaxPendingFlushes {
		li.flushCond.Wait()
	}
	m := li.mem
	if len(m.docs) == 0 {
		return
	}
	pf := &pendingFlush{
		id:   li.nextSegID,
		mem:  m,
		base: li.memDead.Clone(),
		tomb: li.memDead,
	}
	li.nextSegID++
	if li.cfg.Durable != nil {
		li.cfg.Durable.Freeze(pf.id)
	}
	for i, key := range m.keys {
		if r, ok := li.keyRefs[key]; ok && r.segID == 0 && r.local == int32(i) {
			li.keyRefs[key] = docRef{segID: pf.id, local: int32(i)}
		}
	}
	li.flushing = append(li.flushing, pf)
	li.mem = newMemtable()
	li.memDead = NewTombstones()
	li.memPublished = nil
	li.memDirty = false
	li.wakeFlusher()
}

// flushWaitLocked freezes the memtable, waits for every pending flush
// and publishes; it returns (and clears) the newest flush commit error.
func (li *Index) flushWaitLocked() error {
	li.freezeMemtableLocked()
	li.waitFlushesLocked()
	li.publishLocked()
	err := li.flushErr
	li.flushErr = nil
	return err
}

// waitFlushesLocked blocks until the flush queue is empty. Callers hold
// the index lock; the flusher acquires it to splice, so the condition
// wait releases it.
func (li *Index) waitFlushesLocked() {
	for len(li.flushing) > 0 {
		li.flushCond.Wait()
	}
}

// wakeFlusher nudges the background flusher without blocking.
func (li *Index) wakeFlusher() {
	select {
	case li.flushCh <- struct{}{}:
	default:
	}
}

func (li *Index) flushLoop() {
	defer li.wg.Done()
	for {
		select {
		case <-li.closeCh:
			// Drain what was frozen before close so no memtable is left
			// stranded mid-queue; the index is no longer mutated.
			for li.buildOneFlush() {
			}
			return
		case <-li.flushCh:
		}
		for li.buildOneFlush() {
		}
	}
}

// buildOneFlush builds, splices and commits the oldest pending flush,
// reporting whether it did any work. This is the only place a frozen
// memtable becomes a segment. The build runs without the index lock:
// the frozen memtable is immutable (its tombstones advance, but the
// build filters on the freeze-time baseline and the delta is carried
// over at splice time). Flushes splice and commit in freeze order.
func (li *Index) buildOneFlush() bool {
	li.mu.Lock()
	if len(li.flushing) == 0 {
		li.mu.Unlock()
		return false
	}
	pf := li.flushing[0]
	li.mu.Unlock()

	m := pf.mem
	n := len(m.docs)
	var seg *index.Segment
	var keys []string
	remap := make([]int32, n)
	if alive := n - pf.base.Count(); alive > 0 {
		b := index.NewBuilder(index.WithAnalyzer(li.cfg.Analyzer))
		keys = make([]string, 0, alive)
		var terms []string
		var freqs []int32
		for i := 0; i < n; i++ {
			if pf.base.Has(int32(i)) {
				remap[i] = -1
				continue
			}
			terms, freqs = terms[:0], freqs[:0]
			for _, tf := range m.docTerms[i] {
				terms = append(terms, tf.term)
				freqs = append(freqs, tf.freq)
			}
			remap[i] = b.AddPreanalyzed(m.docs[i], terms, freqs)
			keys = append(keys, m.keys[i])
		}
		seg = b.Finalize()
	}

	li.mu.Lock()
	li.flushing = li.flushing[1:]
	if seg != nil {
		// Post-freeze deletes remap onto the new segment's tombstones.
		newTomb := NewTombstones()
		pf.tomb.Range(func(doc int32) {
			if pf.base.Has(doc) {
				return // filtered out by the build itself
			}
			if g := remap[doc]; g >= 0 {
				newTomb.Set(g)
			}
		})
		ls := &liveSeg{id: pf.id, seg: seg, keys: keys, tomb: newTomb, dirty: true}
		// Insert in ascending-ID order: a concurrent merge may have
		// appended a segment with a newer ID while this build ran.
		pos := sort.Search(len(li.segs), func(i int) bool { return li.segs[i].id > pf.id })
		li.segs = append(li.segs, nil)
		copy(li.segs[pos+1:], li.segs[pos:])
		li.segs[pos] = ls
		// Translate key references from memtable-local to segment-local
		// coordinates. Ascending order is safe: remap[i] <= i, so an entry
		// rewritten at i can never collide with a later iteration's match
		// test (which requires local == j > i). Keys re-added after the
		// freeze fail the equality check and are left alone.
		for i := 0; i < n; i++ {
			if remap[i] < 0 || remap[i] == int32(i) {
				continue
			}
			if r, ok := li.keyRefs[m.keys[i]]; ok && r.segID == pf.id && r.local == int32(i) {
				li.keyRefs[m.keys[i]] = docRef{segID: pf.id, local: remap[i]}
			}
		}
		li.segmentsCut++
	}
	li.flushes++
	// The commit persists the full segment set, so its error supersedes
	// any earlier flush's; the sink also latches it.
	li.flushErr = li.commitLocked("flush", pf.id)
	li.publishLocked()
	li.wakeMerger()
	li.flushCond.Broadcast()
	li.mu.Unlock()
	return true
}

// rateMeter tracks recent ingest throughput with a ring of eight
// one-second buckets, all accessed under the index lock.
type rateMeter struct {
	buckets [8]int64
	lastSec int64
}

func timeNowUnix() int64 { return time.Now().Unix() }

// advance zeroes buckets for seconds that elapsed since the last tick.
func (r *rateMeter) advance(sec int64) {
	if r.lastSec == 0 || sec-r.lastSec >= int64(len(r.buckets)) {
		if r.lastSec != 0 {
			r.buckets = [8]int64{}
		}
		r.lastSec = sec
		return
	}
	for s := r.lastSec + 1; s <= sec; s++ {
		r.buckets[s%int64(len(r.buckets))] = 0
	}
	if sec > r.lastSec {
		r.lastSec = sec
	}
}

// tick counts one ingested document at the given wall-clock second.
func (r *rateMeter) tick(sec int64) {
	r.advance(sec)
	r.buckets[sec%int64(len(r.buckets))]++
}

// rate returns documents per second averaged over the last five full
// seconds (the current, partial second is excluded).
func (r *rateMeter) rate(sec int64) float64 {
	r.advance(sec)
	var sum int64
	for s := sec - 5; s < sec; s++ {
		if s > 0 && sec-s < int64(len(r.buckets)) {
			sum += r.buckets[s%int64(len(r.buckets))]
		}
	}
	return float64(sum) / 5.0
}

// memViewOf builds a point-in-time view of m with the given published
// tombstones and global-docID base.
func memViewOf(m *memtable, dead *Tombstones, base int32) *memView {
	upTo := int32(len(m.docs))
	var total int64
	if upTo > 0 {
		total = m.prefixLen[upTo-1]
	}
	return &memView{
		mem:      m,
		upTo:     upTo,
		totalLen: total,
		docLens:  m.docLens,
		docs:     m.docs,
		keys:     m.keys,
		dead:     dead,
		base:     base,
	}
}
