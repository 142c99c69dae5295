package live

import (
	"sort"

	"websearchbench/internal/index"
)

// Background merge scheduling. One goroutine owns merge execution: it
// plans under the index lock, runs the expensive MergeSegmentsFiltered
// rewrite with the lock released (writers and searchers proceed
// untouched), then re-locks to splice the result in — carrying over any
// tombstones that landed on the inputs while the merge ran.

// mergePlan captures a merge's inputs at planning time.
type mergePlan struct {
	ids       []uint64
	segs      []*index.Segment
	keys      [][]string
	baselines []*Tombstones // tombstone state the rewrite filters on
}

func (li *Index) mergeLoop() {
	defer li.wg.Done()
	for {
		select {
		case <-li.closeCh:
			return
		case <-li.mergeCh:
		}
		for li.runOneMerge() {
			select {
			case <-li.closeCh:
				return
			default:
			}
		}
	}
}

// runOneMerge plans and executes at most one merge, reporting whether it
// did any work.
func (li *Index) runOneMerge() bool {
	li.mu.Lock()
	plan := li.planMergeLocked()
	if plan == nil {
		li.mu.Unlock()
		return false
	}
	li.merging = true
	li.mu.Unlock()
	li.executeMerge(plan)
	return true
}

// planMergeLocked picks the next merge, or nil if none is due:
//
//  1. Reclamation: any segment whose dead fraction reached ReclaimFrac
//     is rewritten alone, dropping its tombstoned documents.
//  2. Size-tiered compaction: when the segment count exceeds
//     MaxSegments, the smallest segments (by live document count) are
//     merged together — enough of them to land back on the budget.
func (li *Index) planMergeLocked() *mergePlan {
	if li.merging || li.closed {
		return nil
	}
	for _, ls := range li.segs {
		n := ls.seg.NumDocs()
		if n > 0 && float64(ls.tomb.Count()) >= li.cfg.ReclaimFrac*float64(n) && ls.tomb.Count() > 0 {
			return li.capturePlanLocked([]*liveSeg{ls})
		}
	}
	if len(li.segs) > li.cfg.MaxSegments {
		bySize := append([]*liveSeg(nil), li.segs...)
		sort.Slice(bySize, func(i, j int) bool {
			return bySize[i].seg.NumDocs()-bySize[i].tomb.Count() <
				bySize[j].seg.NumDocs()-bySize[j].tomb.Count()
		})
		n := len(li.segs) - li.cfg.MaxSegments + 1
		if n < 2 {
			n = 2
		}
		return li.capturePlanLocked(bySize[:n])
	}
	return nil
}

// capturePlanLocked freezes the inputs' current tombstones as the
// rewrite's filter baseline.
func (li *Index) capturePlanLocked(inputs []*liveSeg) *mergePlan {
	p := &mergePlan{}
	for _, ls := range inputs {
		p.ids = append(p.ids, ls.id)
		p.segs = append(p.segs, ls.seg)
		p.keys = append(p.keys, ls.keys)
		p.baselines = append(p.baselines, ls.tomb.Clone())
	}
	return p
}

// executeMerge rewrites the plan's segments off-lock and splices the
// result in. Callers must have set li.merging under the lock.
func (li *Index) executeMerge(plan *mergePlan) {
	drops := make([]func(int32) bool, len(plan.baselines))
	for i, t := range plan.baselines {
		drops[i] = t.Has
	}
	merged, remaps, err := index.MergeSegmentsFiltered(plan.segs, drops)

	li.mu.Lock()
	defer func() {
		li.merging = false
		li.mergeCond.Broadcast()
		li.mu.Unlock()
	}()
	if err != nil {
		// Merge inputs are in-memory segments; a failure is a programming
		// error upstream. Leave the inputs in place.
		return
	}
	li.applyMergeLocked(plan, merged, remaps)
	li.publishLocked()
}

// applyMergeLocked replaces the plan's input segments with the merged
// one, translating state that moved while the merge ran: tombstones set
// on an input after the baseline snapshot are remapped onto the merged
// segment, and key references into the inputs are repointed (unless the
// key was re-added elsewhere in the meantime — then the reference is
// already somewhere newer and must not be touched).
func (li *Index) applyMergeLocked(plan *mergePlan, merged *index.Segment, remaps [][]int32) {
	byID := make(map[uint64]int, len(plan.ids))
	for i, id := range plan.ids {
		byID[id] = i
	}
	newTomb := NewTombstones()
	for _, ls := range li.segs {
		i, ok := byID[ls.id]
		if !ok {
			continue
		}
		base := plan.baselines[i]
		ls.tomb.Range(func(doc int32) {
			if base.Has(doc) {
				return // already filtered out by the rewrite
			}
			if g := remaps[i][doc]; g >= 0 {
				newTomb.Set(g)
			}
		})
	}

	newKeys := make([]string, merged.NumDocs())
	for i := range plan.segs {
		for local, g := range remaps[i] {
			if g >= 0 {
				newKeys[g] = plan.keys[i][local]
			}
		}
	}

	var newID uint64
	if merged.NumDocs() > 0 {
		newID = li.nextSegID
		li.nextSegID++
	}
	for i := range plan.segs {
		id := plan.ids[i]
		for local, g := range remaps[i] {
			key := plan.keys[i][local]
			r, ok := li.keyRefs[key]
			if !ok || r.segID != id || r.local != int32(local) {
				continue
			}
			if g >= 0 && merged.NumDocs() > 0 {
				li.keyRefs[key] = docRef{segID: newID, local: g}
			} else {
				// The document died in the rewrite and the key was never
				// re-added: it was deleted, so the reference is stale.
				delete(li.keyRefs, key)
			}
		}
	}

	kept := li.segs[:0]
	for _, ls := range li.segs {
		if _, ok := byID[ls.id]; !ok {
			kept = append(kept, ls)
		}
	}
	li.segs = kept
	if merged.NumDocs() > 0 {
		li.segs = append(li.segs, &liveSeg{
			id:   newID,
			seg:  merged,
			keys: newKeys,
			tomb: newTomb,
			// dirty forces a fresh published clone at the next publish.
			dirty: true,
		})
	}
	li.merges++
	// Merge commits never cut the WAL: they reshuffle documents that
	// durable segments already capture. A commit failure here is latched
	// by the sink (surfaced via stats) — the pre-merge files remain on
	// disk and remain sufficient for recovery.
	_ = li.commitLocked("merge", 0)
	if len(li.segs) > li.cfg.MaxSegments {
		li.wakeMerger()
	}
}

// Compact synchronously flushes the memtable and merges everything down
// to at most one segment with zero tombstones — the offline shutdown
// path cmd/indexer's -live mode uses before serializing. Mutations may
// continue concurrently, but then Compact only guarantees the state it
// observed is compacted.
func (li *Index) Compact() error {
	li.mu.Lock()
	err := li.flushWaitLocked()
	li.mu.Unlock()
	if err != nil {
		return err
	}
	for {
		li.mu.Lock()
		for li.merging {
			li.mergeCond.Wait()
		}
		needs := len(li.segs) > 1
		for _, ls := range li.segs {
			if ls.tomb.Count() > 0 {
				needs = true
			}
		}
		if !needs {
			li.mu.Unlock()
			return nil
		}
		plan := li.capturePlanLocked(li.segs)
		li.merging = true
		li.mu.Unlock()
		li.executeMerge(plan)
	}
}

// Segment returns the index's single compacted segment, or nil if the
// index is not in compacted form (call Compact first).
func (li *Index) Segment() *index.Segment {
	li.mu.Lock()
	defer li.mu.Unlock()
	if len(li.mem.docs) != 0 || len(li.flushing) != 0 || len(li.segs) != 1 || li.segs[0].tomb.Count() != 0 {
		return nil
	}
	return li.segs[0].seg
}
