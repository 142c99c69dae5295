package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"websearchbench/internal/corpus"
	"websearchbench/internal/live"
	"websearchbench/internal/search"
	"websearchbench/internal/stats"
)

const (
	opUpdate = iota
	opAdd
	opDelete
)

// liveOp is one pre-generated mutation. sentinel numbers the unique token
// the new version carries (update, add) or the deleted version carried.
type liveOp struct {
	kind     uint8
	key      int32
	sentinel int32
}

func liveKey(id int32) string      { return fmt.Sprintf("k%07d", id) }
func sentinelToken(n int32) string { return fmt.Sprintf("zq%07d", n) }
func keyID(key string) (int32, bool) {
	if len(key) < 2 || key[0] != 'k' {
		return 0, false
	}
	n, err := strconv.Atoi(key[1:])
	return int32(n), err == nil
}

// liveScript is the seeded mutation stream and what the reader needs to
// check answers against it.
type liveScript struct {
	ops []liveOp
	// deletedAt[key] is the index of the op deleting key (MaxInt32 when
	// it is never deleted). Added keys are never reused, so a key whose
	// delete was acknowledged before a search began must not be returned.
	deletedAt []int32
}

// genLiveScript draws n mutations over seeded keys 0..seeded-1: updates of
// a live key, adds of a fresh key and deletes of a live key, keeping the
// live count stationary. A key is left alone for cooldown ops after each
// mutation, which is what lets the reader probe a recent mutation without
// racing the next one on the same key.
func genLiveScript(rng *rand.Rand, seeded, n int, sz sizing) liveScript {
	liveKeys := make([]int32, seeded)
	lastMut := make([]int, seeded, seeded+n)
	lastSentinel := make([]int32, seeded, seeded+n)
	for i := range liveKeys {
		liveKeys[i] = int32(i)
		lastMut[i] = -sz.WriterCooldown
		lastSentinel[i] = int32(i) // seeded document i carries sentinel i
	}
	pick := func(i int) int { // position in liveKeys of a key out of cooldown
		for {
			p := rng.Intn(len(liveKeys))
			if lastMut[liveKeys[p]] <= i-sz.WriterCooldown {
				return p
			}
		}
	}
	sc := liveScript{ops: make([]liveOp, n)}
	addShare := (1 - sz.UpdateShare) / 2
	for i := range sc.ops {
		sent := int32(seeded + i)
		switch r := rng.Float64(); {
		case r < sz.UpdateShare:
			k := liveKeys[pick(i)]
			sc.ops[i] = liveOp{opUpdate, k, sent}
			lastMut[k], lastSentinel[k] = i, sent
		case r < sz.UpdateShare+addShare:
			k := int32(len(lastMut))
			lastMut = append(lastMut, i)
			lastSentinel = append(lastSentinel, sent)
			liveKeys = append(liveKeys, k)
			sc.ops[i] = liveOp{opAdd, k, sent}
		default:
			p := pick(i)
			k := liveKeys[p]
			liveKeys[p] = liveKeys[len(liveKeys)-1]
			liveKeys = liveKeys[:len(liveKeys)-1]
			sc.ops[i] = liveOp{opDelete, k, lastSentinel[k]}
			lastMut[k] = i
		}
	}
	sc.deletedAt = make([]int32, len(lastMut))
	for k := range sc.deletedAt {
		sc.deletedAt[k] = math.MaxInt32
	}
	for i, op := range sc.ops {
		if op.kind == opDelete {
			sc.deletedAt[op.key] = int32(i)
		}
	}
	return sc
}

// seedLive builds a live index holding docs, the way searchd -live seeds.
func seedLive(docs []corpus.Document, sz sizing) (*live.Index, error) {
	li := live.NewIndex(live.Config{
		MemtableMaxDocs: sz.LiveMemtable,
		MaxSegments:     sz.LiveMaxSegments,
		RefreshEvery:    1,
		Parallel:        true,
	})
	li.SetRefreshEvery(1 << 30) // bulk seeding: publish once below
	for i, d := range docs {
		if err := li.Add(liveKey(int32(i)), d.Title, d.Body+" "+sentinelToken(int32(i)), d.Quality); err != nil {
			li.Close()
			return nil, fmt.Errorf("seed doc %d: %w", i, err)
		}
	}
	if err := li.Flush(); err != nil {
		li.Close()
		return nil, fmt.Errorf("seed flush: %w", err)
	}
	li.SetRefreshEvery(1)
	li.Refresh()
	// Ready means the merge debt of seeding is paid.
	for deadline := time.Now().Add(30 * time.Second); li.Stats().MergeBacklog > 0; {
		if time.Now().After(deadline) {
			li.Close()
			return nil, fmt.Errorf("seed merges did not settle")
		}
		time.Sleep(time.Millisecond)
	}
	return li, nil
}

// runLiveChurn is one paced writer beside one reader on a live index.
func runLiveChurn(o runOpts) (*result, error) {
	sz := o.sz
	const bodies = 2000 // fresh document bodies the mutations cycle through
	docs, vocab, err := genDocs(o.seed, sz.LiveSeedDocs+bodies, sz)
	if err != nil {
		return nil, err
	}
	seedDocs, fresh := docs[:sz.LiveSeedDocs], docs[sz.LiveSeedDocs:]
	pool, err := defaultPool(o.seed+1, sz.LiveUnique, vocab)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.seed + 2))
	horizon := sz.Warmup + time.Duration(o.seconds*float64(time.Second)) + 3*time.Second
	due := uniformSchedule(sz.WriterRate, horizon)
	script := genLiveScript(rng, len(seedDocs), len(due), sz)
	res := &result{Metrics: map[string]float64{}}

	base := heapMB()
	var li *live.Index
	setup, teardown, err := timedSetups(sz.SetupRepeats, func() (func(), error) {
		var err error
		if li, err = seedLive(seedDocs, sz); err != nil {
			return nil, err
		}
		return li.Close, nil
	})
	if err != nil {
		return nil, err
	}
	defer teardown()
	res.set("setup_s", setup)
	res.set("heap_mb", heapMB()-base)
	res.set("live.seed_docs_per_s", float64(len(seedDocs))/setup)

	tr := o.tr
	var acked atomic.Int32 // mutations acknowledged so far
	write := func(_, i int) bool {
		op := script.ops[i]
		key := liveKey(op.key)
		var t0 int64
		if tr.on() {
			t0 = tr.now()
		}
		var err error
		name := "live.add"
		if op.kind == opDelete {
			name = "live.delete"
			var found bool
			found, err = li.Delete(key)
			if err == nil && !found {
				err = fmt.Errorf("delete of live key %s found nothing", key)
			}
		} else {
			d := fresh[i%len(fresh)]
			body := d.Body + " " + sentinelToken(op.sentinel)
			if op.kind == opUpdate {
				err = li.Update(key, d.Title, body, d.Quality)
			} else {
				err = li.Add(key, d.Title, body, d.Quality)
			}
		}
		if tr.on() {
			tr.record(name, t0, tr.now(), 0, 0)
		}
		acked.Store(int32(i + 1))
		return err == nil
	}

	bufs := make([][]live.Hit, sz.Clients)
	read := func(w, i int) bool {
		done := acked.Load()
		probe := sz.SentinelEvery > 0 && i%sz.SentinelEvery == sz.SentinelEvery-1 && done > 0
		// The pool is cycled in order, not drawn by popularity: no cache
		// sits on this path, and a Zipf head of a few queries made the
		// median depend on which queries the seed put there.
		text := pool[i%len(pool)].Text
		var op liveOp
		if probe {
			// A mutation acknowledged at most SentinelLookback ops ago;
			// its key stays untouched for WriterCooldown ops.
			back := int32(i/sz.SentinelEvery) % int32(sz.SentinelLookback)
			op = script.ops[max(done-1-back, 0)]
			text = sentinelToken(op.sentinel)
		}
		var t0 int64
		if tr.on() {
			t0 = tr.now()
		}
		hits := li.SearchInto(text, search.ModeOr, sz.TopK, bufs[w][:0])
		if tr.on() {
			tr.record("live.search", t0, tr.now(), 0, tr.newID())
		}
		// With a corrupted oracle every 64th read is declared wrong.
		ok := len(hits) <= sz.TopK && !(o.corruptOracle && i%64 == 0)
		for j, h := range hits {
			if j > 0 && h.Score > hits[j-1].Score {
				ok = false
			}
			if id, known := keyID(h.Key); !known || int(id) >= len(script.deletedAt) || script.deletedAt[id] < done {
				ok = false // an unknown key, or one whose delete was acknowledged before the search began
			}
		}
		if probe {
			if op.kind == opDelete {
				ok = ok && len(hits) == 0
			} else {
				ok = ok && len(hits) == 1 && hits[0].Key == liveKey(op.key)
			}
		}
		for j := range hits {
			hits[j] = live.Hit{} // hits pin snapshot data
		}
		bufs[w] = hits[:0]
		return ok
	}

	var writes loopResult
	var samples []live.Stats
	var st0 live.Stats
	background := func(origin time.Time) func() {
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			writes = pacedLoop(1, origin, due, sz.Warmup, horizon, 0, write, &stop)
		}()
		if tr != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					if tr.on() {
						samples = append(samples, li.Stats())
					}
					time.Sleep(20 * time.Millisecond)
				}
			}()
		}
		return func() {
			stop.Store(true)
			wg.Wait()
		}
	}

	// One reader: the writer is the second client of the two-core host.
	o.sz.Clients = 1
	ph := measure(o, read, sz.OpenRate[o.name], hooks{background: background, traceStart: func() { st0 = li.Stats() }})
	res.Attempted += len(writes.samples)
	res.Failed += writes.failed()
	ph.report(o, res, writes.lateness)
	if backlogGrowing(writes.delay, o.sz.BacklogSlack) {
		res.Invalid = append(res.Invalid, "writer fell behind its pace")
	}
	wl := latenciesMs(writes.samples)
	res.set("live.write_p50_ms", percentile(wl, 50))
	res.set("live.write_p99_ms", percentile(wl, 99))

	if tr != nil {
		st1 := li.Stats()
		spans := tr.take()
		res.spans = spans
		by := map[string][]float64{}
		for _, s := range spans {
			by[s.Name] = append(by[s.Name], s.durUs())
		}
		res.set("live.search_us", stats.Mean(by["live.search"]))
		res.set("live.add_us", stats.Mean(by["live.add"]))
		res.set("live.delete_us", stats.Mean(by["live.delete"]))
		var segs, mem []float64
		var pend, backlog int
		for _, s := range samples {
			segs = append(segs, float64(s.Segments))
			mem = append(mem, float64(s.MemtableDocs))
			pend = max(pend, s.PendingFlushes)
			backlog = max(backlog, s.MergeBacklog)
		}
		res.set("live.segments_mean", stats.Mean(segs))
		res.set("live.memtable_docs_mean", stats.Mean(mem))
		res.set("live.pending_flushes_max", float64(pend))
		res.set("live.merge_backlog_max", float64(backlog))
		res.set("live.flushes", float64(st1.Flushes-st0.Flushes))
		res.set("live.merges", float64(st1.Merges-st0.Merges))
		res.set("live.tombstones_end", float64(st1.Tombstones))
		res.set("textproc.parse_us", parseProbe(pool, sz.ProbeQueries))
	}

	// Index size of the churned index, compacted so it is one segment.
	if err := li.Compact(); err != nil {
		return nil, fmt.Errorf("compact: %w", err)
	}
	seg := li.Segment()
	if seg == nil {
		return nil, fmt.Errorf("compact left no single segment")
	}
	n, err := seg.WriteTo(io.Discard)
	if err != nil {
		return nil, fmt.Errorf("serialize compacted segment: %w", err)
	}
	res.set("index_bytes_per_doc", float64(n)/float64(seg.NumDocs()))
	return res, nil
}
