package blob

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"websearchbench/internal/index"
)

// CachedSegmentSource opens manifests into lazily loaded segments. Per
// segment it fetches the fixed footer and the metadata prefix (header,
// doc store, dictionary with skip tables) eagerly — the parts every
// query touches — and serves the segment's posting reads through the
// shared BlockCache: a resident block costs a map lookup, and the
// non-resident blocks a query asks for at once cost one ranged read per
// contiguous run, all runs in flight together (see segReader). The
// source is shared across generations; because cache keys are
// content-addressed segment keys, snapshots of different generations
// coexist in it without interfering.
type CachedSegmentSource struct {
	store Store
	cache *BlockCache
	// MaxAttempts bounds read attempts per range (>=1). Object-store
	// reads fail transiently, so a failed read is retried here; a posting
	// read that fails every attempt makes the query Incomplete.
	MaxAttempts int

	retries       atomic.Int64
	failures      atomic.Int64
	rangedReads   atomic.Int64
	blocksFetched atomic.Int64

	// open holds the segments of the snapshot opened last, by blob key.
	// Keys are content hashes, so the next generation reuses the open
	// segment of every key it keeps and reads only the new ones.
	mu   sync.Mutex
	open map[string]*index.Segment
}

// SourceStats counts fetch-path incidents, surfaced next to the cache
// counters on /metrics. RangedReads and BlocksFetched are the posting
// reads that succeeded and the blocks they brought in; their ratio is
// how far coalescing and read-ahead cut round trips.
type SourceStats struct {
	CacheStats
	FetchRetries  int64 `json:"fetch_retries"`
	FetchFailures int64 `json:"fetch_failures"`
	RangedReads   int64 `json:"ranged_reads"`
	BlocksFetched int64 `json:"blocks_fetched"`
}

// NewCachedSegmentSource returns a source reading from st through cache.
func NewCachedSegmentSource(st Store, cache *BlockCache) *CachedSegmentSource {
	return &CachedSegmentSource{store: st, cache: cache, MaxAttempts: 3}
}

// Stats returns cache and fetch-path counters.
func (src *CachedSegmentSource) Stats() SourceStats {
	return SourceStats{
		CacheStats:    src.cache.Stats(),
		FetchRetries:  src.retries.Load(),
		FetchFailures: src.failures.Load(),
		RangedReads:   src.rangedReads.Load(),
		BlocksFetched: src.blocksFetched.Load(),
	}
}

// Cache returns the underlying block cache (for generation invalidation).
func (src *CachedSegmentSource) Cache() *BlockCache { return src.cache }

// Snapshot is one opened manifest generation: lazy segments in manifest
// order plus their marshaled tombstone bitmaps (nil for segments with no
// deletes). A snapshot stays fully usable after newer generations are
// opened — its blocks re-fetch from the store on cache misses for as
// long as the publisher's sweep retention keeps its generation.
type Snapshot struct {
	Manifest Manifest
	Segments []*index.Segment
	Tombs    [][]byte
}

// Open materializes a manifest into a snapshot: per segment not already
// open, two eager reads (footer, then metadata prefix) and no posting
// bytes at all.
func (src *CachedSegmentSource) Open(m Manifest) (*Snapshot, error) {
	src.mu.Lock()
	prev := src.open
	src.mu.Unlock()
	open := make(map[string]*index.Segment, len(m.Segments))
	snap := &Snapshot{Manifest: m}
	for _, ref := range m.Segments {
		seg, err := prev[ref.Key], error(nil)
		if seg == nil {
			if seg, err = src.openSegment(ref); err != nil {
				return nil, fmt.Errorf("blob: open segment %d (%s): %w", ref.ID, ref.Key, err)
			}
		}
		open[ref.Key] = seg
		var tomb []byte
		if ref.TombKey != "" {
			if tomb, err = src.store.Get(ref.TombKey); err != nil {
				return nil, fmt.Errorf("blob: open tombstones for segment %d: %w", ref.ID, err)
			}
		}
		snap.Segments = append(snap.Segments, seg)
		snap.Tombs = append(snap.Tombs, tomb)
	}
	src.mu.Lock()
	src.open = open
	src.mu.Unlock()
	return snap, nil
}

// LoadSnapshot reads the store's current manifest and opens it. ok is
// false when the store has never been published to.
func (src *CachedSegmentSource) LoadSnapshot() (*Snapshot, bool, error) {
	m, ok, err := LoadManifest(src.store)
	if err != nil || !ok {
		return nil, ok, err
	}
	snap, err := src.Open(m)
	if err != nil {
		return nil, true, err
	}
	return snap, true, nil
}

func (src *CachedSegmentSource) openSegment(ref SegmentRef) (*index.Segment, error) {
	if ref.Size < index.SegmentFooterLen {
		return nil, fmt.Errorf("blob: segment blob is %d bytes, shorter than the footer", ref.Size)
	}
	tail, err := src.getRetry(ref.Key, ref.Size-index.SegmentFooterLen, index.SegmentFooterLen)
	if err != nil {
		return nil, err
	}
	layout, err := index.ParseSegmentFooter(tail)
	if err != nil {
		return nil, err
	}
	if layout.FileSize != ref.Size {
		return nil, fmt.Errorf("blob: footer says %d bytes, blob is %d", layout.FileSize, ref.Size)
	}
	meta, err := src.getRetry(ref.Key, 0, layout.PostOff)
	if err != nil {
		return nil, err
	}
	return index.OpenLazySegment(meta, &segReader{src: src, key: ref.Key, postOff: layout.PostOff})
}

// maxInflightReads bounds the ranged reads one ReadRuns call keeps in
// flight: the number of runs follows the number of query terms, which
// is outside input.
const maxInflightReads = 16

// segReader is one segment's index.BlockReader: the shared cache in
// front of ranged reads of the segment's blob.
type segReader struct {
	src     *CachedSegmentSource
	key     string
	postOff int64 // file offset of the postings section
}

func (r *segReader) Cached(term int32, block int) []byte {
	return r.src.cache.Get(r.key, term, block)
}

func (r *segReader) Needed(hits, misses int) { r.src.cache.needed(hits, misses) }

// ReadRuns reads each run with one GetRange, up to maxInflightReads at
// a time with the caller as one of the readers, then splits the bytes
// into per-block cache entries. A first attempt that fails is retried
// after the round and one run at a time, so a store in trouble is not
// also the target of a concurrent retry storm. A run that fails every
// attempt caches nothing.
func (r *segReader) ReadRuns(runs []index.BlockRun) {
	src := r.src
	bufs := make([][]byte, len(runs))
	var next atomic.Int64
	read := func() {
		for i := next.Add(1) - 1; i < int64(len(runs)); i = next.Add(1) - 1 {
			bufs[i], runs[i].Err = src.store.GetRange(r.key, r.postOff+runs[i].Off, runs[i].Bytes())
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(len(runs), maxInflightReads); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			read()
		}()
	}
	read()
	wg.Wait()

	for i := range runs {
		run, n := &runs[i], runs[i].Bytes()
		if run.Err != nil {
			bufs[i], run.Err = src.retry(run.Err, r.key, r.postOff+run.Off, n)
		}
		if run.Err == nil && int64(len(bufs[i])) != n {
			run.Err = fmt.Errorf("blob: read %d bytes of %s, want %d", len(bufs[i]), r.key, n)
		}
		if run.Err != nil {
			src.failures.Add(1)
			continue
		}
		src.rangedReads.Add(1)
		src.blocksFetched.Add(int64(len(run.Sizes)))
		buf := bufs[i]
		for j, sz := range run.Sizes {
			blk := buf[:sz:sz]
			buf = buf[sz:]
			if len(run.Sizes) > 1 {
				// The cache accounts and evicts per entry, so an entry must
				// not keep the whole run's buffer alive.
				blk = append([]byte(nil), blk...)
			}
			run.Blocks[j] = blk
			src.cache.Put(r.key, run.Term, run.First+j, blk)
		}
	}
}

// getRetry is GetRange with up to MaxAttempts attempts.
func (src *CachedSegmentSource) getRetry(key string, off, n int64) ([]byte, error) {
	data, err := src.store.GetRange(key, off, n)
	if err != nil {
		return src.retry(err, key, off, n)
	}
	return data, nil
}

// retry re-reads a range whose first attempt failed with err, up to
// MaxAttempts attempts in all. Not-found is terminal (retrying cannot
// conjure the object); other errors are treated as transient.
func (src *CachedSegmentSource) retry(err error, key string, off, n int64) ([]byte, error) {
	for i := 1; i < src.MaxAttempts && !errors.Is(err, ErrNotFound); i++ {
		src.retries.Add(1)
		var data []byte
		if data, err = src.store.GetRange(key, off, n); err == nil {
			return data, nil
		}
	}
	return nil, err
}
